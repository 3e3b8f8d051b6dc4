/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * fatal()  — the simulation cannot continue due to a user error
 *            (bad configuration, invalid arguments); throws FatalError.
 * panic()  — something happened that should never happen regardless of
 *            user input (a simulator bug); throws PanicError.
 * warn()   — functionality may not behave exactly as intended; always
 *            printed to stderr.
 *
 * Both error functions throw instead of calling exit()/abort() so that the
 * test suite can assert on misconfiguration handling.
 */

#ifndef STONNE_COMMON_LOGGING_HPP
#define STONNE_COMMON_LOGGING_HPP

#include <sstream>
#include <stdexcept>
#include <string>

namespace stonne {

/** Error thrown by fatal(): a user-level configuration problem. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error("fatal: " + msg) {}
};

/** Error thrown by panic(): an internal simulator bug. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error("panic: " + msg) {}
};

namespace detail {

/** Rendered SimContext scope stack, " [k=v, ...]" or "" (sim_context.cpp). */
std::string simContextSuffix();

inline void
format(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
format(std::ostringstream &os, const T &v, const Rest &...rest)
{
    os << v;
    format(os, rest...);
}

} // namespace detail

/**
 * Report a user error and abort the current simulation via exception.
 * Any active SimContext scopes (cycle, layer, unit) are appended.
 */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    std::ostringstream os;
    detail::format(os, args...);
    throw FatalError(os.str() + detail::simContextSuffix());
}

/**
 * Report an internal invariant violation via exception.
 * Any active SimContext scopes (cycle, layer, unit) are appended.
 */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    std::ostringstream os;
    detail::format(os, args...);
    throw PanicError(os.str() + detail::simContextSuffix());
}

/** Check an internal invariant; panic with a message when it fails. */
template <typename... Args>
void
panicIf(bool cond, const Args &...args)
{
    if (cond)
        panic(args...);
}

/** Check a user-facing precondition; fatal with a message when it fails. */
template <typename... Args>
void
fatalIf(bool cond, const Args &...args)
{
    if (cond)
        fatal(args...);
}

/** Print a warning to stderr (does not stop the simulation). */
void warnMessage(const std::string &msg);

template <typename... Args>
void
warn(const Args &...args)
{
    std::ostringstream os;
    detail::format(os, args...);
    warnMessage(os.str());
}

} // namespace stonne

#endif // STONNE_COMMON_LOGGING_HPP
