/**
 * @file
 * Structured error context for simulation diagnostics.
 *
 * A thread-local stack of key/value scopes (cycle, layer name, unit id,
 * controller phase, ...) that fatal(), panic() and the progress watchdog
 * automatically attach to their messages. A context-free "delivery made
 * no progress" becomes "delivery made no progress [layer=conv1,
 * unit=dn_tree, phase=input-delivery]" without every call site having
 * to thread the information through by hand.
 *
 * Usage:
 *   SimScope scope("layer", layer.name);   // popped on scope exit
 *   SimContext::set("cycle", cycle);       // mutate innermost frame
 */

#ifndef STONNE_COMMON_SIM_CONTEXT_HPP
#define STONNE_COMMON_SIM_CONTEXT_HPP

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace stonne {

/** Thread-local stack of diagnostic key/value frames. */
class SimContext
{
  public:
    /** Push a frame; prefer the RAII SimScope over calling this. */
    static void push(std::string key, std::string value);

    /** Pop the innermost frame (no-op on an empty stack). */
    static void pop();

    /**
     * Update the innermost frame with the given key anywhere in the
     * stack, or push a new frame when the key is absent. Used for
     * values that change while a scope is open (the cycle count).
     */
    static void set(const std::string &key, std::string value);

    template <typename T>
    static void
    set(const std::string &key, const T &value)
    {
        std::ostringstream os;
        os << value;
        set(key, os.str());
    }

    /** Number of frames currently on this thread's stack. */
    static std::size_t depth();

    /** Remove every frame (test isolation). */
    static void clear();

    /**
     * Render the stack as "key=value, key=value" outermost first;
     * empty string when no frame is active.
     */
    static std::string describe();

    /**
     * Rendering wrapped as " [ ... ]" for direct appending to an error
     * message; empty string when no frame is active.
     */
    static std::string suffix();
};

/** RAII frame: pushes on construction, pops on destruction. */
class SimScope
{
  public:
    SimScope(std::string key, std::string value)
    {
        SimContext::push(std::move(key), std::move(value));
    }

    template <typename T>
    SimScope(std::string key, const T &value)
    {
        std::ostringstream os;
        os << value;
        SimContext::push(std::move(key), os.str());
    }

    ~SimScope() { SimContext::pop(); }

    SimScope(const SimScope &) = delete;
    SimScope &operator=(const SimScope &) = delete;
};

} // namespace stonne

#endif // STONNE_COMMON_SIM_CONTEXT_HPP
