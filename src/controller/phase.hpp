/**
 * @file
 * A memory controller's execution phase, as watchdog deadlock reports,
 * the tracer and checkpoints see it.
 */

#ifndef STONNE_CONTROLLER_PHASE_HPP
#define STONNE_CONTROLLER_PHASE_HPP

#include <string>

#include "checkpoint/archive.hpp"

namespace stonne {

/**
 * The phase is held as the pointer to a string literal, so the
 * per-step phase changes of the controllers' hot loops neither copy nor
 * compare text: setting the literal that is already current is one
 * pointer compare. A phase read back from a snapshot is held in one
 * owned string.
 */
class ControllerPhase
{
  public:
    ControllerPhase() = default;
    ControllerPhase(const ControllerPhase &) = delete;
    ControllerPhase &operator=(const ControllerPhase &) = delete;

    /** Enter the phase named by a string literal; false when that
     *  literal is already the current phase. */
    bool
    set(const char *literal)
    {
        if (literal == name_)
            return false;
        name_ = literal;
        return true;
    }

    std::string str() const { return name_; }

    void save(ArchiveWriter &ar) const { ar.putString(name_); }

    void
    load(ArchiveReader &ar)
    {
        loaded_ = ar.getString();
        name_ = loaded_.c_str();
    }

  private:
    const char *name_ = "idle";
    std::string loaded_; //!< owns a phase read back from a snapshot
};

} // namespace stonne

#endif // STONNE_CONTROLLER_PHASE_HPP
