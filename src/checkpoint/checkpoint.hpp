/**
 * @file
 * Checkpoint-file helpers shared by the API, the model runner, the
 * service and the CLI: tensor serialization, kind checks and header
 * peeking.
 *
 * Every snapshot opens with section "meta": its kind and the full
 * HardwareConfig text, readable without restoring anything. An engine
 * snapshot (Stonne::saveCheckpoint) continues with
 *
 *   section "stonne"   — API-level state (cumulative cycles)
 *   section "config"   — config text again (Accelerator self-check)
 *   section "stats"    — StatsRegistry counters
 *   section "watchdog" | "gb" | "dram" | "dn" | "mn" | "rn"
 *   section "controller" — memory-controller phase
 *   section "faults"   — presence flag + fault-injector RNG/stuck map
 *   section "trace"    — presence flag + tracer clock/window/events
 *
 * A service-job snapshot is an engine snapshot plus "service_job"; a
 * model-run snapshot (ModelRunner) holds the schedule cursor, one
 * engine snapshot per core and the shared-DRAM arbiter ledger.
 */

#ifndef STONNE_CHECKPOINT_CHECKPOINT_HPP
#define STONNE_CHECKPOINT_CHECKPOINT_HPP

#include <string>

#include "checkpoint/archive.hpp"
#include "tensor/tensor.hpp"

namespace stonne {

struct SimulationResult;

/** Checkpoint kinds stored in the "meta" section. */
constexpr std::uint32_t kCheckpointKindEngine = 1;     //!< Stonne only
constexpr std::uint32_t kCheckpointKindServiceJob = 3; //!< + "service_job"
/** ModelRunner snapshot: "multicore" cursor + one section per core
 *  + the shared-DRAM arbiter ledger. */
constexpr std::uint32_t kCheckpointKindMulticoreRun = 4;

/**
 * Fail `ar` with a CheckpointError unless `kind` (read from its "meta"
 * section) is `expected`; the message names what the snapshot carries.
 */
void requireCheckpointKind(const ArchiveReader &ar, std::uint32_t kind,
                           std::uint32_t expected);

/** Serialize a tensor (shape + raw float payload). */
void saveTensor(ArchiveWriter &ar, const Tensor &t);

/** Deserialize a tensor written by saveTensor(). */
Tensor loadTensor(ArchiveReader &ar);

/**
 * Serialize one SimulationResult at full fidelity: a run restored from
 * a snapshot must report byte-identically to the uninterrupted one.
 * Shared by the ModelRunner's snapshots and the service daemon's
 * per-job snapshots.
 */
void saveSimulationResult(ArchiveWriter &ar, const SimulationResult &r);

/** Deserialize a saveSimulationResult() record. */
SimulationResult loadSimulationResult(ArchiveReader &ar);

/**
 * Read the HardwareConfig text embedded in a checkpoint file of any
 * kind without restoring anything — the CLI `resume` command uses it
 * to construct the instance the snapshot belongs to.
 */
std::string checkpointConfigText(const std::string &path);

} // namespace stonne

#endif // STONNE_CHECKPOINT_CHECKPOINT_HPP
