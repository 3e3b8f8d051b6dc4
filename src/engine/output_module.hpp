/**
 * @file
 * Output module: simulation statistics reporting (Section III).
 *
 * After each simulated layer STONNE reports two artifacts:
 *  1. a JSON summary of the statistics (performance, utilization,
 *     energy, area) for user scripts, and
 *  2. a *counter file* in a customized line format with the activity
 *     count of each architectural component, the input of the
 *     table-based energy model.
 */

#ifndef STONNE_ENGINE_OUTPUT_MODULE_HPP
#define STONNE_ENGINE_OUTPUT_MODULE_HPP

#include <string>
#include <vector>

#include "common/json_writer.hpp"
#include "common/stats.hpp"
#include "engine/stonne_api.hpp"
#include "frontend/layer_exec.hpp"

namespace stonne {

/** Builds the JSON summary and the counter file. */
class OutputModule
{
  public:
    /** JSON summary of one simulated operation. */
    static JsonValue summary(const HardwareConfig &cfg,
                             const SimulationResult &result);

    /**
     * JSON report of one full-model inference: per-layer records (with
     * where each op ran) plus the aggregated totals.
     */
    static JsonValue modelReport(const std::string &model_name,
                                 const HardwareConfig &cfg,
                                 const std::vector<LayerRunRecord> &records,
                                 const SimulationResult &total);

    /** JSON summary plus the full counter dump. */
    static JsonValue summaryWithCounters(const HardwareConfig &cfg,
                                         const SimulationResult &result,
                                         const StatsRegistry &stats);

    /** Counter file: one `group component count` line per counter. */
    static std::string counterFile(const StatsRegistry &stats);

    /** Write text content to a file (fatal on I/O errors). */
    static void writeFile(const std::string &path,
                          const std::string &content);
};

} // namespace stonne

#endif // STONNE_ENGINE_OUTPUT_MODULE_HPP
