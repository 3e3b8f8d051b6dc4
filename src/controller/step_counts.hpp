/**
 * @file
 * Operand counts of the flexible-pipeline (MAERI) convolution steps.
 *
 * Internal to the dense controller; declared here so tests can compare
 * the closed form against a plain enumeration.
 */

#ifndef STONNE_CONTROLLER_STEP_COUNTS_HPP
#define STONNE_CONTROLLER_STEP_COUNTS_HPP

#include <cstdint>
#include <vector>

#include "controller/tile.hpp"
#include "tensor/im2col.hpp"

namespace stonne {

/** One (fold, x block, y block) step's operand counts for one (group,
 *  batch) pair of lanes. */
struct StepCounts
{
    std::int32_t delivered; //!< in-bounds operands of the step
    std::int32_t fresh;     //!< those not in block (xb, yb - 1)'s footprint

    bool operator==(const StepCounts &) const = default;
};

/**
 * The operand counts of every (fold, x block, y block) step of a
 * flexible-pipeline convolution with a `window`-element filter window
 * (R * S * channels per group), indexed (f * nbx + xb) * nby + yb.
 *
 * Lanes of different (g, n) read disjoint channels or batches, and a
 * step's footprint for one (g, n) depends only on (f, xb, yb): the
 * indices shift every input coordinate by a common offset. So a step
 * delivers tg * tn * delivered operands, and tg * tn * fresh of them
 * miss the previous step's footprint, which is block (xb, yb - 1) of
 * the same fold, always a full T_Y' block.
 */
std::vector<StepCounts> stepCounts(const Conv2dShape &shape, const Tile &tile,
                                   index_t window);

} // namespace stonne

#endif // STONNE_CONTROLLER_STEP_COUNTS_HPP
