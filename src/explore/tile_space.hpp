/**
 * @file
 * TileSpace: enumeration of the legal tile/mapping space of one layer
 * on one hardware configuration.
 *
 * The paper's headline use case is exploring the accelerator design
 * space; the mapping axis of that space is the Tile(T_R, T_S, T_C,
 * T_G, T_K, T_N, T_X', T_Y') partition the dense controller executes.
 * Candidates are divisor-based — every tile dimension divides its
 * layer dimension exactly, so no ceil() quantization loss hides inside
 * a candidate — and pruned against the configuration: a tile whose
 * cluster footprint exceeds the multiplier array is illegal. The
 * greedy Mapper::generateTile choice (which is *not* necessarily
 * divisor-shaped) is appended so a search over the space can never do
 * worse than the existing heuristic.
 */

#ifndef STONNE_EXPLORE_TILE_SPACE_HPP
#define STONNE_EXPLORE_TILE_SPACE_HPP

#include <vector>

#include "common/config.hpp"
#include "controller/tile.hpp"

namespace stonne::explore {

/** Legal-tile enumeration for one (layer, configuration) pair. */
class TileSpace
{
  public:
    /**
     * Enumerate every legal divisor-based tile of `layer` on `cfg`,
     * plus the greedy mapper's tile, deduplicated and in a
     * deterministic order. Only dense-controller layer kinds
     * (Convolution, Linear, Gemm) have a tile space; FatalError
     * otherwise.
     */
    static std::vector<Tile> enumerate(const LayerSpec &layer,
                                       const HardwareConfig &cfg);

    /** The divisors of v in increasing order. */
    static std::vector<index_t> divisors(index_t v);
};

} // namespace stonne::explore

#endif // STONNE_EXPLORE_TILE_SPACE_HPP
