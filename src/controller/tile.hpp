/**
 * @file
 * Tile: the fixed compute partition the dense controller orchestrates.
 *
 * The paper defines Tile(T_R, T_S, T_C, T_G, T_K, T_N, T_X', T_Y') where
 * T_R x T_S x T_C is the slice of the filter mapped to one cluster (the
 * dot-product / virtual-neuron size) and T_G x T_K x T_N x T_X' x T_Y' is
 * the number of clusters mapped simultaneously. When the cluster is
 * smaller than the filter, folding iterates the cluster over the filter
 * and psums accumulate at inter-step boundaries (Section IV-B).
 */

#ifndef STONNE_CONTROLLER_TILE_HPP
#define STONNE_CONTROLLER_TILE_HPP

#include <cstddef>
#include <functional>
#include <string>

#include "controller/layer.hpp"

namespace stonne {

/** Fixed tile partition for the dense memory controller. */
struct Tile {
    index_t t_r = 1;  //!< filter rows per cluster
    index_t t_s = 1;  //!< filter columns per cluster
    index_t t_c = 1;  //!< channels per cluster
    index_t t_g = 1;  //!< groups in parallel
    index_t t_k = 1;  //!< filters in parallel
    index_t t_n = 1;  //!< batch elements in parallel
    index_t t_x = 1;  //!< output rows in parallel (T_X')
    index_t t_y = 1;  //!< output columns in parallel (T_Y')

    /** Cluster (virtual neuron) size: the mapped dot-product length. */
    index_t vnSize() const { return t_r * t_s * t_c; }

    /** Clusters mapped simultaneously. */
    index_t numVns() const { return t_g * t_k * t_n * t_x * t_y; }

    /** Multiplier switches the tile occupies. */
    index_t usedMs() const { return vnSize() * numVns(); }

    /** Folding steps needed to cover a window of `window` elements. */
    index_t
    folds(index_t window) const
    {
        const index_t vn = vnSize();
        return (window + vn - 1) / vn;
    }

    /** Validate against a layer and an array size (FatalError on abuse). */
    void validate(const LayerSpec &layer, index_t ms_size) const;

    std::string toString() const;

    /**
     * Canonical key form: the eight dimensions in declaration order,
     * 'x'-separated ("1x1x64x1x4x1x1x1"). Stable across builds and
     * platforms — two tiles compare equal iff their canonical forms are
     * byte-identical, which makes this the tile component of
     * content-addressed cache keys (src/explore).
     */
    std::string canonical() const;

    /** Dimension-wise equality (the same partition of the array). */
    bool operator==(const Tile &o) const = default;
};

} // namespace stonne

/**
 * Stable hash over the eight dimensions (FNV-1a, 64-bit folded to
 * size_t): deterministic across runs and platforms, unlike the
 * implementation-defined std::hash<integral> — cache keys and test
 * expectations may depend on it.
 */
template <>
struct std::hash<stonne::Tile> {
    std::size_t
    operator()(const stonne::Tile &t) const noexcept
    {
        std::uint64_t h = 1469598103934665603ull; // FNV offset basis
        const auto mix = [&h](stonne::index_t v) {
            auto u = static_cast<std::uint64_t>(v);
            for (int byte = 0; byte < 8; ++byte) {
                h ^= (u >> (byte * 8)) & 0xffu;
                h *= 1099511628211ull; // FNV prime
            }
        };
        mix(t.t_r);
        mix(t.t_s);
        mix(t.t_c);
        mix(t.t_g);
        mix(t.t_k);
        mix(t.t_n);
        mix(t.t_x);
        mix(t.t_y);
        return static_cast<std::size_t>(h);
    }
};

#endif // STONNE_CONTROLLER_TILE_HPP
