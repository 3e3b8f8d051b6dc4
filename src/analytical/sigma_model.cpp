#include "analytical/sigma_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "network/dn.hpp"

namespace stonne::analytical {

cycle_t
sigmaCycles(index_t m, index_t n, index_t k, index_t total_nnz,
            const HardwareConfig &cfg)
{
    fatalIf(m <= 0 || n <= 0 || k <= 0, "GEMM dims must be positive");
    fatalIf(total_nnz < 0 || total_nnz > m * k,
            "nnz out of range for an ", m, "x", k, " matrix");
    if (total_nnz == 0)
        return 1;

    // Uniform-density assumption: every row has the average size, and
    // whole rows pack per round (SIGMA maps entire filters; only
    // oversized rows fold). The real distribution of zeros makes the
    // actual packing diverge from this — the Figure 1c effect.
    const double avg_nnz =
        static_cast<double>(total_nnz) / static_cast<double>(m);
    const auto rows_per_round = std::max<index_t>(
        1, static_cast<index_t>(static_cast<double>(cfg.ms_size) /
                                std::max(1.0, avg_nnz)));
    const index_t rounds = (m + rows_per_round - 1) / rows_per_round;
    const auto nnz_per_round = static_cast<index_t>(
        std::ceil(avg_nnz * static_cast<double>(rows_per_round)));

    // Per round: the stationary load streams the mapped non-zeros, then
    // every output column needs at most the K distinct streaming values
    // (perfect multicast across rows).
    const auto load = static_cast<cycle_t>(
        (nnz_per_round + cfg.dn_bandwidth - 1) / cfg.dn_bandwidth);
    const index_t union_k = std::min(k, nnz_per_round);
    const auto per_col = static_cast<cycle_t>(
        std::max<index_t>(1, (union_k + cfg.dn_bandwidth - 1) /
                             cfg.dn_bandwidth));

    const cycle_t fill =
        static_cast<cycle_t>(
            DistributionNetwork::levels(DnType::Benes, cfg.ms_size)) +
        static_cast<cycle_t>(log2Ceil(cfg.ms_size)) + 1;

    return static_cast<cycle_t>(rounds) *
        (load + static_cast<cycle_t>(n) * per_col) + fill;
}

} // namespace stonne::analytical
