#include "network/systolic.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/logging.hpp"
#include "tensor/kernels.hpp"

namespace stonne {

namespace {

/** Operands a skewed edge of `len` PEs injects in cycle t of a tile
 *  streaming k-long operand vectors: edge PE i injects in [i, i + k). */
index_t
edgeInjections(cycle_t t, index_t len, index_t k)
{
    const auto tt = static_cast<index_t>(t);
    const index_t lo = std::max<index_t>(0, tt - k + 1);
    const index_t hi = std::min(len - 1, tt);
    return std::max<index_t>(0, hi - lo + 1);
}

} // namespace

void
orderedGemm(MatrixView a, index_t n, const PanelSource &b, bool b_finite,
            float *c)
{
    const index_t m = a.rows, k = a.cols;
    // One row of A as (row of B, weight) terms. With B all-finite the
    // zero entries (the pruned weights) are left out: each sum starts at
    // +0 and so is never -0, and adding 0 * (finite b), which is +-0, to
    // it is the identity. 0 * inf and 0 * NaN are NaN, so otherwise
    // every entry stays, read in place. For the same reason a run of
    // rows past the crossover can go through the dense block whole,
    // zeros and all, where this CPU runs it.
    const bool blocks = kernels::denseBlocks();
    std::vector<index_t> cols(static_cast<std::size_t>(k));
    std::vector<float> vals;
    if (b_finite)
        vals.resize(static_cast<std::size_t>(k));
    else
        std::iota(cols.begin(), cols.end(), index_t{0});
    for (index_t j0 = 0; j0 < n; j0 += SystolicArray::kPanelCols) {
        const index_t nj = std::min(SystolicArray::kPanelCols, n - j0);
        const ColumnPanel panel = b(j0, nj);
        // Rows [i - run, i) wait for the dense block.
        index_t run = 0;
        const auto flush = [&](index_t end) {
            if (run > 0)
                kernels::denseBlock(c + (end - run) * n + j0, n, run, nj,
                                    a.data + (end - run) * k, k,
                                    panel.data, panel.ld);
            run = 0;
        };
        for (index_t i = 0; i < m; ++i) {
            const float *arow = a.data + i * k;
            // A row is listed in two parts: its first k / 4 + 1 entries,
            // then the rest. A first part already past the crossover
            // sends the row to the dense block, which reads it in place,
            // without listing the rest; otherwise the whole row is
            // listed and decides.
            index_t nnz = k;
            if (b_finite) {
                const index_t head = std::min(k, k / 4 + 1);
                nnz = kernels::compressNonZeros(arow, head, 0, cols.data(),
                                                vals.data());
                if (!(blocks && kernels::denseRowPays(nnz, k)))
                    nnz += kernels::compressNonZeros(
                        arow + head, k - head, head, cols.data() + nnz,
                        vals.data() + nnz);
            }
            if (blocks && kernels::denseRowPays(nnz, k)) {
                ++run;
                continue;
            }
            flush(i);
            kernels::sparseRowTimesPanel(c + i * n + j0, nj, cols.data(),
                                         b_finite ? vals.data() : arow,
                                         nnz, panel.data, panel.ld);
        }
        flush(m);
    }
}

SystolicArray::SystolicArray(index_t rows, index_t cols,
                             DistributionNetwork &dn, MultiplierArray &mn,
                             LinearReductionNetwork &rn, GlobalBuffer &gb)
    : rows_(rows), cols_(cols), dn_(dn), mn_(mn), rn_(rn), gb_(gb)
{
    fatalIf(rows <= 0 || cols <= 0, "systolic array needs positive dims");
    fatalIf(dn.type() != DnType::PointToPoint,
            "systolic array needs point-to-point DN links");
    fatalIf(rows * cols != dn.msSize(),
            "systolic array size ", rows * cols,
            " does not match the DN endpoint count ", dn.msSize());
}

cycle_t
SystolicArray::accountTile(index_t mt, index_t nt, index_t k,
                           count_t &macs)
{
    // Compute wavefront: the last product fires at PE (mt-1, nt-1) in
    // cycle (k - 1) + (mt - 1) + (nt - 1).
    const cycle_t compute_cycles = static_cast<cycle_t>(k + mt + nt - 2);

    // Edge injections per cycle peak once both skewed edges are full.
    const index_t peak = k > 0 ? std::min(mt, k) + std::min(nt, k) : 0;
    if (peak > gb_.readBandwidth() || peak > dn_.bandwidth()) {
        // Replay the peak cycle operand by operand, so the GB or the
        // PoPN raises its own panic.
        gb_.nextCycle();
        dn_.cycle();
        for (index_t e = 0; e < peak; ++e) {
            gb_.read();
            panicIf(dn_.injectBulk(1, 1) != 1,
                    "systolic edge injection rejected");
        }
    }

    // Each A row and B column element enters the array once; operands
    // hop (m_t (n_t-1) + (m_t-1) n_t) links each step of k; every PE
    // fires k times.
    const index_t injected = k * (mt + nt);
    const index_t products = mt * nt * k;
    if (compute_cycles > 0) {
        const index_t last = edgeInjections(compute_cycles - 1, mt, k) +
                             edgeInjections(compute_cycles - 1, nt, k);
        gb_.bulkAdvance(compute_cycles - 1, injected - last, 0);
        dn_.bulkAdvance(compute_cycles - 1, injected - last, 1);
        // The final compute cycle leaves the per-cycle budgets as
        // stepping it would.
        gb_.nextCycle();
        gb_.readBulk(last);
        dn_.cycle();
        dn_.injectBulk(last, 1);
        mn_.bulkAdvance(compute_cycles, products);
        mn_.forwardOperandsBulk(
            compute_cycles, static_cast<count_t>(
                                k * (mt * (nt - 1) + (mt - 1) * nt)));
        rn_.accumulate(products);
    }
    macs += static_cast<count_t>(products);

    // Drain the output-stationary accumulators through the linear
    // reduction chain into the GB (covered by the per-tile overhead).
    for (index_t left = mt * nt; left > 0; left -= gb_.writeBulk(left))
        if (!gb_.canWrite())
            gb_.nextCycle();

    return compute_cycles + kTileOverhead;
}

SystolicResult
SystolicArray::run(const Tensor &a, const Tensor &b, Tensor &c)
{
    fatalIf(a.rank() != 2 || b.rank() != 2,
            "systolic GEMM expects rank-2 operands");
    fatalIf(b.dim(0) != a.dim(1), "systolic GEMM inner dimension mismatch");
    fatalIf(c.rank() != 2 || c.dim(0) != a.dim(0) || c.dim(1) != b.dim(1),
            "systolic GEMM output shape mismatch");
    return run(a.asMatrix(a.dim(0), a.dim(1)), b.dim(1), panelsOf(b),
               b.allFinite(), c.data());
}

SystolicResult
SystolicArray::run(MatrixView a, index_t n, const PanelSource &b,
                   bool b_finite, float *c)
{
    const index_t m = a.rows, k = a.cols;

    SystolicResult res;
    for (index_t m0 = 0; m0 < m; m0 += rows_) {
        const index_t mt = std::min(rows_, m - m0);
        for (index_t n0 = 0; n0 < n; n0 += cols_) {
            const index_t nt = std::min(cols_, n - n0);
            res.cycles += accountTile(mt, nt, k, res.macs);
            ++res.tiles;
        }
    }
    if (c != nullptr)
        orderedGemm(a, n, b, b_finite, c);
    return res;
}

PanelSource
SystolicArray::panelsOf(const Tensor &b)
{
    return [&b](index_t j0, index_t) {
        return ColumnPanel{b.data() + j0, b.dim(1)};
    };
}

} // namespace stonne
