/**
 * @file
 * Output-stationary systolic array — the TPU-like rigid substrate.
 *
 * Operands enter skewed along the west (matrix A rows) and north (matrix
 * B columns) edges through the point-to-point distribution links, hop
 * between neighbouring PEs on the linear multiplier network's forwarding
 * links, and accumulate in place (output-stationary dataflow, like
 * ShiDianNao and the OS-configured TPU the paper validates against).
 * Results drain through the linear reduction chain.
 *
 * The wavefront is regular, so the array is modelled in closed form per
 * tile of (m_t x n_t) outputs over K rather than PE by PE:
 *  - the compute wavefront takes K + m_t + n_t - 2 cycles; a constant
 *    4-cycle injection/drain register overhead per tile reproduces the
 *    RTL behaviour of the SCALE-Sim validation array (Table V: per-tile
 *    cost K + ar + ac + 2);
 *  - every PE fires K times (m_t n_t K MACs), the edges inject
 *    K (m_t + n_t) operands (GB reads, DN packages), operands hop
 *    K (m_t (n_t - 1) + (m_t - 1) n_t) forwarding links, and m_t n_t
 *    results drain into the GB;
 *  - each output is accumulated from +0 in ascending K, as its PE does,
 *    so the outputs are bit-identical to stepping the wavefront.
 * The GB read and PoPN bandwidth checks are raised against the tile's
 * peak per-cycle edge demand, and the per-cycle budgets are left as the
 * final cycle leaves them.
 */

#ifndef STONNE_NETWORK_SYSTOLIC_HPP
#define STONNE_NETWORK_SYSTOLIC_HPP

#include <functional>

#include "mem/global_buffer.hpp"
#include "network/dn.hpp"
#include "network/mn_array.hpp"
#include "network/rn_linear.hpp"
#include "tensor/tensor.hpp"

namespace stonne {

/** Columns [j0, j0 + nj) of a (K x N) operand: row kk at data + kk * ld. */
struct ColumnPanel {
    const float *data;
    index_t ld;
};

/**
 * Produces the column panel [j0, j0 + nj) of a GEMM operand on demand,
 * so an operand such as an im2col patch matrix need never be stored
 * whole. The panel stays valid until the next call.
 */
using PanelSource = std::function<ColumnPanel(index_t j0, index_t nj)>;

/**
 * The functional product c = a * b of every fabric's lowered GEMM, into
 * the row-major (a.rows x n) c: each c(i,j) accumulated from +0.0f in
 * ascending k, the order the PE at (i,j) accumulates it in, so it is
 * bit-identical to the array. B comes SystolicArray::kPanelCols columns
 * at a time; each row of A is listed once per panel and run over it by
 * kernels::sparseRowTimesPanel. `b_finite` says B holds no inf or NaN,
 * which lets the zero (pruned) entries of A be skipped.
 */
void orderedGemm(MatrixView a, index_t n, const PanelSource &b,
                 bool b_finite, float *c);

/** Result of one systolic GEMM execution. */
struct SystolicResult {
    cycle_t cycles = 0;
    count_t macs = 0;
    index_t tiles = 0;
};

/** Output-stationary systolic array of rows x cols PEs. */
class SystolicArray
{
  public:
    /**
     * @param rows PE rows (A-row direction)
     * @param cols PE columns (B-column direction)
     * @param dn point-to-point injection links (stats)
     * @param mn multiplier array (stats)
     * @param rn linear reduction chain (stats)
     * @param gb global buffer (bandwidth + access accounting)
     */
    SystolicArray(index_t rows, index_t cols, DistributionNetwork &dn,
                  MultiplierArray &mn, LinearReductionNetwork &rn,
                  GlobalBuffer &gb);

    /**
     * Run C = A * B.
     * @param a (M x K); @param b (K x N); @param c out, (M x N)
     */
    SystolicResult run(const Tensor &a, const Tensor &b, Tensor &c);

    /**
     * Run C = A * B with A read in place, the (K x n) B taken
     * kPanelCols columns at a time and C the row-major (M x n) c (see
     * orderedGemm). The timing reads only the shapes: with a null c the
     * product is skipped, and a.data and b need not be given.
     */
    SystolicResult run(MatrixView a, index_t n, const PanelSource &b,
                       bool b_finite, float *c);

    /** Column panels of a stored (K x N) matrix, read in place; `b`
     *  must outlive the source. */
    static PanelSource panelsOf(const Tensor &b);

    /** Columns of B the functional GEMM takes at a time. */
    static constexpr index_t kPanelCols = 256;

    index_t rows() const { return rows_; }
    index_t cols() const { return cols_; }

    /** Register-stage overhead added per tile (injection + drain). */
    static constexpr index_t kTileOverhead = 4;

  private:
    /** Account one (mt x nt) tile over k; returns its cycles. */
    cycle_t accountTile(index_t mt, index_t nt, index_t k, count_t &macs);

    index_t rows_;
    index_t cols_;
    DistributionNetwork &dn_;
    MultiplierArray &mn_;
    LinearReductionNetwork &rn_;
    GlobalBuffer &gb_;
};

} // namespace stonne

#endif // STONNE_NETWORK_SYSTOLIC_HPP
