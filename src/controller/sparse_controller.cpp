#include "controller/sparse_controller.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hpp"
#include "engine/event_engine.hpp"
#include "network/dn_benes.hpp"
#include "tensor/kernels.hpp"

namespace stonne {

namespace {

/**
 * c = a * b, each (r, j) sum from +0 over row r's non-zeros in order
 * (the SpMM's functional result; fully pruned rows emit zeros).
 */
void
reduceRows(const CsrMatrix &a, MatrixView b, float *c)
{
    const index_t n = b.cols, k = a.cols;
    const auto ptr = [&](index_t r) {
        return a.row_ptr[static_cast<std::size_t>(r)];
    };
    // A row that lists every column in order is a dense row of A, read
    // in place from the values: its terms are the dense block's, in the
    // same order, whatever B holds. Pruned rows never qualify.
    const bool blocks = kernels::denseBlocks();
    const auto full = [&](index_t r) {
        if (!blocks || k == 0 || ptr(r + 1) - ptr(r) != k)
            return false;
        for (index_t p = 0; p < k; ++p)
            if (a.col_idx[static_cast<std::size_t>(ptr(r) + p)] != p)
                return false;
        return true;
    };
    for (index_t r = 0; r < a.rows;) {
        // The other rows one register block of columns at a time, so
        // the block's strip of B stays in cache across all of them.
        const index_t s0 = r;
        while (r < a.rows && !full(r))
            ++r;
        for (index_t j0 = 0; r > s0 && j0 < n;
             j0 += kernels::kRowBlockCols) {
            const index_t nj = std::min(kernels::kRowBlockCols, n - j0);
            for (index_t i = s0; i < r; ++i)
                kernels::sparseRowTimesPanel(
                    c + i * n + j0, nj, a.col_idx.data() + ptr(i),
                    a.values.data() + ptr(i), ptr(i + 1) - ptr(i),
                    b.data + j0, n);
        }
        // A run of full rows, 256 columns of B at a time, so that
        // strip stays in cache across the run's row blocks.
        const index_t d0 = r;
        while (r < a.rows && full(r))
            ++r;
        for (index_t j0 = 0; r > d0 && j0 < n; j0 += 256)
            kernels::denseBlock(c + d0 * n + j0, n, r - d0,
                                std::min<index_t>(256, n - j0),
                                a.values.data() + ptr(d0), k, b.data + j0,
                                n);
    }
}

} // namespace

SparseController::SparseController(const HardwareConfig &cfg,
                                   EventEngine &engine,
                                   DistributionNetwork &dn,
                                   MultiplierArray &mn, ReductionNetwork &rn,
                                   GlobalBuffer &gb, Dram &dram,
                                   Watchdog *watchdog, FaultInjector *faults,
                                   Tracer *trace)
    : cfg_(cfg), engine_(engine), dn_(dn), mn_(mn), rn_(rn), gb_(gb),
      dram_(dram), wd_(watchdog), faults_(faults), trace_(trace)
{
    cfg_.validate();
    fatalIf(cfg_.controller_type != ControllerType::Sparse,
            "sparse controller instantiated for a ",
            controllerTypeName(cfg_.controller_type), " configuration");
    fatalIf(!rn.supportsVariableClusters(),
            "the sparse controller needs a cluster-capable RN");
}

void
SparseController::setPhase(const char *phase)
{
    if (phase_.set(phase) && trace_ != nullptr)
        trace_->setPhase(phase);
}

ControllerResult
SparseController::runSpMM(const CsrMatrix &a, const Tensor &b, Tensor &c,
                          SchedulingPolicy policy,
                          bool skip_zero_activations, std::uint64_t seed)
{
    fatalIf(b.rank() != 2 || b.dim(0) != a.cols,
            "SpMM operand B shape mismatch");
    fatalIf(!c.empty() &&
                (c.rank() != 2 || c.dim(0) != a.rows ||
                 c.dim(1) != b.dim(1)),
            "SpMM output shape mismatch");
    return runSpMM(a, b.asMatrix(b.dim(0), b.dim(1)),
                   c.empty() ? nullptr : c.data(), policy,
                   skip_zero_activations, seed);
}

ControllerResult
SparseController::runSpMM(const CsrMatrix &a, MatrixView b, float *c,
                          SchedulingPolicy policy,
                          bool skip_zero_activations, std::uint64_t seed)
{
    panicIf(b.rows != a.cols, "SpMM operand B shape mismatch");
    panicIf(b.data == nullptr && (c != nullptr || skip_zero_activations),
            "SpMM operand B is read but not given");

    const index_t n = b.cols;
    const index_t bpe = bytesPerElement(cfg_.data_type);

    ControllerResult res;
    const count_t mem0 = gb_.totalReads() + gb_.totalWrites();
    const count_t mult0 = mn_.multOps();

    rounds_ = packRounds(rowNnzSizes(a), cfg_.ms_size, policy, seed);

    // Stage the compressed stationary operand and the first streaming
    // slice: traffic accounted, cycles hidden by the double-buffered
    // prefetch as in the paper's HBM2 configuration.
    (void)dram_.transferCycles(
        std::min(a.storageBytes(bpe) + b.rows * n * bpe,
                 gb_.capacityElements() * bpe));

    // Pipeline fill: one traversal of the DN plus the deepest reduction.
    index_t dn_levels = 1;
    if (auto *benes = dynamic_cast<BenesDistributionNetwork *>(&dn_))
        dn_levels = benes->levels();
    const cycle_t fill = static_cast<cycle_t>(dn_levels) +
        static_cast<cycle_t>(rn_.latency(cfg_.ms_size)) + 1;
    res.cycles += fill;
    setPhase("pipeline fill");
    if (trace_ != nullptr)
        trace_->advance(fill);

    // Fault injection consumes a seeded RNG stream per cycle, so any
    // attached injector forces the exact per-cycle loops.

    // The union is only counted, or scanned for non-zero activations, so
    // its order is free: a column joins it the first time a round meets
    // it, found by a mark array stamped with the round's generation.
    // Every column is written at slot union_len, which only advances
    // past new ones, so the scan does not branch; union_k has room for
    // all of a round's round.nnz columns.
    std::vector<index_t> union_k;
    std::vector<std::uint32_t> seen(static_cast<std::size_t>(a.cols), 0);
    std::uint32_t generation = 0;
    panicIf(rounds_.size() >= UINT32_MAX, "SpMM of ", rounds_.size(),
            " rounds overflows the union's generation stamps");
    for (const SparseRound &round : rounds_) {
        // Stationary non-zeros enter through the Benes (unicast).
        setPhase("stationary nnz load");
        res.cycles += engine_.deliver(dn_, gb_, round.nnz, 1,
                                      PackageKind::Weight);

        // Streaming operands: the union of column indices the mapped
        // segments need; shared indices are multicast.
        if (union_k.size() < static_cast<std::size_t>(round.nnz))
            union_k.resize(static_cast<std::size_t>(round.nnz));
        index_t union_len = 0;
        ++generation;
        index_t completions = 0;
        for (const SparseSegment &seg : round.segments) {
            const index_t base =
                a.row_ptr[static_cast<std::size_t>(seg.row)] + seg.begin;
            for (index_t i = 0; i < seg.len; ++i) {
                const index_t k =
                    a.col_idx[static_cast<std::size_t>(base + i)];
                std::uint32_t &stamp = seen[static_cast<std::size_t>(k)];
                union_k[static_cast<std::size_t>(union_len)] = k;
                union_len += stamp != generation;
                stamp = generation;
            }
            if (seg.last)
                ++completions;
        }

        const auto column = [&](index_t j) {
            index_t needed = union_len;
            index_t fired = round.nnz;
            if (skip_zero_activations) {
                // Column j of B, strided by n — raw access keeps the
                // per-operand zero scan off the at() bounds checks.
                const float *bcol = b.data + j;
                needed = 0;
                for (index_t u = 0; u < union_len; ++u) {
                    const index_t k = union_k[static_cast<std::size_t>(u)];
                    if (bcol[k * n] != 0.0f)
                        ++needed;
                }
                fired = 0;
                for (const SparseSegment &seg : round.segments) {
                    const index_t base =
                        a.row_ptr[static_cast<std::size_t>(seg.row)] +
                        seg.begin;
                    for (index_t i = 0; i < seg.len; ++i) {
                        const index_t k = a.col_idx[
                            static_cast<std::size_t>(base + i)];
                        if (bcol[k * n] != 0.0f)
                            ++fired;
                    }
                }
                res.skipped_macs +=
                    static_cast<count_t>(round.nnz - fired);
            }

            setPhase("streaming operand multicast");
            const cycle_t dl = engine_.deliver(dn_, gb_, needed, 1,
                                               PackageKind::Input);
            setPhase("output drain");
            const cycle_t drain = engine_.drain(gb_, completions);

            mn_.fireMultipliers(std::min(fired, cfg_.ms_size));
            res.macs += static_cast<count_t>(fired);
            for (const SparseSegment &seg : round.segments)
                rn_.reduceCluster(std::max<index_t>(1, seg.len));
            rn_.accumulate(
                static_cast<index_t>(round.segments.size()) - completions);

            res.cycles += std::max<cycle_t>({1, dl, drain});
        };

        // Without activation skipping every column of a round is the
        // same step, so the engine replays columns 1..n-1 of column 0.
        index_t j = 0;
        if (!skip_zero_activations && n > 1) {
            const EventEngine::Mark mark = engine_.mark();
            const cycle_t cycles0 = res.cycles;
            const count_t macs0 = res.macs;
            column(j++);
            const auto times = static_cast<count_t>(n - 1);
            if (engine_.replay(mark, times)) {
                res.cycles += times * (res.cycles - cycles0);
                res.macs += times * (res.macs - macs0);
                j = n;
            }
        }
        for (; j < n; ++j)
            column(j);
    }

    // Functional results in canonical CSR order (bit-exact against the
    // reference SpMM): every (r, j) sum runs from +0 over row r's
    // non-zeros in order; fully pruned rows emit zeros.
    setPhase("functional reduce");
    if (c != nullptr)
        reduceRows(a, b, c);

    res.mem_accesses = gb_.totalReads() + gb_.totalWrites() - mem0;
    res.ms_utilization = res.cycles > 0
        ? static_cast<double>(mn_.multOps() - mult0) /
          (static_cast<double>(cfg_.ms_size) *
           static_cast<double>(res.cycles))
        : 0.0;
    setPhase("idle");
    return res;
}

ControllerResult
SparseController::runSpMM(const BitmapMatrix &a, const Tensor &b, Tensor &c,
                          SchedulingPolicy policy,
                          bool skip_zero_activations, std::uint64_t seed)
{
    // The bitmap front door shares the CSR datapath: presence bits are
    // decoded into (row, col) coordinates at the memory controller.
    return runSpMM(CsrMatrix::fromDense(a.toDense()), b, c, policy,
                   skip_zero_activations, seed);
}

ControllerResult
SparseController::runSpMMDense(const Tensor &a, const Tensor &b, Tensor &c,
                               SchedulingPolicy policy,
                               bool skip_zero_activations,
                               std::uint64_t seed)
{
    return runSpMM(stationary(a), b, c, policy, skip_zero_activations,
                   seed);
}

CsrMatrix
SparseController::stationary(const Tensor &a) const
{
    fatalIf(a.rank() != 2, "SpMM dense operand must be rank-2");
    // The bitmap format's presence bits decode into the same CSR
    // datapath at the memory controller.
    if (cfg_.sparse_format == SparseFormat::Bitmap)
        return CsrMatrix::fromDense(BitmapMatrix::fromDense(a).toDense());
    return CsrMatrix::fromDense(a);
}

} // namespace stonne
