#include "controller/dense_controller.hpp"

#include <algorithm>
#include <vector>

#include "common/logging.hpp"
#include "controller/delivery.hpp"
#include "controller/step_counts.hpp"
#include "engine/event_engine.hpp"
#include "network/dn_popn.hpp"
#include "network/rn_linear.hpp"
#include "network/systolic.hpp"
#include "tensor/im2col.hpp"
#include "tensor/kernels.hpp"
#include "tensor/reference.hpp"

namespace stonne {

namespace {

index_t
blocks(index_t total, index_t t)
{
    return (total + t - 1) / t;
}

/**
 * A convolution lowered to GEMM (Section IV-B): per group, the (Kg x
 * R*S*Cg) filter matrix, read in place, times the im2col patch matrix,
 * lowered one column panel at a time, plus the bias, scattered back by
 * col2im. `gemm(a, n, b, b_finite, c)` writes one group's row-major (Kg
 * x n) product into c; with one image that is the group's slice of the
 * output itself, so no result matrix is staged. A 1x1, stride-1,
 * unpadded convolution of one image (MAERI's GEMMs and linear layers
 * among them) has the group's input channels as its patch matrix, so
 * its panels are read in place too.
 */
template <class Gemm>
void
lowerConv(const Conv2dShape &shape, const Tensor &input,
          const Tensor &weights, const Tensor &bias, Tensor &output,
          Gemm &&gemm)
{
    const index_t kg = shape.kPerGroup();
    const index_t window = shape.R * shape.S * shape.cPerGroup();
    const index_t cols = shape.N * shape.outX() * shape.outY();
    const MatrixView filters = weights.asMatrix(shape.K, window);
    fatalIf(!bias.empty() && bias.size() != shape.K, "convolution bias of ",
            bias.size(), " values for ", shape.K, " filters");
    // Patch-matrix entries are input values or padding zeros.
    const bool finite = input.allFinite();
    const bool in_place = shape.N == 1;
    const bool patches_are_input = in_place && shape.R == 1 &&
        shape.S == 1 && shape.stride == 1 && shape.padding == 0 &&
        input.shape() ==
            std::vector<index_t>{shape.N, shape.C, shape.X, shape.Y};
    std::vector<float> panel;
    std::vector<float> result(
        static_cast<std::size_t>(in_place ? 0 : kg * cols));
    for (index_t g = 0; g < shape.G; ++g) {
        // The filters are stored flattened: group g's filter matrix is
        // rows [g Kg, (g+1) Kg) of the (K x R*S*C/G) weights.
        const MatrixView a{filters.data + g * kg * window, kg, window};
        // Group g's patch matrix: its Cg input channels, X*Y apart.
        const float *patches =
            patches_are_input ? input.data() + g * window * cols : nullptr;
        const PanelSource b = [&](index_t j0, index_t nj) {
            if (patches)
                return ColumnPanel{patches + j0, cols};
            panel.resize(static_cast<std::size_t>(window * nj));
            im2colInto(input, shape, g, j0, nj, panel.data(), nj);
            return ColumnPanel{panel.data(), nj};
        };
        float *c = in_place ? output.data() + g * kg * cols : result.data();
        gemm(a, cols, b, finite, c);
        if (!bias.empty()) {
            const float *bg = bias.data() + g * kg;
            for (index_t k = 0; k < kg; ++k)
                kernels::addScalar(c + k * cols, bg[k], cols);
        }
        if (!in_place)
            col2imFrom(c, cols, shape, g, output);
    }
}

/**
 * The flexible fabric's functional convolution. Every output is the
 * sum, from +0 in ascending (c, r, s) order, of w * in over its
 * in-bounds window terms, plus the bias: the lowered GEMM computes
 * exactly that, since a padding zero adds w * 0 = +-0 to a sum that is
 * never -0. An inf or NaN weight would make that term NaN, so then the
 * direct reference, which skips padding taps, computes the same sums
 * instead.
 */
void
flexibleConvOutput(const Conv2dShape &shape, const Tensor &input,
                   const Tensor &weights, const Tensor &bias,
                   Tensor &output)
{
    if (weights.allFinite()) {
        lowerConv(shape, input, weights, bias, output, orderedGemm);
    } else {
        output = ref::conv2d(
            input.reshaped({shape.N, shape.C, shape.X, shape.Y}),
            weights.reshaped({shape.K, shape.cPerGroup(), shape.R,
                              shape.S}),
            bias, shape);
    }
}

} // namespace

DenseController::DenseController(const HardwareConfig &cfg,
                                 EventEngine &engine,
                                 DistributionNetwork &dn,
                                 MultiplierArray &mn, ReductionNetwork &rn,
                                 GlobalBuffer &gb, Dram &dram,
                                 Watchdog *watchdog, FaultInjector *faults,
                                 Tracer *trace)
    : cfg_(cfg), engine_(engine), dn_(dn), mn_(mn), rn_(rn), gb_(gb),
      dram_(dram), wd_(watchdog), faults_(faults), trace_(trace),
      mapper_(cfg.ms_size)
{
    cfg_.validate();
}

void
DenseController::setPhase(const char *phase)
{
    if (phase_.set(phase) && trace_ != nullptr)
        trace_->setPhase(phase);
}

void
DenseController::traceAdvance(cycle_t cycles)
{
    if (trace_ != nullptr && cycles > 0)
        trace_->advance(cycles);
}

ControllerResult
DenseController::runConvFlexible(const Conv2dShape &shape, const Tile &tile,
                                 index_t input_elems)
{
    shape.validate();
    const index_t cg = shape.cPerGroup();
    const index_t kg = shape.kPerGroup();
    const index_t xo = shape.outX();
    const index_t yo = shape.outY();
    const index_t window = shape.R * shape.S * cg;
    const index_t vn = tile.vnSize();
    const index_t folds = tile.folds(window);
    const bool folding = folds > 1;
    const index_t bpe = bytesPerElement(cfg_.data_type);

    ControllerResult res;
    const count_t mem0 = gb_.totalReads() + gb_.totalWrites();
    const count_t mult0 = mn_.multOps();

    const index_t nbx = blocks(xo, tile.t_x);
    const index_t nby = blocks(yo, tile.t_y);
    const index_t nbn = blocks(shape.N, tile.t_n);
    const index_t total_steps = nbn * nbx * nby;

    // Loop order follows the configured dataflow (Section IV-B):
    //  - OS: position chunks sized to the accumulator, so psums stay at
    //    the collection point until complete.
    //  - WS: each weight fold streams over ALL positions before the
    //    next fold loads — weights are fetched exactly once, but psums
    //    beyond the accumulator capacity round-trip through the GB.
    //  - IS: like OS, but activations stay resident in the array across
    //    filter blocks; only the first filter block fetches them.
    const index_t outs_per_step = tile.numVns();
    index_t steps_per_chunk = total_steps;
    if (folding && rn_.supportsAccumulation() &&
        cfg_.dataflow != Dataflow::WeightStationary) {
        steps_per_chunk = std::max<index_t>(
            1, cfg_.accumulator_size / outs_per_step);
    }
    // Psums spill to the GB when they outlive the accumulator: always
    // for the plain ART+DIST, and for WS whenever a fold's outputs
    // exceed the buffer.
    const bool psum_spill = folding &&
        (!rn_.supportsAccumulation() ||
         (cfg_.dataflow == Dataflow::WeightStationary &&
          steps_per_chunk * outs_per_step > cfg_.accumulator_size));
    const bool input_stationary =
        cfg_.dataflow == Dataflow::InputStationary;


    // Stage the input activations: traffic is accounted, but the
    // cycles are hidden by the double-buffered prefetch (the previous
    // layer's execution overlaps the first tile's transfer).
    setPhase("dram staging");
    (void)dram_.transferCycles(
        std::min(input_elems, gb_.capacityElements() / 2) * bpe);

    // Operand counts per (fold, x block, y block), shared by every
    // group, batch and filter block.
    const std::vector<StepCounts> counts = stepCounts(shape, tile, window);
    cycle_t prev_block_cycles = 0;

    // Pipeline fill: the multiply/reduce/collect pipeline fills once and
    // stays full across folds and filter blocks (weights and operands
    // stream continuously).
    const cycle_t fill = 1 +
        static_cast<cycle_t>(rn_.latency(std::min(vn, window))) + 1;
    res.cycles += fill;
    setPhase("pipeline fill");
    traceAdvance(fill);

    // Weight reconfiguration is double-buffered: the next fold's
    // weights stream while the current fold computes, so only the
    // excess over the previous fold's compute time is exposed.
    cycle_t prev_fold_cycles = 0;

    // Filter blocks run in (group, filter) order. A block's steps
    // depend only on its shape — (tg, tk, whether IS pins its inputs) —
    // and on prev_fold_cycles and prev_block_cycles. A block that
    // leaves those two as it found them is therefore repeated step for
    // step by every following block of its shape, and the engine
    // replays those instead of stepping them.
    struct BlockShape
    {
        index_t tg, tk;
        bool pinned;
        bool operator==(const BlockShape &) const = default;
    };
    const index_t nbk = blocks(kg, tile.t_k);
    const index_t nblocks = blocks(shape.G, tile.t_g) * nbk;
    const auto block_shape = [&](index_t b) {
        const index_t g0 = b / nbk * tile.t_g;
        const index_t k0 = b % nbk * tile.t_k;
        return BlockShape{std::min(tile.t_g, shape.G - g0),
                          std::min(tile.t_k, kg - k0),
                          input_stationary && k0 > 0};
    };

    for (index_t b = 0; b < nblocks; ++b) {
        const BlockShape bs = block_shape(b);
        const index_t tg = bs.tg;
        const index_t tk = bs.tk;
        const EventEngine::Mark mark = engine_.mark();
        const cycle_t entry_fold_cycles = prev_fold_cycles;
        const cycle_t entry_block_cycles = prev_block_cycles;
        const cycle_t cycles0 = res.cycles;
        const count_t macs0 = res.macs;
        cycle_t block_cycles = 0;

        // Next weight tile staged from the DRAM prefetch stream
        // behind the previous block's compute.
        const cycle_t stall = dram_.streamingStall(
            tg * tk * window * bpe, prev_block_cycles);
        res.cycles += stall;
        if (stall > 0) {
            setPhase("dram staging");
            traceAdvance(stall);
        }

        for (index_t chunk0 = 0; chunk0 < total_steps;
             chunk0 += steps_per_chunk) {
            const index_t chunk_len =
                std::min(steps_per_chunk, total_steps - chunk0);
            index_t chunk_outputs = 0;

            for (index_t f = 0; f < folds; ++f) {
                const index_t e0 = f * vn;
                const index_t len = std::min(vn, window - e0);

                // Weight reconfiguration: tg*tk*len distinct values,
                // multicast across the position clusters; only the
                // part the previous fold's compute could not hide
                // is exposed.
                setPhase("weight fold delivery");
                const cycle_t w_cycles = engine_.deliver(
                    dn_, gb_, tg * tk * len,
                    tile.t_n * tile.t_x * tile.t_y,
                    PackageKind::Weight);
                block_cycles += w_cycles > prev_fold_cycles
                    ? w_cycles - prev_fold_cycles : 0;
                cycle_t fold_cycles = 0;

                for (index_t si = 0; si < chunk_len; ++si) {
                    const index_t s = chunk0 + si;
                    const index_t yb = s % nby;
                    const index_t xb = (s / nby) % nbx;
                    const index_t nb = s / (nby * nbx);
                    const index_t y0p = yb * tile.t_y;
                    const index_t x0p = xb * tile.t_x;
                    const index_t n0p = nb * tile.t_n;
                    const index_t ty = std::min(tile.t_y, yo - y0p);
                    const index_t tx = std::min(tile.t_x, xo - x0p);
                    const index_t tn =
                        std::min(tile.t_n, shape.N - n0p);

                    // In-bounds input operands of this fold slice
                    // across all mapped positions. Filters share
                    // inputs (multicast across tk), but position
                    // lanes map an element to different leaf
                    // offsets, so each lane fetches its own copy.
                    const StepCounts &sc =
                        counts[static_cast<std::size_t>(
                            (f * nbx + xb) * nby + yb)];
                    const index_t distinct = tg * tn * sc.delivered;

                    // Spatio-temporal reuse over the LMN forwarding
                    // links: operands already in the array from the
                    // previous step reach their consumer through
                    // neighbour links instead of the GB.
                    index_t fresh = distinct;
                    if (bs.pinned) {
                        // IS dataflow: this position chunk's inputs
                        // were pinned by the first filter block.
                        fresh = 0;
                    } else if (mn_.hasForwardingLinks() && si > 0 &&
                               yb > 0) {
                        fresh = tg * tn * sc.fresh;
                        mn_.forwardOperands(distinct - fresh);
                    }

                    setPhase("input streaming");
                    cycle_t dl = engine_.deliver(dn_, gb_, fresh, tk,
                                                 PackageKind::Input);

                    const index_t active_vns = tg * tk * tn * tx * ty;
                    mn_.fireMultipliers(
                        std::min(active_vns * len, cfg_.ms_size));
                    res.macs +=
                        static_cast<count_t>(active_vns * len);
                    rn_.bulkReduce(active_vns, len);

                    cycle_t drain = 0;
                    if (folding) {
                        if (!psum_spill) {
                            rn_.accumulate(active_vns);
                        } else {
                            // ART+DIST or an overflowing WS fold:
                            // psums round-trip through the GB and
                            // re-enter via the MN forwarders.
                            setPhase("psum spill");
                            drain = engine_.drain(gb_, active_vns);
                            mn_.forwardPsums(active_vns);
                            if (f > 0)
                                dl += engine_.deliver(
                                    dn_, gb_, active_vns, 1,
                                    PackageKind::Psum);
                        }
                    } else {
                        setPhase("output drain");
                        drain = engine_.drain(gb_, active_vns);
                    }
                    if (f + 1 == folds)
                        chunk_outputs += active_vns;

                    fold_cycles += std::max<cycle_t>(
                        {1, dl, drain});
                }
                block_cycles += fold_cycles;
                prev_fold_cycles = fold_cycles;
            }

            if (folding && !psum_spill) {
                setPhase("output drain");
                block_cycles += engine_.drain(gb_, chunk_outputs);
            }
        }

        prev_block_cycles = block_cycles;
        res.cycles += block_cycles;

        if (prev_fold_cycles != entry_fold_cycles ||
            prev_block_cycles != entry_block_cycles)
            continue;
        index_t repeats = 0;
        while (b + 1 + repeats < nblocks &&
               block_shape(b + 1 + repeats) == bs)
            ++repeats;
        if (repeats > 0 &&
            engine_.replay(mark, static_cast<count_t>(repeats))) {
            const auto times = static_cast<count_t>(repeats);
            res.cycles += times * (res.cycles - cycles0);
            res.macs += times * (res.macs - macs0);
            b += repeats;
        }
    }

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
DenseController::runGemmSystolic(MatrixView a, index_t n,
                                 const PanelSource &b, bool b_finite,
                                 float *c)
{
    setPhase("systolic gemm");
    auto *popn = dynamic_cast<PointToPointNetwork *>(&dn_);
    auto *lrn = dynamic_cast<LinearReductionNetwork *>(&rn_);
    fatalIf(!popn || !lrn,
            "the systolic pipeline needs a point-to-point DN and a "
            "linear RN");

    // Square array: ms_size = rows * cols.
    index_t rows = 1;
    while (rows * rows < cfg_.ms_size)
        rows <<= 1;
    const index_t cols = cfg_.ms_size / rows;
    fatalIf(gb_.readBandwidth() < rows + cols,
            "a systolic array requires full edge bandwidth (",
            rows + cols, " elements/cycle), configured ",
            gb_.readBandwidth());

    const count_t mem0 = gb_.totalReads() + gb_.totalWrites();
    const count_t mult0 = mn_.multOps();
    const index_t bpe = bytesPerElement(cfg_.data_type);

    ControllerResult res;
    // Operand staging overlaps the previous operation (double
    // buffering); traffic is still accounted.
    (void)dram_.transferCycles(
        std::min(a.rows * a.cols + a.cols * n, gb_.capacityElements()) *
        bpe);

    SystolicArray array(rows, cols, *popn, mn_, *lrn, gb_);
    // The systolic inner run is closed-form under both engines; its
    // sample boundaries are interpolated like a skipped steady span.
    if (trace_ != nullptr)
        trace_->steadyBegin();
    const SystolicResult sr = array.run(a, n, b, b_finite, c);
    if (trace_ != nullptr)
        trace_->steadyEnd(sr.cycles);
    res.cycles += sr.cycles;
    res.macs = sr.macs;
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
DenseController::runConvSystolic(const Conv2dShape &shape,
                                 const Tensor &input, const Tensor &weights,
                                 const Tensor &bias, Tensor &output)
{
    ControllerResult res;
    if (output.empty()) {
        // Statistics only: each group's GEMM runs without operands.
        const MatrixView a{nullptr, shape.kPerGroup(),
                           shape.R * shape.S * shape.cPerGroup()};
        const index_t n = shape.N * shape.outX() * shape.outY();
        for (index_t g = 0; g < shape.G; ++g)
            res.merge(runGemmSystolic(a, n, PanelSource(), false, nullptr));
        return res;
    }
    lowerConv(shape, input, weights, bias, output,
              [&](MatrixView a, index_t n, const PanelSource &b,
                  bool b_finite, float *c) {
                  res.merge(runGemmSystolic(a, n, b, b_finite, c));
              });
    return res;
}

ControllerResult
DenseController::runConvolution(const LayerSpec &layer, const Tile &tile,
                                const Tensor &input, const Tensor &weights,
                                const Tensor &bias, Tensor &output)
{
    fatalIf(layer.kind != LayerKind::Convolution,
            "runConvolution expects a convolution layer");
    layer.validate();
    const Conv2dShape &c = layer.conv;
    fatalIf(!output.empty() &&
                output.shape() != std::vector<index_t>{c.N, c.K, c.outX(),
                                                       c.outY()},
            "convolution output tensor shape mismatch");

    if (cfg_.dn_type == DnType::PointToPoint)
        return runConvSystolic(c, input, weights, bias, output);

    tile.validate(layer, cfg_.ms_size);
    const ControllerResult r = runConvFlexible(c, tile, input.size());
    if (!output.empty()) {
        setPhase("functional reduce");
        flexibleConvOutput(c, input, weights, bias, output);
        setPhase("idle");
    }
    return r;
}

ControllerResult
DenseController::runGemm(const LayerSpec &layer, const Tile &tile,
                         const Tensor &a, const Tensor &b, Tensor &c)
{
    layer.validate();
    const GemmDims g = layer.gemmView();
    const bool output = !c.empty();
    fatalIf(a.rank() != 2 || a.dim(0) != g.m || a.dim(1) != g.k,
            "GEMM operand A shape mismatch");
    fatalIf((output || !b.empty()) &&
                b.shape() != std::vector<index_t>{g.k, g.n},
            "GEMM operand B shape mismatch");
    fatalIf(output && c.shape() != std::vector<index_t>{g.m, g.n},
            "GEMM output shape mismatch");

    if (cfg_.dn_type == DnType::PointToPoint)
        return runGemmSystolic(
            a.asMatrix(g.m, g.k), g.n,
            output ? SystolicArray::panelsOf(b) : PanelSource(),
            output && b.allFinite(), output ? c.data() : nullptr);

    // Map the GEMM onto the convolution pipeline through its 1x1 view.
    // Tensors alias the GEMM operands (same row-major layout).
    const Conv2dShape shape = gemmAsConv(g);

    Tile conv_tile;
    conv_tile.t_c = tile.t_c;
    conv_tile.t_k = tile.t_k;
    conv_tile.t_y = tile.t_y;

    Tensor out = output ? Tensor({1, g.m, 1, g.n}) : Tensor();
    const ControllerResult r = runConvFlexible(shape, conv_tile, g.k * g.n);
    if (output) {
        setPhase("functional reduce");
        flexibleConvOutput(shape, b.reshaped({1, g.k, 1, g.n}),
                           a.reshaped({g.m, g.k, 1, 1}), Tensor(), out);
        c = out.reshaped({g.m, g.n});
        setPhase("idle");
    }
    return r;
}

ControllerResult
DenseController::runLinear(const LayerSpec &layer, const Tile &tile,
                           const Tensor &input, const Tensor &weights,
                           const Tensor &bias, Tensor &output)
{
    fatalIf(layer.kind != LayerKind::Linear,
            "runLinear expects a linear layer");
    layer.validate();
    const GemmDims g = layer.gemm; // m = out features, n = batch, k = in
    fatalIf(input.rank() != 2 || input.dim(0) != g.n || input.dim(1) != g.k,
            "linear input shape mismatch");
    fatalIf(weights.rank() != 2 || weights.dim(0) != g.m ||
            weights.dim(1) != g.k,
            "linear weight shape mismatch");
    fatalIf(!output.empty() &&
                output.shape() != std::vector<index_t>{g.n, g.m},
            "linear output shape mismatch");

    // B = input^T so columns are batch samples; without an output
    // nothing reads it.
    const LayerSpec as_gemm =
        LayerSpec::gemmLayer(layer.name + ".gemm", g.m, g.n, g.k);
    if (output.empty()) {
        Tensor none;
        return runGemm(as_gemm, tile, weights, Tensor(), none);
    }
    const Tensor b = input.transposed();
    Tensor c({g.m, g.n});
    ControllerResult r = runGemm(as_gemm, tile, weights, b, c);

    linearFromGemm(c, bias, output);
    return r;
}

ControllerResult
DenseController::runMaxPool(const LayerSpec &layer, const Tensor &input,
                            Tensor &output)
{
    fatalIf(layer.kind != LayerKind::MaxPool,
            "runMaxPool expects a max-pooling layer");
    fatalIf(cfg_.dn_type == DnType::PointToPoint,
            "max pooling is not mappable on the systolic composition");
    layer.validate();

    const Conv2dShape &c = layer.conv;
    const index_t w = layer.pool_window;
    const index_t st = layer.pool_stride;
    const index_t xo = (c.X - w) / st + 1;
    const index_t yo = (c.Y - w) / st + 1;
    fatalIf(!output.empty() &&
                output.shape() != std::vector<index_t>{c.N, c.C, xo, yo},
            "max pool output tensor shape mismatch");

    const Tile tile = mapper_.generateTile(layer);
    const index_t vn = tile.t_c;            // window slice per cluster
    const index_t tk = tile.t_k;            // channels in parallel
    const index_t ty = tile.t_y;            // positions in parallel
    const index_t window = w * w;
    const index_t folds = (window + vn - 1) / vn;

    ControllerResult res;
    const count_t mem0 = gb_.totalReads() + gb_.totalWrites();
    const count_t mult0 = mn_.multOps();


    setPhase("max pool streaming");
    const index_t positions = c.N * xo * yo;
    std::vector<std::int64_t> fetch, prev_fetch;
    const auto step_capacity = static_cast<std::size_t>(tk * ty * vn);
    fetch.reserve(step_capacity);
    prev_fetch.reserve(step_capacity);
    // Per-fold offset table: e -> r*Y + s2, shared by every position of
    // the fold (same hoisting as the convolution fetch loop).
    std::vector<index_t> roff;
    roff.reserve(static_cast<std::size_t>(vn));

    for (index_t c0 = 0; c0 < c.C; c0 += tk) {
        const index_t tkc = std::min(tk, c.C - c0);
        const EventEngine::Mark mark = engine_.mark();
        const cycle_t cycles0 = res.cycles;
        bool have_prev = false;
        for (index_t p0 = 0; p0 < positions; p0 += ty) {
            const index_t typ = std::min(ty, positions - p0);
            cycle_t dl_total = 0;
            for (index_t f = 0; f < folds; ++f) {
                const index_t e0 = f * vn;
                const index_t len = std::min(vn, window - e0);
                roff.clear();
                for (index_t e = e0; e < e0 + len; ++e)
                    roff.push_back((e / w) * c.Y + e % w);
                // Sorted and duplicate-free by construction: the lane
                // tag ascends over the (ch, p) nest; within a lane every
                // window coordinate is in bounds (pooling never pads),
                // so an s2 step adds 1 and an r step adds Y - (w-1) >= 1
                // (the window fits: w <= Y).
                fetch.clear();
                index_t lane = 0;
                for (index_t ch = c0; ch < c0 + tkc; ++ch) {
                    for (index_t p = p0; p < p0 + typ; ++p, ++lane) {
                        const index_t n = p / (xo * yo);
                        const index_t ox = (p / yo) % xo;
                        const index_t oy = p % yo;
                        const index_t base =
                            ((n * c.C + ch) * c.X + ox * st) * c.Y +
                            oy * st;
                        const std::int64_t lane_tag = lane << 44;
                        for (index_t j = 0; j < len; ++j)
                            fetch.push_back(lane_tag | (base + roff[j]));
                    }
                }
                const auto distinct = static_cast<index_t>(fetch.size());
                index_t fresh = distinct;
                if (mn_.hasForwardingLinks() && have_prev && st < w) {
                    fresh = countFresh(fetch, prev_fetch);
                    mn_.forwardOperands(distinct - fresh);
                }
                dl_total += engine_.deliver(dn_, gb_, fresh, 1,
                                            PackageKind::Input);
                const index_t clusters = tkc * typ;
                rn_.bulkReduce(clusters, len);
                if (folds > 1 && rn_.supportsAccumulation())
                    rn_.accumulate(clusters);
                prev_fetch.swap(fetch);
                have_prev = true;
            }
            setPhase("output drain");
            const cycle_t drain = engine_.drain(gb_, tkc * typ);
            setPhase("max pool streaming");
            res.cycles += std::max<cycle_t>({1, dl_total, drain});
        }

        // Every full channel block repeats the steps of the first: the
        // forwarding window restarts per block, and the fetch lists of
        // two blocks differ only by a channel offset, which leaves the
        // fresh counts unchanged. The engine replays the later ones.
        const index_t repeats = tkc == tk ? (c.C - c0 - tk) / tk : 0;
        if (repeats > 0 &&
            engine_.replay(mark, static_cast<count_t>(repeats))) {
            res.cycles +=
                static_cast<count_t>(repeats) * (res.cycles - cycles0);
            c0 += repeats * tk;
        }
    }
    const cycle_t fill = 1 +
        static_cast<cycle_t>(rn_.latency(std::min(vn, window))) + 1;
    res.cycles += fill;
    setPhase("pipeline fill");
    traceAdvance(fill);

    if (!output.empty())
        output = ref::maxPool2d(input, w, st);

    res.mem_accesses = gb_.totalReads() + gb_.totalWrites() - mem0;
    res.ms_utilization = res.cycles > 0
        ? static_cast<double>(mn_.multOps() - mult0) /
          (static_cast<double>(cfg_.ms_size) *
           static_cast<double>(res.cycles))
        : 0.0;
    setPhase("idle");
    return res;
}

} // namespace stonne
