/**
 * @file
 * Tests for the engine layer: accelerator composition, the STONNE API
 * instruction flow (Table III), the output module and the energy/area
 * models.
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "engine/output_module.hpp"
#include "engine/stonne_api.hpp"
#include "tensor/prune.hpp"
#include "tensor/reference.hpp"

namespace stonne {
namespace {

LayerSpec
smallConv()
{
    Conv2dShape s;
    s.R = 3;
    s.S = 3;
    s.C = 4;
    s.K = 8;
    s.X = 8;
    s.Y = 8;
    s.padding = 1;
    return LayerSpec::convolution("conv", s);
}

TEST(Accelerator, ComposesAllThreePresets)
{
    Accelerator maeri(HardwareConfig::maeriLike(64, 16));
    EXPECT_NO_THROW(maeri.denseController());
    EXPECT_THROW(maeri.sparseController(), FatalError);
    EXPECT_TRUE(maeri.supportsMaxPool());

    Accelerator sigma(HardwareConfig::sigmaLike(64, 32));
    EXPECT_NO_THROW(sigma.sparseController());
    EXPECT_THROW(sigma.denseController(), FatalError);
    EXPECT_FALSE(sigma.supportsMaxPool());

    Accelerator tpu(HardwareConfig::tpuLike(64));
    EXPECT_NO_THROW(tpu.denseController());
    EXPECT_FALSE(tpu.supportsMaxPool());

    Accelerator snapea(HardwareConfig::snapeaLike(64, 64));
    EXPECT_NO_THROW(snapea.snapeaController());
}

TEST(StonneApi, ConvFlowProducesValidatedOutput)
{
    Stonne st(HardwareConfig::maeriLike(64, 16));
    const LayerSpec layer = smallConv();
    Rng rng(1);
    Tensor in({1, 4, 8, 8}), w({8, 4, 3, 3}), bias({8});
    in.fillUniform(rng);
    w.fillUniform(rng);
    bias.fillUniform(rng);

    st.configureConv(layer);
    st.configureData(in, w, bias);
    const SimulationResult r = st.runOperation();

    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.macs, static_cast<count_t>(layer.conv.macs()));
    EXPECT_GT(r.energy.total(), 0.0);
    EXPECT_GT(r.area.total(), 0.0);
    EXPECT_TRUE(st.output().equals(
        ref::conv2d(in, w, bias, layer.conv)));
}

TEST(StonneApi, RunWithoutConfigureIsFatal)
{
    Stonne st(HardwareConfig::maeriLike(64, 16));
    EXPECT_THROW(st.runOperation(), FatalError);
}

TEST(StonneApi, RunWithoutDataIsFatal)
{
    Stonne st(HardwareConfig::maeriLike(64, 16));
    st.configureConv(smallConv());
    EXPECT_THROW(st.runOperation(), FatalError);
}

TEST(StonneApi, WrongKindToConfigureIsFatal)
{
    Stonne st(HardwareConfig::maeriLike(64, 16));
    EXPECT_THROW(st.configureLinear(smallConv()), FatalError);
    EXPECT_THROW(st.configureDmm(smallConv()), FatalError);
    EXPECT_THROW(
        st.configureSpmm(LayerSpec::sparseGemm("s", 4, 4, 4)),
        FatalError); // not a sparse composition
}

TEST(StonneApi, SparseConvLowersToSpmmAndMatches)
{
    Stonne st(HardwareConfig::sigmaLike(64, 32));
    const LayerSpec layer = smallConv();
    Rng rng(2);
    Tensor in({1, 4, 8, 8}), w({8, 4, 3, 3}), bias({8});
    in.fillUniform(rng);
    w.fillUniform(rng);
    pruneFiltersWithJitter(w, 0.6, 0.1, rng);
    bias.fillUniform(rng);

    st.configureConv(layer);
    st.configureData(in, w, bias);
    st.runOperation();
    EXPECT_TRUE(st.output().equals(
        ref::conv2d(in, w, bias, layer.conv)));
}

TEST(StonneApi, SpmmInstructionRunsSparseController)
{
    Stonne st(HardwareConfig::sigmaLike(64, 32));
    Rng rng(3);
    Tensor a({10, 16}), b({16, 6});
    a.fillUniform(rng);
    pruneRandom(a, 0.7, rng);
    b.fillUniform(rng);

    st.configureSpmm(LayerSpec::sparseGemm("spmm", 10, 6, 16));
    st.configureData(b, a);
    const SimulationResult r = st.runOperation();
    EXPECT_TRUE(st.output().equals(ref::gemm(a, b)));
    EXPECT_LT(r.macs, 10u * 16u * 6u); // sparsity skipped work
}

TEST(StonneApi, DmmOnTpuUsesSystolicPath)
{
    Stonne st(HardwareConfig::tpuLike(64));
    Rng rng(4);
    Tensor a({16, 16}), b({16, 16});
    a.fillUniform(rng);
    b.fillUniform(rng);
    st.configureDmm(LayerSpec::gemmLayer("mm", 16, 16, 16));
    st.configureData(b, a);
    const SimulationResult r = st.runOperation();
    EXPECT_TRUE(st.output().equals(ref::gemm(a, b)));
    // 8x8 array, four 8x8 tiles: 4 * (16 + 8 + 8 + 2) + DRAM staging.
    EXPECT_GE(r.cycles, 136u);
}

TEST(StonneApi, LinearOnAllCompositionsMatches)
{
    Rng rng(5);
    Tensor in({4, 24}), w({10, 24}), bias({10});
    in.fillUniform(rng);
    w.fillUniform(rng);
    pruneFiltersWithJitter(w, 0.5, 0.1, rng);
    bias.fillUniform(rng);
    const Tensor expect = ref::linear(in, w, bias);

    for (const HardwareConfig &cfg :
         {HardwareConfig::maeriLike(64, 16),
          HardwareConfig::sigmaLike(64, 32),
          HardwareConfig::tpuLike(64)}) {
        Stonne st(cfg);
        st.configureLinear(LayerSpec::linear("fc", 4, 24, 10));
        st.configureData(in, w, bias);
        st.runOperation();
        EXPECT_TRUE(st.output().equals(expect)) << cfg.name;
    }
}

TEST(StonneApi, MaxPoolOnFlexibleMatches)
{
    Stonne st(HardwareConfig::maeriLike(64, 16));
    Rng rng(6);
    Tensor in({1, 4, 8, 8});
    in.fillUniform(rng);
    Conv2dShape s;
    s.C = 4;
    s.X = 8;
    s.Y = 8;
    st.configureMaxPool(LayerSpec::maxPool("pool", s, 2, 2));
    st.configureData(in, Tensor());
    st.runOperation();
    EXPECT_TRUE(st.output().equals(ref::maxPool2d(in, 2, 2)));
}

TEST(StonneApi, MaxPoolOnTpuIsRejected)
{
    Stonne st(HardwareConfig::tpuLike(64));
    Conv2dShape s;
    s.C = 4;
    s.X = 8;
    s.Y = 8;
    EXPECT_THROW(st.configureMaxPool(LayerSpec::maxPool("p", s, 2, 2)),
                 FatalError);
}

TEST(StonneApi, TotalCyclesAccumulateAcrossOperations)
{
    Stonne st(HardwareConfig::maeriLike(64, 16));
    Rng rng(7);
    Tensor in({2, 8}), w({4, 8});
    in.fillUniform(rng);
    w.fillUniform(rng);
    st.configureLinear(LayerSpec::linear("fc1", 2, 8, 4));
    st.configureData(in, w);
    const cycle_t c1 = st.runOperation().cycles;
    st.configureLinear(LayerSpec::linear("fc2", 2, 8, 4));
    st.configureData(in, w);
    const cycle_t c2 = st.runOperation().cycles;
    EXPECT_EQ(st.totalCycles(), c1 + c2);
}

TEST(OutputModule, JsonSummaryContainsAllSections)
{
    Stonne st(HardwareConfig::maeriLike(64, 16));
    Rng rng(8);
    Tensor in({2, 8}), w({4, 8});
    in.fillUniform(rng);
    w.fillUniform(rng);
    st.configureLinear(LayerSpec::linear("fc", 2, 8, 4));
    st.configureData(in, w);
    const SimulationResult r = st.runOperation();

    const std::string json =
        OutputModule::summaryWithCounters(st.config(), r, st.stats())
            .dump();
    for (const char *key :
         {"hardware", "performance", "energy", "area", "counters",
          "cycles", "mn.mult_ops"})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(OutputModule, CounterFileHasOneLinePerCounter)
{
    StatsRegistry stats;
    stats.counter("mn.mult_ops", StatGroup::MultiplierNetwork).value = 5;
    stats.counter("gb.reads", StatGroup::GlobalBuffer).value = 7;
    const std::string text = OutputModule::counterFile(stats);
    EXPECT_NE(text.find("MN mn.mult_ops 5"), std::string::npos);
    EXPECT_NE(text.find("GB gb.reads 7"), std::string::npos);
}

TEST(AreaModel, GbDominatesAllPresets)
{
    for (const HardwareConfig &cfg :
         {HardwareConfig::maeriLike(256, 128),
          HardwareConfig::sigmaLike(256, 128),
          HardwareConfig::tpuLike(256)}) {
        const AreaBreakdown a = AreaModel(cfg).compute();
        EXPECT_GT(a.gb_um2 / a.total(), 0.60) << cfg.name;
        EXPECT_LT(a.gb_um2 / a.total(), 0.90) << cfg.name;
    }
}

TEST(AreaModel, OrderingMatchesFigure5c)
{
    const double maeri =
        AreaModel(HardwareConfig::maeriLike(256, 128)).compute().total();
    const double sigma =
        AreaModel(HardwareConfig::sigmaLike(256, 128)).compute().total();
    const double tpu =
        AreaModel(HardwareConfig::tpuLike(256)).compute().total();
    EXPECT_LT(tpu, sigma);
    EXPECT_LT(sigma, maeri);
}

TEST(EnergyModel, CountersMapToGroups)
{
    const HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    StatsRegistry stats;
    stats.counter("mn.mult_ops", StatGroup::MultiplierNetwork).value =
        1000;
    stats.counter("rn.adder_ops", StatGroup::ReductionNetwork).value =
        500;
    stats.counter("gb.reads", StatGroup::GlobalBuffer).value = 100;
    const EnergyBreakdown e = EnergyModel(cfg).compute(stats, 1000);
    EXPECT_GT(e.mn_uj, 0.0);
    EXPECT_GT(e.rn_uj, 0.0);
    EXPECT_GT(e.gb_uj, 0.0);
    EXPECT_GT(e.static_uj, 0.0);
    EXPECT_DOUBLE_EQ(e.dn_uj, 0.0);
}

TEST(EnergyModel, ArtAddersCostMoreThanFan)
{
    StatsRegistry stats;
    stats.counter("rn.adder_ops", StatGroup::ReductionNetwork).value =
        1000;
    const EnergyBreakdown art =
        EnergyModel(HardwareConfig::maeriLike(64, 16))
            .compute(stats, 0);
    const EnergyBreakdown fan =
        EnergyModel(HardwareConfig::sigmaLike(64, 16))
            .compute(stats, 0);
    EXPECT_GT(art.rn_uj, fan.rn_uj);
}

TEST(EnergyModel, PricesTheActivitySinceASnapshot)
{
    // The energy of one operation is priced from value - before[i] of
    // each counter, in registration order. It must equal, bit for bit,
    // the energy of a registry holding just those differences; a
    // counter registered after the snapshot counts in full.
    const HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    const EnergyModel m(cfg);
    StatsRegistry reg;
    reg.counter("gb.reads", StatGroup::GlobalBuffer).value = 10;
    reg.counter("dn.switch_hops", StatGroup::DistributionNetwork).value = 3;
    reg.counter("dn.packages", StatGroup::DistributionNetwork).value = 8;
    reg.counter("rn.adder_ops", StatGroup::ReductionNetwork).value = 7;
    const std::vector<count_t> before = reg.snapshot();
    reg.counter("gb.reads", StatGroup::GlobalBuffer).value += 25;
    reg.counter("dn.packages", StatGroup::DistributionNetwork).value += 5;
    reg.counter("rn.adder_ops", StatGroup::ReductionNetwork).value += 1001;
    reg.counter("mn.mult_ops", StatGroup::MultiplierNetwork).value = 77;
    reg.counter("dram.bytes", StatGroup::Dram).value = 4096;

    StatsRegistry diff;
    diff.counter("gb.reads", StatGroup::GlobalBuffer).value = 25;
    diff.counter("dn.switch_hops", StatGroup::DistributionNetwork);
    diff.counter("dn.packages", StatGroup::DistributionNetwork).value = 5;
    diff.counter("rn.adder_ops", StatGroup::ReductionNetwork).value = 1001;
    diff.counter("mn.mult_ops", StatGroup::MultiplierNetwork).value = 77;
    diff.counter("dram.bytes", StatGroup::Dram).value = 4096;

    const EnergyRates rates = m.rates(reg);
    EXPECT_EQ(rates.covered, 6u);
    EXPECT_EQ(rates.priced.size(), 5u); // dn.packages carries no energy
    const EnergyBreakdown got = m.compute(rates, reg, before, 900);
    const EnergyBreakdown want = m.compute(diff, 900);
    for (const auto f : {&EnergyBreakdown::gb_uj, &EnergyBreakdown::dn_uj,
                         &EnergyBreakdown::mn_uj, &EnergyBreakdown::rn_uj,
                         &EnergyBreakdown::dram_uj,
                         &EnergyBreakdown::static_uj})
        EXPECT_EQ(got.*f, want.*f);
    EXPECT_GT(got.rn_uj, 0.0);
    EXPECT_EQ(got.dn_uj, 0.0);

    // Rates of a registry that has grown since are refused.
    reg.counter("late", StatGroup::Other);
    EXPECT_THROW(m.compute(rates, reg, before, 900), PanicError);

    // A counter below its snapshot is a modelling bug.
    const std::vector<count_t> ahead = {100};
    try {
        (void)m.compute(m.rates(reg), reg, ahead, 0);
        ADD_FAILURE() << "a counter that went backwards was priced";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "stat counter gb.reads went backwards"),
                  std::string::npos)
            << e.what();
    }
}

TEST(EnergyModel, StaticEnergyScalesWithRuntime)
{
    const HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    StatsRegistry stats;
    const EnergyModel m(cfg);
    EXPECT_DOUBLE_EQ(m.compute(stats, 2000).static_uj,
                     2.0 * m.compute(stats, 1000).static_uj);
}

} // namespace
} // namespace stonne
