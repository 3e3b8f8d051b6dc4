/**
 * @file
 * The STONNE User Interface (Section III): a prompt with well-defined
 * commands to load layer and tile parameters onto a selected simulator
 * instance and run it with random tensors — faster than wiring up the
 * full DL front-end, for rapid prototyping and debugging.
 *
 * Works interactively or scripted:
 *   echo "create maeri 128 64
 *         conv 3 3 16 32 1 1 16 16 1 1
 *         run" | ./stonne_cli
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "checkpoint/checkpoint.hpp"
#include "common/logging.hpp"
#include "common/watchdog.hpp"
#include "explore/explorer.hpp"
#include "engine/output_module.hpp"
#include "engine/stonne_api.hpp"
#include "engine/workload.hpp"
#include "service/daemon.hpp"

using namespace stonne;

namespace {

struct CliState {
    std::unique_ptr<Stonne> stonne;
    LayerSpec layer;
    bool layer_set = false;
    std::optional<Tile> tile;
    double sparsity = 0.0;
    SchedulingPolicy policy = SchedulingPolicy::None;
    std::uint64_t seed = 42;
    FaultConfig faults;          // applied at the next create/load
    index_t watchdog_cycles = 0; // 0 keeps the config's default
    std::optional<bool> trace;   // applied at the next create/load
    std::string trace_file;
    index_t trace_sample = 0;    // 0 keeps the config's default
};

/** Overlay the CLI-set fault/watchdog/trace knobs onto a config. */
HardwareConfig
applyHardening(HardwareConfig cfg, const CliState &st)
{
    if (st.faults.enabled)
        cfg.faults = st.faults;
    if (st.watchdog_cycles > 0)
        cfg.watchdog_cycles = st.watchdog_cycles;
    if (st.trace) {
        cfg.trace = *st.trace;
        if (!st.trace_file.empty())
            cfg.trace_file = st.trace_file;
        if (st.trace_sample > 0)
            cfg.trace_sample_cycles = st.trace_sample;
    }
    return cfg;
}

void
printHelp()
{
    std::printf(
        "commands:\n"
        "  create <tpu|maeri|sigma|snapea> [ms] [bw]  new instance\n"
        "  load <path>                     instance from stonne_hw.cfg\n"
        "  conv R S C K G N X Y stride pad configure a convolution\n"
        "  gemm M N K                      configure a dense GEMM\n"
        "  spmm M N K                      configure a sparse GEMM\n"
        "  linear N IN OUT                 configure a linear layer\n"
        "  tile TR TS TC TG TK TN TX TY    explicit tile (else auto)\n"
        "  tune [top_k]                    search the configured layer's\n"
        "                                  tile space (analytical pre-\n"
        "                                  filter + cycle-level top-K);\n"
        "                                  the winner becomes the tile\n"
        "  explore [top_k]                 co-search hardware x mapping\n"
        "                                  (explore_axes): analytical\n"
        "                                  Pareto prune, cycle-simulate\n"
        "                                  the predicted frontier, print\n"
        "                                  the exact one; writes\n"
        "                                  stonne_explore.json\n"
        "  sparsity <ratio>                prune weights to the ratio\n"
        "  policy <NS|RDM|LFF>             sparse filter scheduling\n"
        "  seed <n>                        RNG seed for random tensors\n"
        "  faults <seed> <stuck> <drop> <corrupt> <bitflip>\n"
        "                                  fault rates for next create/load\n"
        "  watchdog <cycles>               stall budget for next create/load\n"
        "  trace <file> [sample_cycles]    cycle-level trace at next\n"
        "  trace off                       create/load (Perfetto JSON)\n"
        "  run                             simulate the configured op\n"
        "  checkpoint <file>               snapshot the instance state\n"
        "  resume <file>                   recreate an instance from a\n"
        "                                  snapshot and restore its state\n"
        "  config                          show the hardware config\n"
        "  counters                        dump the activity counters\n"
        "  help / quit\n");
}

void
runOp(CliState &st)
{
    if (!st.stonne) {
        std::printf("error: no instance; use 'create' first\n");
        return;
    }
    if (!st.layer_set) {
        std::printf("error: no layer configured\n");
        return;
    }

    if (st.layer.kind == LayerKind::MaxPool) {
        std::printf("error: use the model runner for pooling\n");
        return;
    }

    // One construction path with the benchmarks and the service daemon:
    // the same (layer, seed, sparsity) always yields bit-identical
    // operands, so a CLI run reproduces a service job exactly.
    const LayerData data = makeLayerData(st.layer, st.sparsity, st.seed);
    st.stonne->setSchedulingPolicy(st.policy, st.seed);
    const SimulationResult r =
        runLayer(*st.stonne, st.layer, data, st.tile);
    std::printf("%s\n",
                OutputModule::summary(st.stonne->config(), r)
                    .dump().c_str());
    std::printf("simulated %llu cycles in %.3f s wall (%.0f cycles/s)\n",
                static_cast<unsigned long long>(r.cycles), r.wall_seconds,
                r.sim_cycles_per_second);
    if (!r.trace_path.empty())
        std::printf("trace written to %s (open in ui.perfetto.dev or "
                    "chrome://tracing)\n", r.trace_path.c_str());
    if (!r.checkpoint_path.empty())
        std::printf("checkpoint written to %s\n",
                    r.checkpoint_path.c_str());
    if (r.restored_from_cycle > 0)
        std::printf("resumed from cycle %llu\n",
                    static_cast<unsigned long long>(
                        r.restored_from_cycle));
}

bool
handle(CliState &st, const std::string &line)
{
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#')
        return true;

    try {
        if (cmd == "quit" || cmd == "exit") {
            return false;
        } else if (cmd == "help") {
            printHelp();
        } else if (cmd == "create") {
            std::string kind;
            index_t ms = 256, bw = 128;
            in >> kind;
            if (!(in >> ms))
                ms = 256;
            if (!(in >> bw))
                bw = kind == "tpu" ? ms : 128;
            HardwareConfig cfg;
            if (kind == "tpu")
                cfg = HardwareConfig::tpuLike(ms);
            else if (kind == "maeri")
                cfg = HardwareConfig::maeriLike(ms, bw);
            else if (kind == "sigma")
                cfg = HardwareConfig::sigmaLike(ms, bw);
            else if (kind == "snapea")
                cfg = HardwareConfig::snapeaLike(ms, bw);
            else
                fatal("unknown preset '", kind, "'");
            st.stonne = std::make_unique<Stonne>(applyHardening(cfg, st));
            std::printf("created %s: %lld MS, bw %lld\n",
                        cfg.name.c_str(), static_cast<long long>(ms),
                        static_cast<long long>(cfg.dn_bandwidth));
        } else if (cmd == "load") {
            std::string path;
            in >> path;
            st.stonne = std::make_unique<Stonne>(applyHardening(
                HardwareConfig::parseFile(path), st));
            std::printf("loaded %s\n", path.c_str());
        } else if (cmd == "conv") {
            Conv2dShape c;
            in >> c.R >> c.S >> c.C >> c.K >> c.G >> c.N >> c.X >> c.Y >>
                c.stride >> c.padding;
            st.layer = LayerSpec::convolution("cli_conv", c);
            st.layer_set = true;
            std::printf("conv configured: %lld MACs\n",
                        static_cast<long long>(st.layer.macs()));
        } else if (cmd == "gemm" || cmd == "spmm") {
            index_t m, n, k;
            in >> m >> n >> k;
            st.layer = cmd == "gemm"
                ? LayerSpec::gemmLayer("cli_gemm", m, n, k)
                : LayerSpec::sparseGemm("cli_spmm", m, n, k);
            st.layer_set = true;
        } else if (cmd == "linear") {
            index_t n, c, k;
            in >> n >> c >> k;
            st.layer = LayerSpec::linear("cli_linear", n, c, k);
            st.layer_set = true;
        } else if (cmd == "tile") {
            Tile t;
            in >> t.t_r >> t.t_s >> t.t_c >> t.t_g >> t.t_k >> t.t_n >>
                t.t_x >> t.t_y;
            st.tile = t;
            std::printf("%s\n", t.toString().c_str());
        } else if (cmd == "sparsity") {
            in >> st.sparsity;
        } else if (cmd == "policy") {
            std::string p;
            in >> p;
            st.policy = p == "LFF" ? SchedulingPolicy::LargestFirst
                      : p == "RDM" ? SchedulingPolicy::Random
                                   : SchedulingPolicy::None;
        } else if (cmd == "seed") {
            in >> st.seed;
        } else if (cmd == "faults") {
            FaultConfig f;
            f.enabled = true;
            in >> f.seed >> f.stuck_multiplier_rate >> f.flit_drop_rate >>
                f.flit_corrupt_rate >> f.dram_bitflip_rate;
            f.validate();
            st.faults = f;
            std::printf("faults armed (takes effect at create/load):\n%s",
                        f.toConfigText().c_str());
        } else if (cmd == "watchdog") {
            in >> st.watchdog_cycles;
            fatalIf(st.watchdog_cycles <= 0,
                    "watchdog stall budget must be positive");
            std::printf("watchdog_cycles = %lld at the next create/load\n",
                        static_cast<long long>(st.watchdog_cycles));
        } else if (cmd == "trace") {
            std::string file;
            in >> file;
            if (file == "off" || file == "OFF") {
                st.trace = false;
                st.trace_file.clear();
                st.trace_sample = 0;
                std::printf("trace = OFF at the next create/load\n");
            } else {
                fatalIf(file.empty(), "trace expects a file path or off");
                st.trace = true;
                st.trace_file = file;
                index_t sample = 0;
                if (in >> sample) {
                    fatalIf(sample <= 0,
                            "trace sample_cycles must be positive");
                    st.trace_sample = sample;
                }
                std::printf("trace -> %s at the next create/load\n",
                            file.c_str());
            }
        } else if (cmd == "checkpoint") {
            std::string path;
            in >> path;
            if (path.empty()) {
                std::printf("error: checkpoint expects a file path\n");
            } else if (!st.stonne) {
                std::printf("error: no instance; use 'create' first\n");
            } else {
                st.stonne->saveCheckpoint(path);
                std::printf(
                    "checkpoint written to %s (cycle %llu)\n",
                    path.c_str(),
                    static_cast<unsigned long long>(
                        st.stonne->totalCycles()));
            }
        } else if (cmd == "resume") {
            std::string path;
            in >> path;
            if (path.empty()) {
                std::printf("error: resume expects a file path\n");
            } else {
                // The snapshot embeds its configuration, so the
                // instance is rebuilt from it before the restore.
                const HardwareConfig cfg = HardwareConfig::parse(
                    checkpointConfigText(path), path);
                st.stonne = std::make_unique<Stonne>(cfg);
                st.stonne->loadCheckpoint(path);
                std::printf(
                    "resumed %s from %s at cycle %llu\n",
                    cfg.name.c_str(), path.c_str(),
                    static_cast<unsigned long long>(
                        st.stonne->totalCycles()));
            }
        } else if (cmd == "tune") {
            if (!st.stonne) {
                std::printf("error: no instance; use 'create' first\n");
            } else if (!st.layer_set) {
                std::printf("error: no layer configured\n");
            } else {
                const HardwareConfig &cfg = st.stonne->config();
                explore::ExploreOptions opts;
                opts.top_k = cfg.dse_top_k;
                opts.cache_file = cfg.dse_cache_file;
                opts.sparsity = st.sparsity;
                opts.seed = st.seed;
                index_t k = 0;
                if (in >> k) {
                    fatalIf(k <= 0, "tune top_k must be positive");
                    opts.top_k = k;
                }
                explore::Explorer tuner(cfg, opts);
                const explore::TuneReport rep = tuner.tuneLayer(st.layer);
                std::printf("%-22s %12s %12s  %s\n", "tile",
                            "analytical", "simulated", "source");
                for (const explore::EvaluatedTile &et : rep.ranked)
                    std::printf(
                        "%-22s %12llu %12llu  %s\n",
                        et.tile.canonical().c_str(),
                        static_cast<unsigned long long>(
                            et.analytical_cycles),
                        static_cast<unsigned long long>(
                            et.simulated_cycles),
                        et.from_cache ? "cache" : "simulated");
                std::printf(
                    "tune: space %llu evaluated %zu cache_hits %llu "
                    "simulations %llu\n",
                    static_cast<unsigned long long>(rep.space_size),
                    rep.ranked.size(),
                    static_cast<unsigned long long>(rep.cache_hits),
                    static_cast<unsigned long long>(rep.simulations_run));
                std::printf("tune: rank_correlation %.3f\n",
                            rep.rank_correlation);
                std::printf(
                    "tune: greedy %s -> %llu cycles\n",
                    rep.greedy_tile.canonical().c_str(),
                    static_cast<unsigned long long>(rep.greedy_cycles));
                std::printf(
                    "tune: chosen %s -> %llu cycles (saved %lld vs "
                    "greedy)\n",
                    rep.best.canonical().c_str(),
                    static_cast<unsigned long long>(rep.best_cycles),
                    static_cast<long long>(
                        static_cast<std::int64_t>(rep.greedy_cycles) -
                        static_cast<std::int64_t>(rep.best_cycles)));
                st.tile = rep.best;
                std::printf("tile set to the chosen mapping; 'run' uses "
                            "it\n");
            }
        } else if (cmd == "explore") {
            if (!st.stonne) {
                std::printf("error: no instance; use 'create' first\n");
            } else if (!st.layer_set) {
                std::printf("error: no layer configured\n");
            } else {
                const HardwareConfig &cfg = st.stonne->config();
                explore::ExploreOptions opts;
                opts.top_k = cfg.explore_top_k;
                opts.axes = cfg.explore_axes;
                opts.cache_file = cfg.dse_cache_file;
                opts.sparsity = st.sparsity;
                opts.seed = st.seed;
                index_t k = 0;
                if (in >> k) {
                    fatalIf(k <= 0, "explore top_k must be positive");
                    opts.top_k = k;
                }
                explore::Explorer explorer(cfg, opts);
                const explore::ExploreReport rep =
                    explorer.exploreLayer(st.layer);
                std::printf("%-44s %12s %12s %14s  %s\n", "variant",
                            "cycles", "energy_uj", "area_um2", "source");
                for (const std::size_t i : rep.frontier) {
                    const explore::ExplorePoint &p = rep.points[i];
                    std::printf(
                        "%-44s %12llu %12.3f %14.0f  %s\n",
                        p.label.c_str(),
                        static_cast<unsigned long long>(
                            p.simulated_cycles),
                        p.energy_uj, p.area_um2,
                        p.from_cache ? "cache" : "simulated");
                }
                std::printf(
                    "explore: variants %zu space %zu evaluated %zu "
                    "cache_hits %zu simulations %zu frontier %zu\n",
                    rep.variants, rep.space_size, rep.points.size(),
                    rep.cache_hits, rep.simulations_run,
                    rep.frontier.size());
                OutputModule::writeFile("stonne_explore.json",
                                        rep.json().dump() + "\n");
                std::printf("frontier written to stonne_explore.json "
                            "(each point carries a runnable "
                            "config_text)\n");
            }
        } else if (cmd == "counters") {
            if (st.stonne)
                std::printf("%s",
                            OutputModule::counterFile(st.stonne->stats())
                                .c_str());
            else
                std::printf("no instance\n");
        } else if (cmd == "run") {
            runOp(st);
        } else if (cmd == "config") {
            if (st.stonne)
                std::printf("%s",
                            st.stonne->config().toConfigText().c_str());
            else
                std::printf("no instance\n");
        } else {
            std::printf("unknown command '%s' (try 'help')\n",
                        cmd.c_str());
        }
    } catch (const DeadlockError &e) {
        std::printf("error: %s\n%s", e.what(), e.report().c_str());
    } catch (const std::exception &e) {
        std::printf("error: %s\n", e.what());
    }
    return true;
}

/** Set by the signal handlers; observed by the daemon's read loop. */
volatile std::sig_atomic_t g_stop = 0;

extern "C" void
onStopSignal(int)
{
    g_stop = 1;
}

/**
 * `stonne_cli serve [stonne_hw.cfg]`: the simulation service. SIGINT
 * and SIGTERM trigger a graceful shutdown — installed without
 * SA_RESTART so the blocking getline breaks on EINTR, after which the
 * daemon drains queued and running jobs, persists the result cache,
 * and exits 0.
 */
int
serveMain(int argc, char **argv)
{
    service::ServiceOptions opts;
    if (argc > 2)
        opts.base = HardwareConfig::parseFile(argv[2]);
    opts.cache_file = opts.base.dse_cache_file;

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onStopSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: getline must return on EINTR
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    service::ServiceDaemon daemon(opts, std::cout);
    return daemon.serve(std::cin, &g_stop);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::string(argv[1]) == "serve") {
        try {
            return serveMain(argc, argv);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "serve: %s\n", e.what());
            return 1;
        }
    }
    if (argc > 1) {
        std::fprintf(stderr,
                     "usage: %s            interactive prompt\n"
                     "       %s serve [stonne_hw.cfg]\n",
                     argv[0], argv[0]);
        return 2;
    }

    std::printf("STONNE user interface — 'help' for commands\n");
    CliState st;
    std::string line;
    while (true) {
        std::printf("stonne> ");
        std::fflush(stdout);
        if (!std::getline(std::cin, line))
            break;
        if (!handle(st, line))
            break;
    }
    return 0;
}
