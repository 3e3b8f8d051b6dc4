/**
 * @file
 * Golden results of the two-fidelity searches: `tune` (one hardware
 * configuration, cycles only) and `explore` (hardware x mapping
 * co-search).
 *
 * Every point runs on a fresh in-memory ResultCache, first cold and
 * then warm, and pins what a user or a cache file can observe: the
 * chosen and greedy tiles and cycles, the space and evaluation counts,
 * every evaluated entry's outcome bits, the cache hits and simulations
 * of both legs and a digest of the inserted cache-key texts. Two jobs
 * through the ServiceDaemon pin the reply's `summary` object.
 *
 * On a mismatch the failure message carries the point's actual line,
 * in the table's own format.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json_writer.hpp"
#include "engine/workload.hpp"
#include "explore/cache.hpp"
#include "explore/explorer.hpp"
#include "service/daemon.hpp"

namespace stonne::golden {
using SearchOptions = explore::ExploreOptions;
using explore::EvaluatedTile;
using explore::TuneReport;
inline TuneReport
tune(const HardwareConfig &cfg, const SearchOptions &opts,
     explore::ResultCache &cache, const LayerSpec &layer)
{
    explore::Explorer tuner(cfg, opts, cache);
    return tuner.tuneLayer(layer);
}
} // namespace stonne::golden

namespace stonne {
namespace {

using golden::SearchOptions;
using golden::TuneReport;

/** Incremental FNV-1a 64. */
struct Fnv {
    std::uint64_t h = 1469598103934665603ull;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    }

    void
    text(const std::string &s)
    {
        bytes(s.data(), s.size());
        u64(s.size());
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            const unsigned char b = static_cast<unsigned char>(v >> (8 * i));
            bytes(&b, 1);
        }
    }

    void
    real(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
};

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Golden lines by point key. */
const std::map<std::string, std::string> &
goldens()
{
    static const std::map<std::string, std::string> table = {
        {"explore maeri_256 B-TR default k1",
         "variants=66 space=16425 "
         "cold=0/3 warm=3/0 "
         "frontier=2 points=897cef20afee5b60"},
        {"explore maeri_256 B-TR default k4",
         "variants=66 space=16425 "
         "cold=0/11 warm=11/0 "
         "frontier=2 points=2eb21dd688bb5624"},
        {"explore maeri_256 B-TR ms_size,fabric k1",
         "variants=4 space=541 "
         "cold=0/4 warm=4/0 "
         "frontier=3 points=840500963297393a"},
        {"explore maeri_256 B-TR ms_size,fabric k4",
         "variants=4 space=541 "
         "cold=0/4 warm=4/0 "
         "frontier=3 points=840500963297393a"},
        {"explore maeri_256 M-L default k1",
         "variants=66 space=2709 "
         "cold=0/3 warm=3/0 "
         "frontier=2 points=9d056346e8e3fafa"},
        {"explore maeri_256 M-L default k4",
         "variants=66 space=2709 "
         "cold=0/9 warm=9/0 "
         "frontier=2 points=0923dc5436d482e6"},
        {"explore maeri_256 M-L ms_size,fabric k1",
         "variants=4 space=89 "
         "cold=0/2 warm=2/0 "
         "frontier=2 points=847c1d6c8074fd94"},
        {"explore maeri_256 M-L ms_size,fabric k4",
         "variants=4 space=89 "
         "cold=0/4 warm=4/0 "
         "frontier=2 points=0f110ae7cb611767"},
        {"explore maeri_256 S-EC default k1",
         "variants=66 space=8307 "
         "cold=0/3 warm=3/0 "
         "frontier=3 points=5390171740623f1a"},
        {"explore maeri_256 S-EC default k4",
         "variants=66 space=8307 "
         "cold=0/11 warm=11/0 "
         "frontier=5 points=3f2ceb5a221f9259"},
        {"explore maeri_256 S-EC ms_size,fabric k1",
         "variants=4 space=275 "
         "cold=0/3 warm=3/0 "
         "frontier=3 points=98f0ca5487936f11"},
        {"explore maeri_256 S-EC ms_size,fabric k4",
         "variants=4 space=275 "
         "cold=0/4 warm=4/0 "
         "frontier=3 points=37e89e3fb741c323"},
        {"service explore",
         "852/efac4306b08768ed"},
        {"service tune",
         R"({"chosen_tile":"3x3x2x1x3x1x1x1","chosen_cycles":428,)"
         R"("greedy_tile":"3x3x2x1x3x1x1x1","greedy_cycles":428,)"
         R"("space_size":270,"evaluated":4,"cache_hits":0,)"
         R"("simulations_run":4,"rank_correlation":-0.816497})"},
        {"tune maeri128x1 B-L k1 sp0.0",
         "space=165 best=1x1x128x1x1x1x1x1/1573002 "
         "greedy=1x1x128x1x1x1x1x1/1573002 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=43876ab5a280ecf0 keys=1/0e4e849f6df32be3"},
        {"tune maeri128x1 B-L k1 sp0.5",
         "space=165 best=1x1x128x1x1x1x1x1/1573002 "
         "greedy=1x1x128x1x1x1x1x1/1573002 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=43876ab5a280ecf0 keys=1/a949db1aef5bc18a"},
        {"tune maeri128x1 B-L k8 sp0.0",
         "space=165 best=1x1x16x1x2x1x1x2/798759 "
         "greedy=1x1x128x1x1x1x1x1/1573002 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=0f1445ad84447829 keys=8/8d8a2182090fc2ae"},
        {"tune maeri128x1 B-L k8 sp0.5",
         "space=165 best=1x1x16x1x2x1x1x2/798759 "
         "greedy=1x1x128x1x1x1x1x1/1573002 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=0f1445ad84447829 keys=8/189777f6a543f896"},
        {"tune maeri128x1 B-TR k1 sp0.0",
         "space=228 best=1x1x128x1x1x1x1x1/295050 "
         "greedy=1x1x128x1x1x1x1x1/295050 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=5cdea6516c786bc2 keys=1/94e8a2915f80be5c"},
        {"tune maeri128x1 B-TR k1 sp0.5",
         "space=228 best=1x1x128x1x1x1x1x1/295050 "
         "greedy=1x1x128x1x1x1x1x1/295050 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=5cdea6516c786bc2 keys=1/7f6babea646c2019"},
        {"tune maeri128x1 B-TR k8 sp0.0",
         "space=228 best=1x1x16x1x2x1x1x2/149799 "
         "greedy=1x1x128x1x1x1x1x1/295050 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=9c6dbabbe8b51a59 keys=8/7894c6a34fe2d264"},
        {"tune maeri128x1 B-TR k8 sp0.5",
         "space=228 best=1x1x16x1x2x1x1x2/149799 "
         "greedy=1x1x128x1x1x1x1x1/295050 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=9c6dbabbe8b51a59 keys=8/3dba44f89cc2d584"},
        {"tune maeri128x1 DW k1 sp0.0",
         "space=90 best=3x3x1x8x1x1x1x1/1951 "
         "greedy=3x3x1x8x1x1x1x1/1951 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=ab12c77a1fd37c75 keys=2/8df1a9e5349a664c"},
        {"tune maeri128x1 DW k1 sp0.5",
         "space=90 best=3x3x1x8x1x1x1x1/1951 "
         "greedy=3x3x1x8x1x1x1x1/1951 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=ab12c77a1fd37c75 keys=2/da5d0ce0eed3aa78"},
        {"tune maeri128x1 DW k8 sp0.0",
         "space=90 best=3x3x1x8x1x1x1x1/1951 "
         "greedy=3x3x1x8x1x1x1x1/1951 rho=bfe199c1a6e08c2f "
         "cold=0/9 warm=9/0 ranked=8e6918b41300d268 keys=9/0f7e674f019cdd57"},
        {"tune maeri128x1 DW k8 sp0.5",
         "space=90 best=3x3x1x8x1x1x1x1/1951 "
         "greedy=3x3x1x8x1x1x1x1/1951 rho=bfe199c1a6e08c2f "
         "cold=0/9 warm=9/0 ranked=8e6918b41300d268 keys=9/809274d8bc4b0096"},
        {"tune maeri128x1 M-FC k1 sp0.0",
         "space=157 best=3x3x1x14x1x1x1x1/73605 "
         "greedy=3x3x1x14x1x1x1x1/73605 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=b6033b483eec0781 keys=2/e203d028e4a3de14"},
        {"tune maeri128x1 M-FC k1 sp0.5",
         "space=157 best=3x3x1x14x1x1x1x1/73605 "
         "greedy=3x3x1x14x1x1x1x1/73605 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=b6033b483eec0781 keys=2/f1ad2a825fdac672"},
        {"tune maeri128x1 M-FC k8 sp0.0",
         "space=157 best=3x3x1x1x1x1x14x1/73488 "
         "greedy=3x3x1x14x1x1x1x1/73605 rho=bfebc053a3ded1b5 "
         "cold=0/9 warm=9/0 ranked=a77489d0ba99ecb4 keys=9/b35910c3b015a276"},
        {"tune maeri128x1 M-FC k8 sp0.5",
         "space=157 best=3x3x1x1x1x1x14x1/73488 "
         "greedy=3x3x1x14x1x1x1x1/73605 rho=bfebc053a3ded1b5 "
         "cold=0/9 warm=9/0 ranked=a77489d0ba99ecb4 keys=9/bba739821d8ae08d"},
        {"tune maeri128x1 M-L k1 sp0.0",
         "space=39 best=1x1x128x1x1x1x1x1/51438 "
         "greedy=1x1x128x1x1x1x1x1/51438 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=2f96da313525f270 keys=1/678ddfbf998a9b28"},
        {"tune maeri128x1 M-L k1 sp0.5",
         "space=39 best=1x1x128x1x1x1x1x1/51438 "
         "greedy=1x1x128x1x1x1x1x1/51438 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=2f96da313525f270 keys=1/5223f1abd2eabeb1"},
        {"tune maeri128x1 M-L k8 sp0.0",
         "space=39 best=1x1x1x1x1x1x1x1/51304 "
         "greedy=1x1x128x1x1x1x1x1/51438 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=bd30b931fa05e1fd keys=8/033e75525139f24a"},
        {"tune maeri128x1 M-L k8 sp0.5",
         "space=39 best=1x1x1x1x1x1x1x1/51304 "
         "greedy=1x1x128x1x1x1x1x1/51438 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=bd30b931fa05e1fd keys=8/83d8fdb5ae24922a"},
        {"tune maeri128x1 R-C k1 sp0.0",
         "space=408 best=1x1x16x1x2x1x2x2/1929513 "
         "greedy=3x3x14x1x1x1x1x1/2310921 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=fdc65ba6a75efe13 keys=2/828fb93215d9d1d2"},
        {"tune maeri128x1 R-C k1 sp0.5",
         "space=408 best=1x1x16x1x2x1x2x2/1929513 "
         "greedy=3x3x14x1x1x1x1x1/2310921 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=fdc65ba6a75efe13 keys=2/5b6d991675de2688"},
        {"tune maeri128x1 R-C k8 sp0.0",
         "space=408 best=1x1x16x1x8x1x1x1/381570 "
         "greedy=3x3x14x1x1x1x1x1/2310921 rho=3fe199c1a6e08c2f "
         "cold=0/9 warm=9/0 ranked=d42e9ea32263c7fe keys=9/0f4a498f927df8ee"},
        {"tune maeri128x1 R-C k8 sp0.5",
         "space=408 best=1x1x16x1x8x1x1x1/381570 "
         "greedy=3x3x14x1x1x1x1x1/2310921 rho=3fe199c1a6e08c2f "
         "cold=0/9 warm=9/0 ranked=d42e9ea32263c7fe keys=9/1569a2caac6669df"},
        {"tune maeri128x1 R-L k1 sp0.0",
         "space=39 best=1x1x128x1x1x1x1x1/102639 "
         "greedy=1x1x128x1x1x1x1x1/102639 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=5576dced48196f0e keys=1/9b1374544a95dfec"},
        {"tune maeri128x1 R-L k1 sp0.5",
         "space=39 best=1x1x128x1x1x1x1x1/102639 "
         "greedy=1x1x128x1x1x1x1x1/102639 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=5576dced48196f0e keys=1/ba8d40ff715c5de9"},
        {"tune maeri128x1 R-L k8 sp0.0",
         "space=39 best=1x1x1x1x1x1x1x1/102505 "
         "greedy=1x1x128x1x1x1x1x1/102639 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=876e10119176cec7 keys=8/93824653c19ba67a"},
        {"tune maeri128x1 R-L k8 sp0.5",
         "space=39 best=1x1x1x1x1x1x1x1/102505 "
         "greedy=1x1x128x1x1x1x1x1/102639 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=876e10119176cec7 keys=8/1e6616292c964cee"},
        {"tune maeri128x1 S-EC k1 sp0.0",
         "space=114 best=1x1x16x1x8x1x1x1/89576 "
         "greedy=3x3x2x1x7x1x1x1/92791 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=15a97fedc1057c87 keys=2/78c432173085c178"},
        {"tune maeri128x1 S-EC k1 sp0.5",
         "space=114 best=1x1x16x1x8x1x1x1/89576 "
         "greedy=3x3x2x1x7x1x1x1/92791 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=15a97fedc1057c87 keys=2/074bf25eec233a3c"},
        {"tune maeri128x1 S-EC k8 sp0.0",
         "space=114 best=1x1x16x1x8x1x1x1/89576 "
         "greedy=3x3x2x1x7x1x1x1/92791 rho=3fba2748137fabb3 "
         "cold=0/8 warm=8/0 ranked=b48db65878edd6f3 keys=8/ed24bafcb80a01fa"},
        {"tune maeri128x1 S-EC k8 sp0.5",
         "space=114 best=1x1x16x1x8x1x1x1/89576 "
         "greedy=3x3x2x1x7x1x1x1/92791 rho=3fba2748137fabb3 "
         "cold=0/8 warm=8/0 ranked=b48db65878edd6f3 keys=8/03840308ff47d774"},
        {"tune maeri128x1 S-SC k1 sp0.0",
         "space=49 best=1x1x16x1x8x1x1x1/24471 "
         "greedy=1x1x64x1x2x1x1x1/86665 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=209f4ccafa5a73a3 keys=2/56397a89da8d4cce"},
        {"tune maeri128x1 S-SC k1 sp0.5",
         "space=49 best=1x1x16x1x8x1x1x1/24471 "
         "greedy=1x1x64x1x2x1x1x1/86665 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=209f4ccafa5a73a3 keys=2/8498f49307bb4314"},
        {"tune maeri128x1 S-SC k8 sp0.0",
         "space=49 best=1x1x8x1x16x1x1x1/14047 "
         "greedy=1x1x64x1x2x1x1x1/86665 rho=bfcc453d90f057a1 "
         "cold=0/8 warm=8/0 ranked=09bcbb89c55d2077 keys=8/f817ef062079dc0c"},
        {"tune maeri128x1 S-SC k8 sp0.5",
         "space=49 best=1x1x8x1x16x1x1x1/14047 "
         "greedy=1x1x64x1x2x1x1x1/86665 rho=bfcc453d90f057a1 "
         "cold=0/8 warm=8/0 ranked=09bcbb89c55d2077 keys=8/ad51995f341ee640"},
        {"tune maeri64x16ws B-L k1 sp0.0",
         "space=115 best=1x1x16x1x1x1x1x4/99080 "
         "greedy=1x1x64x1x1x1x1x1/99085 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=a86e6f95c719d37f keys=2/5857c1264614f415"},
        {"tune maeri64x16ws B-L k1 sp0.5",
         "space=115 best=1x1x16x1x1x1x1x4/99080 "
         "greedy=1x1x64x1x1x1x1x1/99085 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=a86e6f95c719d37f keys=2/ca197415bf18b74f"},
        {"tune maeri64x16ws B-L k8 sp0.0",
         "space=115 best=1x1x1x1x4x1x1x16/25348 "
         "greedy=1x1x64x1x1x1x1x1/99085 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=ad9d505a0d281e3a keys=9/b7bbb5cabd134e90"},
        {"tune maeri64x16ws B-L k8 sp0.5",
         "space=115 best=1x1x1x1x4x1x1x16/25348 "
         "greedy=1x1x64x1x1x1x1x1/99085 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=ad9d505a0d281e3a keys=9/68a6943baf80fc93"},
        {"tune maeri64x16ws B-TR k1 sp0.0",
         "space=156 best=1x1x16x1x1x1x1x4/18584 "
         "greedy=1x1x64x1x1x1x1x1/18589 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=d0ee0d0f2eb7c0e3 keys=2/643edf7114ac7d11"},
        {"tune maeri64x16ws B-TR k1 sp0.5",
         "space=156 best=1x1x16x1x1x1x1x4/18584 "
         "greedy=1x1x64x1x1x1x1x1/18589 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=d0ee0d0f2eb7c0e3 keys=2/8c52caeb3b4184f9"},
        {"tune maeri64x16ws B-TR k8 sp0.0",
         "space=156 best=1x1x1x1x4x1x1x16/4756 "
         "greedy=1x1x64x1x1x1x1x1/18589 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=f2ab6e407b2401d8 keys=9/4bfe9c6da953cf95"},
        {"tune maeri64x16ws B-TR k8 sp0.5",
         "space=156 best=1x1x1x1x4x1x1x16/4756 "
         "greedy=1x1x64x1x1x1x1x1/18589 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=f2ab6e407b2401d8 keys=9/7b636439777fe346"},
        {"tune maeri64x16ws DW k1 sp0.0",
         "space=65 best=3x3x1x7x1x1x1x1/238 "
         "greedy=3x3x1x7x1x1x1x1/238 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=dd499bfa5fe3cac5 keys=2/34f9aa9bc3d965d8"},
        {"tune maeri64x16ws DW k1 sp0.5",
         "space=65 best=3x3x1x7x1x1x1x1/238 "
         "greedy=3x3x1x7x1x1x1x1/238 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=dd499bfa5fe3cac5 keys=2/41ca70f1a56bd1a6"},
        {"tune maeri64x16ws DW k8 sp0.0",
         "space=65 best=1x3x1x2x1x1x9x1/202 "
         "greedy=3x3x1x7x1x1x1x1/238 rho=bfd1d3a60caf0ca7 "
         "cold=0/9 warm=9/0 ranked=b5ac9b8cf2d25a8c keys=9/a0e986d8244bee4f"},
        {"tune maeri64x16ws DW k8 sp0.5",
         "space=65 best=1x3x1x2x1x1x9x1/202 "
         "greedy=3x3x1x7x1x1x1x1/238 rho=bfd1d3a60caf0ca7 "
         "cold=0/9 warm=9/0 ranked=b5ac9b8cf2d25a8c keys=9/2cfd6a75031a5336"},
        {"tune maeri64x16ws M-FC k1 sp0.0",
         "space=108 best=3x3x1x7x1x1x1x1/6795 "
         "greedy=3x3x1x7x1x1x1x1/6795 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=1fef835d88ec235b keys=2/3e1239df00f2601e"},
        {"tune maeri64x16ws M-FC k1 sp0.5",
         "space=108 best=3x3x1x7x1x1x1x1/6795 "
         "greedy=3x3x1x7x1x1x1x1/6795 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=1fef835d88ec235b keys=2/54a6bfb8ab1d538c"},
        {"tune maeri64x16ws M-FC k8 sp0.0",
         "space=108 best=3x3x1x7x1x1x1x1/6795 "
         "greedy=3x3x1x7x1x1x1x1/6795 rho=bfcbf47650ff164f "
         "cold=0/8 warm=8/0 ranked=b34b31b1ba8ddbc1 keys=8/b6de1806867ffd85"},
        {"tune maeri64x16ws M-FC k8 sp0.5",
         "space=108 best=3x3x1x7x1x1x1x1/6795 "
         "greedy=3x3x1x7x1x1x1x1/6795 rho=bfcbf47650ff164f "
         "cold=0/8 warm=8/0 ranked=b34b31b1ba8ddbc1 keys=8/c6f9e0ef78dc3f7d"},
        {"tune maeri64x16ws M-L k1 sp0.0",
         "space=30 best=1x1x16x1x1x1x1x1/3308 "
         "greedy=1x1x64x1x1x1x1x1/3313 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=e641ca9fb6622307 keys=2/c892882004dc4b4a"},
        {"tune maeri64x16ws M-L k1 sp0.5",
         "space=30 best=1x1x16x1x1x1x1x1/3308 "
         "greedy=1x1x64x1x1x1x1x1/3313 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=e641ca9fb6622307 keys=2/106186bda2b76b1a"},
        {"tune maeri64x16ws M-L k8 sp0.0",
         "space=30 best=1x1x4x1x4x1x1x1/3234 "
         "greedy=1x1x64x1x1x1x1x1/3313 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=ba38a793e0157cdf keys=8/1509f255307f6337"},
        {"tune maeri64x16ws M-L k8 sp0.5",
         "space=30 best=1x1x4x1x4x1x1x1/3234 "
         "greedy=1x1x64x1x1x1x1x1/3313 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=ba38a793e0157cdf keys=8/423132256d704df7"},
        {"tune maeri64x16ws R-C k1 sp0.0",
         "space=254 best=3x3x7x1x1x1x1x1/224206 "
         "greedy=3x3x7x1x1x1x1x1/224206 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=255fdaca4506e659 keys=2/4915d1b8faacfe2c"},
        {"tune maeri64x16ws R-C k1 sp0.5",
         "space=254 best=3x3x7x1x1x1x1x1/224206 "
         "greedy=3x3x7x1x1x1x1x1/224206 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=255fdaca4506e659 keys=2/cb90c856962d5c1a"},
        {"tune maeri64x16ws R-C k8 sp0.0",
         "space=254 best=1x1x16x1x4x1x1x1/219743 "
         "greedy=3x3x7x1x1x1x1x1/224206 rho=bfda66a27a50d247 "
         "cold=0/9 warm=9/0 ranked=e94fa022e937a96e keys=9/bb2722a45ca206e2"},
        {"tune maeri64x16ws R-C k8 sp0.5",
         "space=254 best=1x1x16x1x4x1x1x1/219743 "
         "greedy=3x3x7x1x1x1x1x1/224206 rho=bfda66a27a50d247 "
         "cold=0/9 warm=9/0 ranked=e94fa022e937a96e keys=9/d64f7b0087589edb"},
        {"tune maeri64x16ws R-L k1 sp0.0",
         "space=30 best=1x1x16x1x1x1x1x1/6509 "
         "greedy=1x1x64x1x1x1x1x1/6514 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=76f8198482c53d7b keys=2/38be7919100411aa"},
        {"tune maeri64x16ws R-L k1 sp0.5",
         "space=30 best=1x1x16x1x1x1x1x1/6509 "
         "greedy=1x1x64x1x1x1x1x1/6514 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=76f8198482c53d7b keys=2/2e89a242a093d74c"},
        {"tune maeri64x16ws R-L k8 sp0.0",
         "space=30 best=1x1x4x1x4x1x1x1/6438 "
         "greedy=1x1x64x1x1x1x1x1/6514 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=c733aa019f653ebb keys=8/cd4aad2d9cc4927d"},
        {"tune maeri64x16ws R-L k8 sp0.5",
         "space=30 best=1x1x4x1x4x1x1x1/6438 "
         "greedy=1x1x64x1x1x1x1x1/6514 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=c733aa019f653ebb keys=8/6c5b2fbccef2844d"},
        {"tune maeri64x16ws S-EC k1 sp0.0",
         "space=78 best=1x1x16x1x4x1x1x1/45308 "
         "greedy=3x3x1x1x7x1x1x1/50452 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=cbcb9b2048d18ac3 keys=2/12261246c3cbd285"},
        {"tune maeri64x16ws S-EC k1 sp0.5",
         "space=78 best=1x1x16x1x4x1x1x1/45308 "
         "greedy=3x3x1x1x7x1x1x1/50452 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=cbcb9b2048d18ac3 keys=2/50ed913937edbd9b"},
        {"tune maeri64x16ws S-EC k8 sp0.0",
         "space=78 best=1x1x16x1x4x1x1x1/45308 "
         "greedy=3x3x1x1x7x1x1x1/50452 rho=3fe691a4eee735e7 "
         "cold=0/8 warm=8/0 ranked=0a80d0a95804c0eb keys=8/8b0d35aa2daf69c5"},
        {"tune maeri64x16ws S-EC k8 sp0.5",
         "space=78 best=1x1x16x1x4x1x1x1/45308 "
         "greedy=3x3x1x1x7x1x1x1/50452 rho=3fe691a4eee735e7 "
         "cold=0/8 warm=8/0 ranked=0a80d0a95804c0eb keys=8/5936289ea0e675bb"},
        {"tune maeri64x16ws S-SC k1 sp0.0",
         "space=37 best=1x1x16x1x4x1x1x1/4743 "
         "greedy=1x1x64x1x1x1x1x1/10829 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=49d8274699f46dfb keys=2/0b269681df3a9b35"},
        {"tune maeri64x16ws S-SC k1 sp0.5",
         "space=37 best=1x1x16x1x4x1x1x1/4743 "
         "greedy=1x1x64x1x1x1x1x1/10829 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=49d8274699f46dfb keys=2/4470a5e4f317ac29"},
        {"tune maeri64x16ws S-SC k8 sp0.0",
         "space=37 best=1x1x16x1x4x1x1x1/4743 "
         "greedy=1x1x64x1x1x1x1x1/10829 rho=3feb35162d9700c4 "
         "cold=0/8 warm=8/0 ranked=4b498b68d7381c6f keys=8/1e89ed58baa03275"},
        {"tune maeri64x16ws S-SC k8 sp0.5",
         "space=37 best=1x1x16x1x4x1x1x1/4743 "
         "greedy=1x1x64x1x1x1x1x1/10829 rho=3feb35162d9700c4 "
         "cold=0/8 warm=8/0 ranked=4b498b68d7381c6f keys=8/e946ce944cf8028b"},
        {"tune maeri_128_x2 B-L k1 sp0.0",
         "space=165 best=1x1x128x1x1x1x1x1/24588 "
         "greedy=1x1x128x1x1x1x1x1/24588 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=3faab006341d6bcc keys=1/d84db89ffce5a35c"},
        {"tune maeri_128_x2 B-L k1 sp0.5",
         "space=165 best=1x1x128x1x1x1x1x1/24588 "
         "greedy=1x1x128x1x1x1x1x1/24588 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=3faab006341d6bcc keys=1/487367d22c4973f5"},
        {"tune maeri_128_x2 B-L k8 sp0.0",
         "space=165 best=1x1x1x1x16x1x1x8/12487 "
         "greedy=1x1x128x1x1x1x1x1/24588 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=8e079e57df395a0d keys=8/431e4073a09c22a9"},
        {"tune maeri_128_x2 B-L k8 sp0.5",
         "space=165 best=1x1x1x1x16x1x1x8/12487 "
         "greedy=1x1x128x1x1x1x1x1/24588 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=8e079e57df395a0d keys=8/988be39bb9198c8f"},
        {"tune maeri_128_x2 B-TR k1 sp0.0",
         "space=228 best=1x1x128x1x1x1x1x1/4620 "
         "greedy=1x1x128x1x1x1x1x1/4620 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=11609286793314ea keys=1/f89e8db956388f55"},
        {"tune maeri_128_x2 B-TR k1 sp0.5",
         "space=228 best=1x1x128x1x1x1x1x1/4620 "
         "greedy=1x1x128x1x1x1x1x1/4620 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=11609286793314ea keys=1/8c6c5cd9e487499c"},
        {"tune maeri_128_x2 B-TR k8 sp0.0",
         "space=228 best=1x1x1x1x8x1x1x16/2345 "
         "greedy=1x1x128x1x1x1x1x1/4620 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=f9aa9767431f2967 keys=8/d4f082ab22a012e0"},
        {"tune maeri_128_x2 B-TR k8 sp0.5",
         "space=228 best=1x1x1x1x8x1x1x16/2345 "
         "greedy=1x1x128x1x1x1x1x1/4620 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=f9aa9767431f2967 keys=8/fe9c30f101666674"},
        {"tune maeri_128_x2 DW k1 sp0.0",
         "space=90 best=3x3x1x8x1x1x1x1/90 "
         "greedy=3x3x1x8x1x1x1x1/90 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=a96115b0296c11dd keys=2/ea2dc4d514378eed"},
        {"tune maeri_128_x2 DW k1 sp0.5",
         "space=90 best=3x3x1x8x1x1x1x1/90 "
         "greedy=3x3x1x8x1x1x1x1/90 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=a96115b0296c11dd keys=2/e79fe7a3ffa87797"},
        {"tune maeri_128_x2 DW k8 sp0.0",
         "space=90 best=1x3x1x4x1x1x9x1/86 "
         "greedy=3x3x1x8x1x1x1x1/90 rho=bfd1d3a60caf0ca7 "
         "cold=0/9 warm=9/0 ranked=32ef4caa3a1b79ec keys=9/aa9ce607feeb1c63"},
        {"tune maeri_128_x2 DW k8 sp0.5",
         "space=90 best=1x3x1x4x1x1x9x1/86 "
         "greedy=3x3x1x8x1x1x1x1/90 rho=bfd1d3a60caf0ca7 "
         "cold=0/9 warm=9/0 ranked=32ef4caa3a1b79ec keys=9/f94c070350894a6e"},
        {"tune maeri_128_x2 M-FC k1 sp0.0",
         "space=157 best=3x3x1x14x1x1x1x1/2077 "
         "greedy=3x3x1x14x1x1x1x1/2077 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=1ec3cd485af33f19 keys=2/dfc2d462afe5a830"},
        {"tune maeri_128_x2 M-FC k1 sp0.5",
         "space=157 best=3x3x1x14x1x1x1x1/2077 "
         "greedy=3x3x1x14x1x1x1x1/2077 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=1ec3cd485af33f19 keys=2/c1457e16cdd17190"},
        {"tune maeri_128_x2 M-FC k8 sp0.0",
         "space=157 best=3x3x1x1x1x1x14x1/1928 "
         "greedy=3x3x1x14x1x1x1x1/2077 rho=bfea83366935260e "
         "cold=0/9 warm=9/0 ranked=4c1ac9fdc2720758 keys=9/759edd5476a70c4d"},
        {"tune maeri_128_x2 M-FC k8 sp0.5",
         "space=157 best=3x3x1x1x1x1x14x1/1928 "
         "greedy=3x3x1x14x1x1x1x1/2077 rho=bfea83366935260e "
         "cold=0/9 warm=9/0 ranked=4c1ac9fdc2720758 keys=9/5c2ced680c736302"},
        {"tune maeri_128_x2 M-L k1 sp0.0",
         "space=39 best=1x1x128x1x1x1x1x1/912 "
         "greedy=1x1x128x1x1x1x1x1/912 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=3bf91c4c754816a6 keys=1/dd874f02da112bbd"},
        {"tune maeri_128_x2 M-L k1 sp0.5",
         "space=39 best=1x1x128x1x1x1x1x1/912 "
         "greedy=1x1x128x1x1x1x1x1/912 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=3bf91c4c754816a6 keys=1/7a8c2688d1e2d618"},
        {"tune maeri_128_x2 M-L k8 sp0.0",
         "space=39 best=1x1x16x1x4x1x1x1/836 "
         "greedy=1x1x128x1x1x1x1x1/912 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=0503719293932a37 keys=8/bb457f33ea84c8b7"},
        {"tune maeri_128_x2 M-L k8 sp0.5",
         "space=39 best=1x1x16x1x4x1x1x1/836 "
         "greedy=1x1x128x1x1x1x1x1/912 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=0503719293932a37 keys=8/3786fd2bd10eacd7"},
        {"tune maeri_128_x2 R-C k1 sp0.0",
         "space=408 best=1x1x16x1x2x1x2x2/56682 "
         "greedy=3x3x14x1x1x1x1x1/66381 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=195e35124892b0f3 keys=2/5dcc1520887aab58"},
        {"tune maeri_128_x2 R-C k1 sp0.5",
         "space=408 best=1x1x16x1x2x1x2x2/56682 "
         "greedy=3x3x14x1x1x1x1x1/66381 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=195e35124892b0f3 keys=2/723d41bf9e04d018"},
        {"tune maeri_128_x2 R-C k8 sp0.0",
         "space=408 best=1x1x16x1x8x1x1x1/56665 "
         "greedy=3x3x14x1x1x1x1x1/66381 rho=3fe1accef0ce195f "
         "cold=0/9 warm=9/0 ranked=ebc91c951867b3f6 keys=9/de250f01f97ea289"},
        {"tune maeri_128_x2 R-C k8 sp0.5",
         "space=408 best=1x1x16x1x8x1x1x1/56665 "
         "greedy=3x3x14x1x1x1x1x1/66381 rho=3fe1accef0ce195f "
         "cold=0/9 warm=9/0 ranked=ebc91c951867b3f6 keys=9/46e4c78847378410"},
        {"tune maeri_128_x2 R-L k1 sp0.0",
         "space=39 best=1x1x128x1x1x1x1x1/1713 "
         "greedy=1x1x128x1x1x1x1x1/1713 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=8fcfb438543d1c10 keys=1/a794e32ffdb95c57"},
        {"tune maeri_128_x2 R-L k1 sp0.5",
         "space=39 best=1x1x128x1x1x1x1x1/1713 "
         "greedy=1x1x128x1x1x1x1x1/1713 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=8fcfb438543d1c10 keys=1/1bcc1a4a180ce942"},
        {"tune maeri_128_x2 R-L k8 sp0.0",
         "space=39 best=1x1x16x1x4x1x1x1/1640 "
         "greedy=1x1x128x1x1x1x1x1/1713 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=cb468ce2e353e2a3 keys=8/548d1198b1870ca7"},
        {"tune maeri_128_x2 R-L k8 sp0.5",
         "space=39 best=1x1x16x1x4x1x1x1/1640 "
         "greedy=1x1x128x1x1x1x1x1/1713 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=cb468ce2e353e2a3 keys=8/d4365a19334eb7e7"},
        {"tune maeri_128_x2 S-EC k1 sp0.0",
         "space=114 best=1x1x16x1x8x1x1x1/12355 "
         "greedy=3x3x2x1x7x1x1x1/13712 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=3a969fad23076eb1 keys=2/9b2e73f020c6f1cc"},
        {"tune maeri_128_x2 S-EC k1 sp0.5",
         "space=114 best=1x1x16x1x8x1x1x1/12355 "
         "greedy=3x3x2x1x7x1x1x1/13712 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=3a969fad23076eb1 keys=2/b4168b941d4b01a6"},
        {"tune maeri_128_x2 S-EC k8 sp0.0",
         "space=114 best=1x1x16x1x8x1x1x1/12355 "
         "greedy=3x3x2x1x7x1x1x1/13712 rho=3fe74afc315db4ec "
         "cold=0/8 warm=8/0 ranked=c116fea18d2de4bd keys=8/a0b0ac1d91a61f08"},
        {"tune maeri_128_x2 S-EC k8 sp0.5",
         "space=114 best=1x1x16x1x8x1x1x1/12355 "
         "greedy=3x3x2x1x7x1x1x1/13712 rho=3fe74afc315db4ec "
         "cold=0/8 warm=8/0 ranked=c116fea18d2de4bd keys=8/6ecd558319c0f9ba"},
        {"tune maeri_128_x2 S-SC k1 sp0.0",
         "space=49 best=1x1x64x1x2x1x1x1/1363 "
         "greedy=1x1x64x1x2x1x1x1/1363 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=05ec0b2b327d3bdf keys=2/bcade7a15f8aa878"},
        {"tune maeri_128_x2 S-SC k1 sp0.5",
         "space=49 best=1x1x64x1x2x1x1x1/1363 "
         "greedy=1x1x64x1x2x1x1x1/1363 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=05ec0b2b327d3bdf keys=2/acf9125d207a3038"},
        {"tune maeri_128_x2 S-SC k8 sp0.0",
         "space=49 best=1x1x64x1x2x1x1x1/1363 "
         "greedy=1x1x64x1x2x1x1x1/1363 rho=3fec453d90f057a1 "
         "cold=0/8 warm=8/0 ranked=4d4946aba0080cc7 keys=8/018c448695e26544"},
        {"tune maeri_128_x2 S-SC k8 sp0.5",
         "space=49 best=1x1x64x1x2x1x1x1/1363 "
         "greedy=1x1x64x1x2x1x1x1/1363 rho=3fec453d90f057a1 "
         "cold=0/8 warm=8/0 ranked=4d4946aba0080cc7 keys=8/d381736de3ea25b4"},
        {"tune maeri_256 B-L k1 sp0.0",
         "space=224 best=1x1x128x1x2x1x1x1/6156 "
         "greedy=1x1x128x1x2x1x1x1/6156 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=fac8897cbfb3d4ed keys=2/e6879762d2990089"},
        {"tune maeri_256 B-L k1 sp0.5",
         "space=224 best=1x1x128x1x2x1x1x1/6156 "
         "greedy=1x1x128x1x2x1x1x1/6156 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=fac8897cbfb3d4ed keys=2/cea03e081496bc5b"},
        {"tune maeri_256 B-L k8 sp0.0",
         "space=224 best=1x1x128x1x2x1x1x1/6156 "
         "greedy=1x1x128x1x2x1x1x1/6156 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=c4c0a0a9228dd31d keys=8/1587982c415f336b"},
        {"tune maeri_256 B-L k8 sp0.5",
         "space=224 best=1x1x128x1x2x1x1x1/6156 "
         "greedy=1x1x128x1x2x1x1x1/6156 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=c4c0a0a9228dd31d keys=8/5fe8577a5b3ba129"},
        {"tune maeri_256 B-TR k1 sp0.0",
         "space=311 best=1x1x128x1x2x1x1x1/1164 "
         "greedy=1x1x128x1x2x1x1x1/1164 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=28894ad3ac50e57d keys=2/6ee4196277f9eb63"},
        {"tune maeri_256 B-TR k1 sp0.5",
         "space=311 best=1x1x128x1x2x1x1x1/1164 "
         "greedy=1x1x128x1x2x1x1x1/1164 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=28894ad3ac50e57d keys=2/7990de131062d503"},
        {"tune maeri_256 B-TR k8 sp0.0",
         "space=311 best=1x1x128x1x2x1x1x1/1164 "
         "greedy=1x1x128x1x2x1x1x1/1164 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=7dd326a834dae3fb keys=8/b38f1a73bee65b08"},
        {"tune maeri_256 B-TR k8 sp0.5",
         "space=311 best=1x1x128x1x2x1x1x1/1164 "
         "greedy=1x1x128x1x2x1x1x1/1164 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=7dd326a834dae3fb keys=8/1c93fa71e9fa2ece"},
        {"tune maeri_256 DW k1 sp0.0",
         "space=112 best=3x3x1x8x1x1x1x3/49 "
         "greedy=3x3x1x8x1x1x1x3/49 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=ce4dcd2d0cf4b52d keys=2/5cc554b95b4b68f4"},
        {"tune maeri_256 DW k1 sp0.5",
         "space=112 best=3x3x1x8x1x1x1x3/49 "
         "greedy=3x3x1x8x1x1x1x3/49 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=ce4dcd2d0cf4b52d keys=2/2a3a10cccb8f0cf4"},
        {"tune maeri_256 DW k8 sp0.0",
         "space=112 best=3x3x1x1x1x1x9x3/48 "
         "greedy=3x3x1x8x1x1x1x3/49 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=a2a259394a6e6fd6 keys=9/43b5ba9d78279e58"},
        {"tune maeri_256 DW k8 sp0.5",
         "space=112 best=3x3x1x1x1x1x9x3/48 "
         "greedy=3x3x1x8x1x1x1x3/49 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=a2a259394a6e6fd6 keys=9/a29d107664f67529"},
        {"tune maeri_256 M-FC k1 sp0.0",
         "space=210 best=3x3x1x28x1x1x1x1/1037 "
         "greedy=3x3x1x28x1x1x1x1/1037 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=f847f03c40df8e05 keys=2/322398d52c3dcfc0"},
        {"tune maeri_256 M-FC k1 sp0.5",
         "space=210 best=3x3x1x28x1x1x1x1/1037 "
         "greedy=3x3x1x28x1x1x1x1/1037 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=f847f03c40df8e05 keys=2/4158594cb2ed7e22"},
        {"tune maeri_256 M-FC k8 sp0.0",
         "space=210 best=3x3x1x2x1x1x14x1/968 "
         "greedy=3x3x1x28x1x1x1x1/1037 rho=bfe9952574c0f80f "
         "cold=0/9 warm=9/0 ranked=0f0187f1b04d27ce keys=9/3757b9073c14b96e"},
        {"tune maeri_256 M-FC k8 sp0.5",
         "space=210 best=3x3x1x2x1x1x14x1/968 "
         "greedy=3x3x1x28x1x1x1x1/1037 rho=bfe9952574c0f80f "
         "cold=0/9 warm=9/0 ranked=0f0187f1b04d27ce keys=9/6260c81b67aa5ce5"},
        {"tune maeri_256 M-L k1 sp0.0",
         "space=48 best=1x1x128x1x1x1x1x1/511 "
         "greedy=1x1x256x1x1x1x1x1/513 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=9d58f29ad9df8111 keys=2/20a8d4538433c103"},
        {"tune maeri_256 M-L k1 sp0.5",
         "space=48 best=1x1x128x1x1x1x1x1/511 "
         "greedy=1x1x256x1x1x1x1x1/513 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=9d58f29ad9df8111 keys=2/c0e05f2ae83ba36f"},
        {"tune maeri_256 M-L k8 sp0.0",
         "space=48 best=1x1x32x1x4x1x1x1/437 "
         "greedy=1x1x256x1x1x1x1x1/513 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=156461f78e29c66b keys=8/7257cfd31d02e0c7"},
        {"tune maeri_256 M-L k8 sp0.5",
         "space=48 best=1x1x32x1x4x1x1x1/437 "
         "greedy=1x1x256x1x1x1x1x1/513 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=156461f78e29c66b keys=8/6d5fe55198538e97"},
        {"tune maeri_256 R-C k1 sp0.0",
         "space=610 best=1x1x16x1x16x1x1x1/28350 "
         "greedy=3x3x14x1x2x1x1x1/31502 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=af696933dbdd8023 keys=2/1e9a3b22c3c60bad"},
        {"tune maeri_256 R-C k1 sp0.5",
         "space=610 best=1x1x16x1x16x1x1x1/28350 "
         "greedy=3x3x14x1x2x1x1x1/31502 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=af696933dbdd8023 keys=2/c4794a6e0e0a2393"},
        {"tune maeri_256 R-C k8 sp0.0",
         "space=610 best=1x1x16x1x8x1x1x2/28344 "
         "greedy=3x3x14x1x2x1x1x1/31502 rho=3fe1accef0ce195f "
         "cold=0/9 warm=9/0 ranked=94479151c79af7d6 keys=9/938a3c85260d359e"},
        {"tune maeri_256 R-C k8 sp0.5",
         "space=610 best=1x1x16x1x8x1x1x2/28344 "
         "greedy=3x3x14x1x2x1x1x1/31502 rho=3fe1accef0ce195f "
         "cold=0/9 warm=9/0 ranked=94479151c79af7d6 keys=9/d11dc10f0320a693"},
        {"tune maeri_256 R-L k1 sp0.0",
         "space=48 best=1x1x128x1x1x1x1x1/912 "
         "greedy=1x1x256x1x1x1x1x1/914 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=2a91bbf5701bee5d keys=2/a6fc7f979e546651"},
        {"tune maeri_256 R-L k1 sp0.5",
         "space=48 best=1x1x128x1x1x1x1x1/912 "
         "greedy=1x1x256x1x1x1x1x1/914 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=2a91bbf5701bee5d keys=2/52b170fd15c1ae17"},
        {"tune maeri_256 R-L k8 sp0.0",
         "space=48 best=1x1x32x1x4x1x1x1/841 "
         "greedy=1x1x256x1x1x1x1x1/914 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=d0aaf92e82ce54b1 keys=8/dcc640244f68b883"},
        {"tune maeri_256 R-L k8 sp0.5",
         "space=48 best=1x1x32x1x4x1x1x1/841 "
         "greedy=1x1x256x1x1x1x1x1/914 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=d0aaf92e82ce54b1 keys=8/3b31835cb43229cf"},
        {"tune maeri_256 S-EC k1 sp0.0",
         "space=159 best=1x1x16x1x16x1x1x1/6185 "
         "greedy=3x3x4x1x7x1x1x1/6867 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=123429aeca8ae0e1 keys=2/be4cfeb00315a500"},
        {"tune maeri_256 S-EC k1 sp0.5",
         "space=159 best=1x1x16x1x16x1x1x1/6185 "
         "greedy=3x3x4x1x7x1x1x1/6867 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=123429aeca8ae0e1 keys=2/41ee029fc2025570"},
        {"tune maeri_256 S-EC k8 sp0.0",
         "space=159 best=1x1x16x1x16x1x1x1/6185 "
         "greedy=3x3x4x1x7x1x1x1/6867 rho=3fe9306acdb9c18f "
         "cold=0/8 warm=8/0 ranked=2f98577847d37421 keys=8/cc8ed5840eea33d1"},
        {"tune maeri_256 S-EC k8 sp0.5",
         "space=159 best=1x1x16x1x16x1x1x1/6185 "
         "greedy=3x3x4x1x7x1x1x1/6867 rho=3fe9306acdb9c18f "
         "cold=0/8 warm=8/0 ranked=2f98577847d37421 keys=8/c2a6cdc4e1d164a7"},
        {"tune maeri_256 S-SC k1 sp0.0",
         "space=63 best=1x1x64x1x4x1x1x1/687 "
         "greedy=1x1x64x1x4x1x1x1/687 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=d03c8e540d993fc5 keys=2/ca284aaff33dcbec"},
        {"tune maeri_256 S-SC k1 sp0.5",
         "space=63 best=1x1x64x1x4x1x1x1/687 "
         "greedy=1x1x64x1x4x1x1x1/687 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=d03c8e540d993fc5 keys=2/943181f638ebcdc2"},
        {"tune maeri_256 S-SC k8 sp0.0",
         "space=63 best=1x1x64x1x4x1x1x1/687 "
         "greedy=1x1x64x1x4x1x1x1/687 rho=3fec10dbfab3c883 "
         "cold=0/8 warm=8/0 ranked=7243193afb1a2523 keys=8/eba9d695c76dc822"},
        {"tune maeri_256 S-SC k8 sp0.5",
         "space=63 best=1x1x64x1x4x1x1x1/687 "
         "greedy=1x1x64x1x4x1x1x1/687 rho=3fec10dbfab3c883 "
         "cold=0/8 warm=8/0 ranked=7243193afb1a2523 keys=8/2bee71d27b0a1896"},
        {"tune tpu_256 B-L k1 sp0.0",
         "space=224 best=1x1x128x1x1x1x1x2/7776 "
         "greedy=1x1x128x1x2x1x1x1/7776 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=a03d65156eabd315 keys=2/458c3ae1a2670bf5"},
        {"tune tpu_256 B-L k1 sp0.5",
         "space=224 best=1x1x128x1x1x1x1x2/7776 "
         "greedy=1x1x128x1x2x1x1x1/7776 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=a03d65156eabd315 keys=2/353d932eb007109b"},
        {"tune tpu_256 B-L k8 sp0.0",
         "space=224 best=1x1x128x1x1x1x1x2/7776 "
         "greedy=1x1x128x1x2x1x1x1/7776 rho=3ff0000000000000 "
         "cold=0/8 warm=8/0 ranked=21fd41e5d6402c0d keys=8/2aee8f4ec6dc2b7b"},
        {"tune tpu_256 B-L k8 sp0.5",
         "space=224 best=1x1x128x1x1x1x1x2/7776 "
         "greedy=1x1x128x1x2x1x1x1/7776 rho=3ff0000000000000 "
         "cold=0/8 warm=8/0 ranked=21fd41e5d6402c0d keys=8/efda46b8fbecc341"},
        {"tune tpu_256 B-TR k1 sp0.0",
         "space=311 best=1x1x128x1x1x1x1x2/1458 "
         "greedy=1x1x128x1x2x1x1x1/1458 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=6353cf80f328cc61 keys=2/ece775f1481bdf7b"},
        {"tune tpu_256 B-TR k1 sp0.5",
         "space=311 best=1x1x128x1x1x1x1x2/1458 "
         "greedy=1x1x128x1x2x1x1x1/1458 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=6353cf80f328cc61 keys=2/03ef87550997e957"},
        {"tune tpu_256 B-TR k8 sp0.0",
         "space=311 best=1x1x128x1x1x1x1x2/1458 "
         "greedy=1x1x128x1x2x1x1x1/1458 rho=3ff0000000000000 "
         "cold=0/8 warm=8/0 ranked=1c4b3f13c9a8d3a3 keys=8/90aa7af5a6a82a20"},
        {"tune tpu_256 B-TR k8 sp0.5",
         "space=311 best=1x1x128x1x1x1x1x2/1458 "
         "greedy=1x1x128x1x2x1x1x1/1458 rho=3ff0000000000000 "
         "cold=0/8 warm=8/0 ranked=1c4b3f13c9a8d3a3 keys=8/59ecbd581b75582e"},
        {"tune tpu_256 DW k1 sp0.0",
         "space=112 best=1x3x1x1x1x1x9x9/1224 "
         "greedy=3x3x1x8x1x1x1x3/1224 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=d1b942bcf137747d keys=2/330111ac37251268"},
        {"tune tpu_256 DW k1 sp0.5",
         "space=112 best=1x3x1x1x1x1x9x9/1224 "
         "greedy=3x3x1x8x1x1x1x3/1224 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=d1b942bcf137747d keys=2/ccd1303b6fe64684"},
        {"tune tpu_256 DW k8 sp0.0",
         "space=112 best=1x3x1x1x1x1x9x9/1224 "
         "greedy=3x3x1x8x1x1x1x3/1224 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=550202fe8eaa19ea keys=9/e79b61df3101c94e"},
        {"tune tpu_256 DW k8 sp0.5",
         "space=112 best=1x3x1x1x1x1x9x9/1224 "
         "greedy=3x3x1x8x1x1x1x3/1224 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=550202fe8eaa19ea keys=9/6b0fce249f02b617"},
        {"tune tpu_256 M-FC k1 sp0.0",
         "space=210 best=1x1x1x128x1x1x1x2/45056 "
         "greedy=3x3x1x28x1x1x1x1/45056 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=bf44d78b074e0a75 keys=2/049f06e1e827ca3c"},
        {"tune tpu_256 M-FC k1 sp0.5",
         "space=210 best=1x1x1x128x1x1x1x2/45056 "
         "greedy=3x3x1x28x1x1x1x1/45056 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=bf44d78b074e0a75 keys=2/9db58bed638ea482"},
        {"tune tpu_256 M-FC k8 sp0.0",
         "space=210 best=1x1x1x128x1x1x1x2/45056 "
         "greedy=3x3x1x28x1x1x1x1/45056 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=1d5d407ecdd5187c keys=9/c2ca5b5709652c88"},
        {"tune tpu_256 M-FC k8 sp0.5",
         "space=210 best=1x1x1x128x1x1x1x2/45056 "
         "greedy=3x3x1x28x1x1x1x1/45056 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=1d5d407ecdd5187c keys=9/4280eaf617a82d6b"},
        {"tune tpu_256 M-L k1 sp0.0",
         "space=48 best=1x1x128x1x2x1x1x1/3705 "
         "greedy=1x1x256x1x1x1x1x1/3705 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=e7789fe225fccfb9 keys=2/cd24960b33c0d1c6"},
        {"tune tpu_256 M-L k1 sp0.5",
         "space=48 best=1x1x128x1x2x1x1x1/3705 "
         "greedy=1x1x256x1x1x1x1x1/3705 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=e7789fe225fccfb9 keys=2/e2cc1607ab063d36"},
        {"tune tpu_256 M-L k8 sp0.0",
         "space=48 best=1x1x128x1x2x1x1x1/3705 "
         "greedy=1x1x256x1x1x1x1x1/3705 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=b7bca78f4f5e0ee7 keys=8/be5996aa3586e625"},
        {"tune tpu_256 M-L k8 sp0.5",
         "space=48 best=1x1x128x1x2x1x1x1/3705 "
         "greedy=1x1x256x1x1x1x1x1/3705 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=b7bca78f4f5e0ee7 keys=8/948a83cbf0cce429"},
        {"tune tpu_256 R-C k1 sp0.0",
         "space=610 best=1x1x16x1x16x1x1x1/31672 "
         "greedy=3x3x14x1x2x1x1x1/31672 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=0fc986b46a159e3b keys=2/4396a83a56769a11"},
        {"tune tpu_256 R-C k1 sp0.5",
         "space=610 best=1x1x16x1x16x1x1x1/31672 "
         "greedy=3x3x14x1x2x1x1x1/31672 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=0fc986b46a159e3b keys=2/cd0348322cbfe643"},
        {"tune tpu_256 R-C k8 sp0.0",
         "space=610 best=1x1x16x1x16x1x1x1/31672 "
         "greedy=3x3x14x1x2x1x1x1/31672 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=fb845571e7cbc2ec keys=9/bba5b9a6c236559c"},
        {"tune tpu_256 R-C k8 sp0.5",
         "space=610 best=1x1x16x1x16x1x1x1/31672 "
         "greedy=3x3x14x1x2x1x1x1/31672 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=fb845571e7cbc2ec keys=9/e0398e17050b5ca1"},
        {"tune tpu_256 R-L k1 sp0.0",
         "space=48 best=1x1x128x1x2x1x1x1/7289 "
         "greedy=1x1x256x1x1x1x1x1/7289 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=8127fa5ff8c28d3d keys=2/01c6eaa4f80a6fba"},
        {"tune tpu_256 R-L k1 sp0.5",
         "space=48 best=1x1x128x1x2x1x1x1/7289 "
         "greedy=1x1x256x1x1x1x1x1/7289 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=8127fa5ff8c28d3d keys=2/1f3260c95dfad3e0"},
        {"tune tpu_256 R-L k8 sp0.0",
         "space=48 best=1x1x128x1x2x1x1x1/7289 "
         "greedy=1x1x256x1x1x1x1x1/7289 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=3b0de530b69e69a7 keys=8/9535360786dbb27b"},
        {"tune tpu_256 R-L k8 sp0.5",
         "space=48 best=1x1x128x1x2x1x1x1/7289 "
         "greedy=1x1x256x1x1x1x1x1/7289 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=3b0de530b69e69a7 keys=8/03df565b7ef775db"},
        {"tune tpu_256 S-EC k1 sp0.0",
         "space=159 best=1x1x16x1x16x1x1x1/7804 "
         "greedy=3x3x4x1x7x1x1x1/7804 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=e8cdfb8b47f76541 keys=2/bf5e45f45770d758"},
        {"tune tpu_256 S-EC k1 sp0.5",
         "space=159 best=1x1x16x1x16x1x1x1/7804 "
         "greedy=3x3x4x1x7x1x1x1/7804 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=e8cdfb8b47f76541 keys=2/b5d88c37d9e6e084"},
        {"tune tpu_256 S-EC k8 sp0.0",
         "space=159 best=1x1x16x1x16x1x1x1/7804 "
         "greedy=3x3x4x1x7x1x1x1/7804 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=9b064ab0ce1a1d2d keys=8/1eacdf6489d18601"},
        {"tune tpu_256 S-EC k8 sp0.5",
         "space=159 best=1x1x16x1x16x1x1x1/7804 "
         "greedy=3x3x4x1x7x1x1x1/7804 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=9b064ab0ce1a1d2d keys=8/c800923d92b99f5f"},
        {"tune tpu_256 S-SC k1 sp0.0",
         "space=63 best=1x1x16x1x16x1x1x1/1071 "
         "greedy=1x1x64x1x4x1x1x1/1071 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=80b12f866f11a035 keys=2/f459ca39d6dff748"},
        {"tune tpu_256 S-SC k1 sp0.5",
         "space=63 best=1x1x16x1x16x1x1x1/1071 "
         "greedy=1x1x64x1x4x1x1x1/1071 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=80b12f866f11a035 keys=2/7d3699510d1858e2"},
        {"tune tpu_256 S-SC k8 sp0.0",
         "space=63 best=1x1x16x1x16x1x1x1/1071 "
         "greedy=1x1x64x1x4x1x1x1/1071 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=811e77292a25466f keys=8/ef51e634ec69b22e"},
        {"tune tpu_256 S-SC k8 sp0.5",
         "space=63 best=1x1x16x1x16x1x1x1/1071 "
         "greedy=1x1x64x1x4x1x1x1/1071 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=811e77292a25466f keys=8/62f7332b73d41072"},
    };
    return table;
}

void
expectGolden(const std::string &key, const std::string &actual)
{
    const auto it = goldens().find(key);
    if (it == goldens().end()) {
        ADD_FAILURE() << "no golden for\n        {\"" << key << "\",\n"
                      << "         \"" << actual << "\"},";
        return;
    }
    EXPECT_EQ(it->second, actual)
        << "golden mismatch for\n        {\"" << key << "\",\n"
        << "         \"" << actual << "\"},";
}

std::string
testName(std::string s)
{
    for (char &c : s)
        if (c == '-' || c == ' ')
            c = '_';
    return s;
}

// --- tune ------------------------------------------------------------

struct NamedConfig {
    std::string tag;
    HardwareConfig cfg;
};

std::vector<NamedConfig>
tuneConfigs()
{
    HardwareConfig ws = HardwareConfig::maeriLike(64, 16);
    ws.dataflow = Dataflow::WeightStationary;
    return {
        {"maeri128x1", HardwareConfig::maeriLike(128, 1)},
        {"maeri64x16ws", ws},
        {"maeri_256", HardwareConfig::parseFile("configs/maeri_256.cfg")},
        {"maeri_128_x2",
         HardwareConfig::parseFile("configs/maeri_128_x2.cfg")},
        {"tpu_256", HardwareConfig::parseFile("configs/tpu_256.cfg")},
    };
}

/** The Figure 1 convolutions, linears and GEMM, plus a small
 *  depthwise convolution. */
std::vector<NamedLayer>
tuneLayers()
{
    std::vector<NamedLayer> out = fig1Layers();
    Conv2dShape s;
    s.R = 3;
    s.S = 3;
    s.C = 8;
    s.K = 8;
    s.G = 8;
    s.X = 9;
    s.Y = 9;
    s.padding = 1;
    out.push_back({"DW", LayerSpec::convolution("dw", s)});
    return out;
}

/** Outcome bits of every ranked entry, in report order. */
void
mixRanked(Fnv &f, const TuneReport &rep)
{
    f.u64(rep.ranked.size());
    for (const golden::EvaluatedTile &et : rep.ranked) {
        f.text(et.tile.canonical());
        f.u64(et.analytical_cycles);
        f.u64(et.simulated_cycles);
        f.real(et.energy_uj);
        f.real(et.area_um2);
        f.real(et.ms_utilization);
        f.u64(et.from_cache ? 1 : 0);
    }
}

/**
 * The cache keys the search must have inserted (one per evaluated
 * tile): each must be present, nothing else may be, and the digest of
 * their sorted texts pins the key surface.
 */
std::string
keyDigest(const HardwareConfig &cfg, const LayerSpec &layer,
          const SearchOptions &opts, const TuneReport &rep,
          const explore::ResultCache &cache)
{
    std::vector<std::string> keys;
    const std::string policy =
        explore::ResultCache::policyText(opts.seed, opts.sparsity);
    for (const golden::EvaluatedTile &et : rep.ranked) {
        keys.push_back(
            explore::ResultCache::keyText(cfg, layer, et.tile, policy));
        EXPECT_TRUE(cache.lookup(keys.back()).has_value())
            << et.tile.canonical();
    }
    EXPECT_EQ(cache.size(), keys.size());
    std::sort(keys.begin(), keys.end());
    Fnv f;
    for (const std::string &k : keys)
        f.text(k);
    return std::to_string(keys.size()) + "/" + hex(f.h);
}

class TuneGolden : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TuneGolden, SearchResultsArePinned)
{
    const std::string cfg_tag = GetParam().substr(0, GetParam().find(' '));
    const std::string layer_tag =
        GetParam().substr(GetParam().find(' ') + 1);
    HardwareConfig cfg;
    for (const NamedConfig &c : tuneConfigs())
        if (c.tag == cfg_tag)
            cfg = c.cfg;
    NamedLayer layer;
    for (const NamedLayer &l : tuneLayers())
        if (l.tag == layer_tag)
            layer = l;
    ASSERT_FALSE(layer.tag.empty());

    for (const index_t top_k : {1, 8}) {
        for (const double sparsity : {0.0, 0.5}) {
            SearchOptions opts;
            opts.top_k = top_k;
            opts.threads = 1;
            opts.sparsity = sparsity;
            opts.seed = 1;
            explore::ResultCache cache; // fresh and in memory
            const TuneReport cold = golden::tune(cfg, opts, cache,
                                                 layer.spec);
            const TuneReport warm = golden::tune(cfg, opts, cache,
                                                 layer.spec);

            // The warm leg answers every entry from the cache and
            // reports the same outcome.
            ASSERT_EQ(cold.ranked.size(), warm.ranked.size());
            for (std::size_t i = 0; i < cold.ranked.size(); ++i) {
                EXPECT_EQ(cold.ranked[i].tile, warm.ranked[i].tile);
                EXPECT_FALSE(cold.ranked[i].from_cache);
                EXPECT_TRUE(warm.ranked[i].from_cache);
            }

            Fnv ranked;
            mixRanked(ranked, cold);
            mixRanked(ranked, warm);
            char line[512];
            std::snprintf(
                line, sizeof line,
                "space=%llu best=%s/%llu greedy=%s/%llu rho=%s "
                "cold=%llu/%llu warm=%llu/%llu ranked=%s keys=%s",
                static_cast<unsigned long long>(cold.space_size),
                cold.best.canonical().c_str(),
                static_cast<unsigned long long>(cold.best_cycles),
                cold.greedy_tile.canonical().c_str(),
                static_cast<unsigned long long>(cold.greedy_cycles),
                hex(bitsOf(cold.rank_correlation)).c_str(),
                static_cast<unsigned long long>(cold.cache_hits),
                static_cast<unsigned long long>(cold.simulations_run),
                static_cast<unsigned long long>(warm.cache_hits),
                static_cast<unsigned long long>(warm.simulations_run),
                hex(ranked.h).c_str(),
                keyDigest(cfg, layer.spec, opts, warm, cache).c_str());
            char key[96];
            std::snprintf(key, sizeof key, "tune %s %s k%lld sp%.1f",
                          cfg_tag.c_str(), layer.tag.c_str(),
                          static_cast<long long>(top_k), sparsity);
            expectGolden(key, line);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Points, TuneGolden, ::testing::ValuesIn([] {
        std::vector<std::string> points;
        for (const NamedConfig &c : tuneConfigs())
            for (const NamedLayer &l : tuneLayers())
                points.push_back(c.tag + " " + l.tag);
        return points;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return testName(info.param);
    });

// --- explore ---------------------------------------------------------

/** Every point's outcome, in report order. */
std::string
pointsDigest(const explore::ExploreReport &rep)
{
    Fnv f;
    f.u64(rep.points.size());
    for (const explore::ExplorePoint &p : rep.points) {
        f.text(p.label);
        f.text(p.tile.canonical());
        f.u64(p.analytical_cycles);
        f.u64(p.simulated_cycles);
        f.real(p.energy_uj);
        f.real(p.area_um2);
        f.u64(p.on_frontier ? 1 : 0);
        Fnv text;
        text.text(p.config_text);
        f.u64(text.h);
    }
    return hex(f.h);
}

class ExploreGolden : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ExploreGolden, SearchResultsArePinned)
{
    NamedLayer layer;
    for (const NamedLayer &l : tuneLayers())
        if (l.tag == GetParam())
            layer = l;
    ASSERT_FALSE(layer.tag.empty());
    const HardwareConfig cfg =
        HardwareConfig::parseFile("configs/maeri_256.cfg");

    for (const char *axes : {"default", "ms_size,fabric"}) {
        for (const index_t top_k : {1, 4}) {
            explore::ExploreOptions opts;
            if (std::string(axes) != "default")
                opts.axes = axes;
            opts.top_k = top_k;
            opts.threads = 1;
            explore::ResultCache cache;
            explore::Explorer cold_explorer(cfg, opts, cache);
            const explore::ExploreReport cold =
                cold_explorer.exploreLayer(layer.spec);
            explore::Explorer warm_explorer(cfg, opts, cache);
            const explore::ExploreReport warm =
                warm_explorer.exploreLayer(layer.spec);
            EXPECT_EQ(cache.size(), cold.simulations_run);

            char line[256];
            std::snprintf(
                line, sizeof line,
                "variants=%zu space=%zu cold=%zu/%zu warm=%zu/%zu "
                "frontier=%zu points=%s",
                cold.variants, cold.space_size, cold.cache_hits,
                cold.simulations_run, warm.cache_hits,
                warm.simulations_run, cold.frontier.size(),
                pointsDigest(cold).c_str());
            char key[96];
            std::snprintf(key, sizeof key, "explore maeri_256 %s %s k%lld",
                          layer.tag.c_str(), axes,
                          static_cast<long long>(top_k));
            expectGolden(key, line);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Layers, ExploreGolden,
                         ::testing::Values("S-EC", "M-L", "B-TR"),
                         [](const ::testing::TestParamInfo<std::string>
                                &info) { return testName(info.param); });

// --- service ---------------------------------------------------------

/** The `summary` object of one search job through the daemon. */
std::string
serviceSummary(const std::string &request)
{
    std::ostringstream out;
    service::ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_workers = 1;
    service::ServiceDaemon daemon(opts, out);
    EXPECT_TRUE(daemon.handleLine(request));
    daemon.finish();

    std::istringstream in(out.str());
    std::string line;
    while (std::getline(in, line)) {
        const JsonValue r = JsonValue::parse(line);
        const JsonValue *type = r.find("type");
        if (type && type->asString() == "result") {
            const JsonValue *summary = r.find("summary");
            return summary ? summary->dumpLine() : "no summary";
        }
    }
    return "no result";
}

TEST(SearchServiceGolden, SummaryObjectsArePinned)
{
    const std::string conv =
        R"({"kind":"conv","name":"svc","R":3,"S":3,"C":4,"K":8,)"
        R"("X":8,"Y":8,"pad":1})";
    const std::string tune = serviceSummary(
        R"({"type":"tune","id":"t","top_k":3,"sparsity":0.5,"layer":)" +
        conv + "}");
    expectGolden("service tune", tune);

    const std::string explore = serviceSummary(
        R"({"type":"explore","id":"e","top_k":1,)"
        R"("axes":"dn_bandwidth=8:16","layer":)" +
        conv + "}");
    Fnv f;
    f.text(explore);
    expectGolden("service explore",
                 std::to_string(explore.size()) + "/" + hex(f.h));
}

} // namespace
} // namespace stonne
