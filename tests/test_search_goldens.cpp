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
         "frontier=2 points=bd63273b8d795e76"},
        {"explore maeri_256 B-TR default k4",
         "variants=66 space=16425 "
         "cold=0/11 warm=11/0 "
         "frontier=2 points=caf3df64b9f7a370"},
        {"explore maeri_256 B-TR ms_size,fabric k1",
         "variants=4 space=541 "
         "cold=0/4 warm=4/0 "
         "frontier=3 points=4ed60142207a71a7"},
        {"explore maeri_256 B-TR ms_size,fabric k4",
         "variants=4 space=541 "
         "cold=0/4 warm=4/0 "
         "frontier=3 points=4ed60142207a71a7"},
        {"explore maeri_256 M-L default k1",
         "variants=66 space=2709 "
         "cold=0/3 warm=3/0 "
         "frontier=2 points=0844eb6e25628f75"},
        {"explore maeri_256 M-L default k4",
         "variants=66 space=2709 "
         "cold=0/9 warm=9/0 "
         "frontier=2 points=b5e2a41462e7b0e4"},
        {"explore maeri_256 M-L ms_size,fabric k1",
         "variants=4 space=89 "
         "cold=0/2 warm=2/0 "
         "frontier=2 points=5676af32f58f8da5"},
        {"explore maeri_256 M-L ms_size,fabric k4",
         "variants=4 space=89 "
         "cold=0/4 warm=4/0 "
         "frontier=2 points=056cd70eeb4ed740"},
        {"explore maeri_256 S-EC default k1",
         "variants=66 space=8307 "
         "cold=0/3 warm=3/0 "
         "frontier=3 points=1940f55972f9072c"},
        {"explore maeri_256 S-EC default k4",
         "variants=66 space=8307 "
         "cold=0/11 warm=11/0 "
         "frontier=5 points=665237b51936a333"},
        {"explore maeri_256 S-EC ms_size,fabric k1",
         "variants=4 space=275 "
         "cold=0/3 warm=3/0 "
         "frontier=3 points=cf997b33576da2d5"},
        {"explore maeri_256 S-EC ms_size,fabric k4",
         "variants=4 space=275 "
         "cold=0/4 warm=4/0 "
         "frontier=3 points=da7d81c8f3eb2ae0"},
        {"service explore",
         "871/1171eadd3a5a9c0c"},
        {"service tune",
         R"({"chosen_tile":"3x3x2x1x3x1x1x1","chosen_cycles":428,)"
         R"("greedy_tile":"3x3x2x1x3x1x1x1","greedy_cycles":428,)"
         R"("space_size":270,"evaluated":4,"cache_hits":0,)"
         R"("simulations_run":4,"rank_correlation":-0.816497})"},
        {"tune maeri128x1 B-L k1 sp0.0",
         "space=165 best=1x1x128x1x1x1x1x1/1573002 "
         "greedy=1x1x128x1x1x1x1x1/1573002 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=43876ab5a280ecf0 keys=1/63dcebd57de16c67"},
        {"tune maeri128x1 B-L k1 sp0.5",
         "space=165 best=1x1x128x1x1x1x1x1/1573002 "
         "greedy=1x1x128x1x1x1x1x1/1573002 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=43876ab5a280ecf0 keys=1/c301fbaf8014acc2"},
        {"tune maeri128x1 B-L k8 sp0.0",
         "space=165 best=1x1x16x1x2x1x1x2/798759 "
         "greedy=1x1x128x1x1x1x1x1/1573002 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=0f1445ad84447829 keys=8/f558c3523501e44e"},
        {"tune maeri128x1 B-L k8 sp0.5",
         "space=165 best=1x1x16x1x2x1x1x2/798759 "
         "greedy=1x1x128x1x1x1x1x1/1573002 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=0f1445ad84447829 keys=8/8fb45bde21fb4db6"},
        {"tune maeri128x1 B-TR k1 sp0.0",
         "space=228 best=1x1x128x1x1x1x1x1/295050 "
         "greedy=1x1x128x1x1x1x1x1/295050 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=5cdea6516c786bc2 keys=1/3ba9faf422f4adec"},
        {"tune maeri128x1 B-TR k1 sp0.5",
         "space=228 best=1x1x128x1x1x1x1x1/295050 "
         "greedy=1x1x128x1x1x1x1x1/295050 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=5cdea6516c786bc2 keys=1/4d9fa45ae6e2b925"},
        {"tune maeri128x1 B-TR k8 sp0.0",
         "space=228 best=1x1x16x1x2x1x1x2/149799 "
         "greedy=1x1x128x1x1x1x1x1/295050 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=9c6dbabbe8b51a59 keys=8/5028f6a1dce78470"},
        {"tune maeri128x1 B-TR k8 sp0.5",
         "space=228 best=1x1x16x1x2x1x1x2/149799 "
         "greedy=1x1x128x1x1x1x1x1/295050 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=9c6dbabbe8b51a59 keys=8/2e35c1eaf6dc7258"},
        {"tune maeri128x1 DW k1 sp0.0",
         "space=90 best=3x3x1x8x1x1x1x1/1951 "
         "greedy=3x3x1x8x1x1x1x1/1951 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=ab12c77a1fd37c75 keys=2/6b7f6a0808e05080"},
        {"tune maeri128x1 DW k1 sp0.5",
         "space=90 best=3x3x1x8x1x1x1x1/1951 "
         "greedy=3x3x1x8x1x1x1x1/1951 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=ab12c77a1fd37c75 keys=2/35ae73b17a746cd0"},
        {"tune maeri128x1 DW k8 sp0.0",
         "space=90 best=3x3x1x8x1x1x1x1/1951 "
         "greedy=3x3x1x8x1x1x1x1/1951 rho=bfe199c1a6e08c2f "
         "cold=0/9 warm=9/0 ranked=8e6918b41300d268 keys=9/673628dcef1a8b97"},
        {"tune maeri128x1 DW k8 sp0.5",
         "space=90 best=3x3x1x8x1x1x1x1/1951 "
         "greedy=3x3x1x8x1x1x1x1/1951 rho=bfe199c1a6e08c2f "
         "cold=0/9 warm=9/0 ranked=8e6918b41300d268 keys=9/2391e9d6c223d9b2"},
        {"tune maeri128x1 M-FC k1 sp0.0",
         "space=157 best=3x3x1x14x1x1x1x1/73605 "
         "greedy=3x3x1x14x1x1x1x1/73605 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=b6033b483eec0781 keys=2/b7fce4d6db3103b4"},
        {"tune maeri128x1 M-FC k1 sp0.5",
         "space=157 best=3x3x1x14x1x1x1x1/73605 "
         "greedy=3x3x1x14x1x1x1x1/73605 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=b6033b483eec0781 keys=2/aa578cf238c950ca"},
        {"tune maeri128x1 M-FC k8 sp0.0",
         "space=157 best=3x3x1x1x1x1x14x1/73488 "
         "greedy=3x3x1x14x1x1x1x1/73605 rho=bfebc053a3ded1b5 "
         "cold=0/9 warm=9/0 ranked=a77489d0ba99ecb4 keys=9/fd57714abb259aae"},
        {"tune maeri128x1 M-FC k8 sp0.5",
         "space=157 best=3x3x1x1x1x1x14x1/73488 "
         "greedy=3x3x1x14x1x1x1x1/73605 rho=bfebc053a3ded1b5 "
         "cold=0/9 warm=9/0 ranked=a77489d0ba99ecb4 keys=9/d34bbeb25a4e24e5"},
        {"tune maeri128x1 M-L k1 sp0.0",
         "space=39 best=1x1x128x1x1x1x1x1/51438 "
         "greedy=1x1x128x1x1x1x1x1/51438 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=2f96da313525f270 keys=1/6cc688b5cbcf6c54"},
        {"tune maeri128x1 M-L k1 sp0.5",
         "space=39 best=1x1x128x1x1x1x1x1/51438 "
         "greedy=1x1x128x1x1x1x1x1/51438 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=2f96da313525f270 keys=1/c8f595bd88c54551"},
        {"tune maeri128x1 M-L k8 sp0.0",
         "space=39 best=1x1x1x1x1x1x1x1/51304 "
         "greedy=1x1x128x1x1x1x1x1/51438 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=bd30b931fa05e1fd keys=8/6d8e60f0f6e4afb6"},
        {"tune maeri128x1 M-L k8 sp0.5",
         "space=39 best=1x1x1x1x1x1x1x1/51304 "
         "greedy=1x1x128x1x1x1x1x1/51438 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=bd30b931fa05e1fd keys=8/800865a4ca243ece"},
        {"tune maeri128x1 R-C k1 sp0.0",
         "space=408 best=1x1x16x1x2x1x2x2/1929513 "
         "greedy=3x3x14x1x1x1x1x1/2310921 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=fdc65ba6a75efe13 keys=2/f183b7bbc8de4076"},
        {"tune maeri128x1 R-C k1 sp0.5",
         "space=408 best=1x1x16x1x2x1x2x2/1929513 "
         "greedy=3x3x14x1x1x1x1x1/2310921 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=fdc65ba6a75efe13 keys=2/292f5c9783f1641c"},
        {"tune maeri128x1 R-C k8 sp0.0",
         "space=408 best=1x1x16x1x8x1x1x1/381570 "
         "greedy=3x3x14x1x1x1x1x1/2310921 rho=3fe199c1a6e08c2f "
         "cold=0/9 warm=9/0 ranked=d42e9ea32263c7fe keys=9/002fb79ce00ce7de"},
        {"tune maeri128x1 R-C k8 sp0.5",
         "space=408 best=1x1x16x1x8x1x1x1/381570 "
         "greedy=3x3x14x1x1x1x1x1/2310921 rho=3fe199c1a6e08c2f "
         "cold=0/9 warm=9/0 ranked=d42e9ea32263c7fe keys=9/27e86767aee7fafb"},
        {"tune maeri128x1 R-L k1 sp0.0",
         "space=39 best=1x1x128x1x1x1x1x1/102639 "
         "greedy=1x1x128x1x1x1x1x1/102639 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=5576dced48196f0e keys=1/0d0687de534b26dc"},
        {"tune maeri128x1 R-L k1 sp0.5",
         "space=39 best=1x1x128x1x1x1x1x1/102639 "
         "greedy=1x1x128x1x1x1x1x1/102639 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=5576dced48196f0e keys=1/93765df4acd31255"},
        {"tune maeri128x1 R-L k8 sp0.0",
         "space=39 best=1x1x1x1x1x1x1x1/102505 "
         "greedy=1x1x128x1x1x1x1x1/102639 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=876e10119176cec7 keys=8/fba570966d5c8046"},
        {"tune maeri128x1 R-L k8 sp0.5",
         "space=39 best=1x1x1x1x1x1x1x1/102505 "
         "greedy=1x1x128x1x1x1x1x1/102639 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=876e10119176cec7 keys=8/57f13f471f6f2f1a"},
        {"tune maeri128x1 S-EC k1 sp0.0",
         "space=114 best=1x1x16x1x8x1x1x1/89576 "
         "greedy=3x3x2x1x7x1x1x1/92791 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=15a97fedc1057c87 keys=2/ba5e5005e990f014"},
        {"tune maeri128x1 S-EC k1 sp0.5",
         "space=114 best=1x1x16x1x8x1x1x1/89576 "
         "greedy=3x3x2x1x7x1x1x1/92791 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=15a97fedc1057c87 keys=2/d13164ca82d68224"},
        {"tune maeri128x1 S-EC k8 sp0.0",
         "space=114 best=1x1x16x1x8x1x1x1/89576 "
         "greedy=3x3x2x1x7x1x1x1/92791 rho=3fba2748137fabb3 "
         "cold=0/8 warm=8/0 ranked=b48db65878edd6f3 keys=8/6e583a9cef5665b6"},
        {"tune maeri128x1 S-EC k8 sp0.5",
         "space=114 best=1x1x16x1x8x1x1x1/89576 "
         "greedy=3x3x2x1x7x1x1x1/92791 rho=3fba2748137fabb3 "
         "cold=0/8 warm=8/0 ranked=b48db65878edd6f3 keys=8/173d7326094e2a14"},
        {"tune maeri128x1 S-SC k1 sp0.0",
         "space=49 best=1x1x16x1x8x1x1x1/24471 "
         "greedy=1x1x64x1x2x1x1x1/86665 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=209f4ccafa5a73a3 keys=2/7e5eb2c5f1e2cbbe"},
        {"tune maeri128x1 S-SC k1 sp0.5",
         "space=49 best=1x1x16x1x8x1x1x1/24471 "
         "greedy=1x1x64x1x2x1x1x1/86665 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=209f4ccafa5a73a3 keys=2/a1c765d4839a52b4"},
        {"tune maeri128x1 S-SC k8 sp0.0",
         "space=49 best=1x1x8x1x16x1x1x1/14047 "
         "greedy=1x1x64x1x2x1x1x1/86665 rho=bfcc453d90f057a1 "
         "cold=0/8 warm=8/0 ranked=09bcbb89c55d2077 keys=8/b50a621f48bd24e8"},
        {"tune maeri128x1 S-SC k8 sp0.5",
         "space=49 best=1x1x8x1x16x1x1x1/14047 "
         "greedy=1x1x64x1x2x1x1x1/86665 rho=bfcc453d90f057a1 "
         "cold=0/8 warm=8/0 ranked=09bcbb89c55d2077 keys=8/11af8871d59aeedc"},
        {"tune maeri64x16ws B-L k1 sp0.0",
         "space=115 best=1x1x16x1x1x1x1x4/99080 "
         "greedy=1x1x64x1x1x1x1x1/99085 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=a86e6f95c719d37f keys=2/fb27502072cd26d9"},
        {"tune maeri64x16ws B-L k1 sp0.5",
         "space=115 best=1x1x16x1x1x1x1x4/99080 "
         "greedy=1x1x64x1x1x1x1x1/99085 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=a86e6f95c719d37f keys=2/bdfc3444161aafb7"},
        {"tune maeri64x16ws B-L k8 sp0.0",
         "space=115 best=1x1x1x1x4x1x1x16/25348 "
         "greedy=1x1x64x1x1x1x1x1/99085 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=ad9d505a0d281e3a keys=9/1f2b48b89cddc7a0"},
        {"tune maeri64x16ws B-L k8 sp0.5",
         "space=115 best=1x1x1x1x4x1x1x16/25348 "
         "greedy=1x1x64x1x1x1x1x1/99085 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=ad9d505a0d281e3a keys=9/3636457cb013f26b"},
        {"tune maeri64x16ws B-TR k1 sp0.0",
         "space=156 best=1x1x16x1x1x1x1x4/18584 "
         "greedy=1x1x64x1x1x1x1x1/18589 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=d0ee0d0f2eb7c0e3 keys=2/aa1625a8ef8d1475"},
        {"tune maeri64x16ws B-TR k1 sp0.5",
         "space=156 best=1x1x16x1x1x1x1x4/18584 "
         "greedy=1x1x64x1x1x1x1x1/18589 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=d0ee0d0f2eb7c0e3 keys=2/e3bbcd158bd8e62d"},
        {"tune maeri64x16ws B-TR k8 sp0.0",
         "space=156 best=1x1x1x1x4x1x1x16/4756 "
         "greedy=1x1x64x1x1x1x1x1/18589 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=f2ab6e407b2401d8 keys=9/9db91e302ee93f95"},
        {"tune maeri64x16ws B-TR k8 sp0.5",
         "space=156 best=1x1x1x1x4x1x1x16/4756 "
         "greedy=1x1x64x1x1x1x1x1/18589 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=f2ab6e407b2401d8 keys=9/de5562b0e8336d7e"},
        {"tune maeri64x16ws DW k1 sp0.0",
         "space=65 best=3x3x1x7x1x1x1x1/238 "
         "greedy=3x3x1x7x1x1x1x1/238 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=dd499bfa5fe3cac5 keys=2/e94eb77bde546370"},
        {"tune maeri64x16ws DW k1 sp0.5",
         "space=65 best=3x3x1x7x1x1x1x1/238 "
         "greedy=3x3x1x7x1x1x1x1/238 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=dd499bfa5fe3cac5 keys=2/353f35dd4325ff62"},
        {"tune maeri64x16ws DW k8 sp0.0",
         "space=65 best=1x3x1x2x1x1x9x1/202 "
         "greedy=3x3x1x7x1x1x1x1/238 rho=bfd1d3a60caf0ca7 "
         "cold=0/9 warm=9/0 ranked=b5ac9b8cf2d25a8c keys=9/cd5187480de66cb7"},
        {"tune maeri64x16ws DW k8 sp0.5",
         "space=65 best=1x3x1x2x1x1x9x1/202 "
         "greedy=3x3x1x7x1x1x1x1/238 rho=bfd1d3a60caf0ca7 "
         "cold=0/9 warm=9/0 ranked=b5ac9b8cf2d25a8c keys=9/9841de16e99c2d3a"},
        {"tune maeri64x16ws M-FC k1 sp0.0",
         "space=108 best=3x3x1x7x1x1x1x1/6795 "
         "greedy=3x3x1x7x1x1x1x1/6795 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=1fef835d88ec235b keys=2/f83bec483c0ca70a"},
        {"tune maeri64x16ws M-FC k1 sp0.5",
         "space=108 best=3x3x1x7x1x1x1x1/6795 "
         "greedy=3x3x1x7x1x1x1x1/6795 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=1fef835d88ec235b keys=2/2384e313408aaf04"},
        {"tune maeri64x16ws M-FC k8 sp0.0",
         "space=108 best=3x3x1x7x1x1x1x1/6795 "
         "greedy=3x3x1x7x1x1x1x1/6795 rho=bfcbf47650ff164f "
         "cold=0/8 warm=8/0 ranked=b34b31b1ba8ddbc1 keys=8/905534400b5a3171"},
        {"tune maeri64x16ws M-FC k8 sp0.5",
         "space=108 best=3x3x1x7x1x1x1x1/6795 "
         "greedy=3x3x1x7x1x1x1x1/6795 rho=bfcbf47650ff164f "
         "cold=0/8 warm=8/0 ranked=b34b31b1ba8ddbc1 keys=8/2f0417d2a1bd2101"},
        {"tune maeri64x16ws M-L k1 sp0.0",
         "space=30 best=1x1x16x1x1x1x1x1/3308 "
         "greedy=1x1x64x1x1x1x1x1/3313 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=e641ca9fb6622307 keys=2/fee6e875f7991462"},
        {"tune maeri64x16ws M-L k1 sp0.5",
         "space=30 best=1x1x16x1x1x1x1x1/3308 "
         "greedy=1x1x64x1x1x1x1x1/3313 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=e641ca9fb6622307 keys=2/455f3a2f1861814a"},
        {"tune maeri64x16ws M-L k8 sp0.0",
         "space=30 best=1x1x4x1x4x1x1x1/3234 "
         "greedy=1x1x64x1x1x1x1x1/3313 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=ba38a793e0157cdf keys=8/cdced3b2130d5193"},
        {"tune maeri64x16ws M-L k8 sp0.5",
         "space=30 best=1x1x4x1x4x1x1x1/3234 "
         "greedy=1x1x64x1x1x1x1x1/3313 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=ba38a793e0157cdf keys=8/594eda4d8c19b87b"},
        {"tune maeri64x16ws R-C k1 sp0.0",
         "space=254 best=3x3x7x1x1x1x1x1/224206 "
         "greedy=3x3x7x1x1x1x1x1/224206 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=255fdaca4506e659 keys=2/e12b6161cbe8bcac"},
        {"tune maeri64x16ws R-C k1 sp0.5",
         "space=254 best=3x3x7x1x1x1x1x1/224206 "
         "greedy=3x3x7x1x1x1x1x1/224206 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=255fdaca4506e659 keys=2/0467b533dfad8bd6"},
        {"tune maeri64x16ws R-C k8 sp0.0",
         "space=254 best=1x1x16x1x4x1x1x1/219743 "
         "greedy=3x3x7x1x1x1x1x1/224206 rho=bfda66a27a50d247 "
         "cold=0/9 warm=9/0 ranked=e94fa022e937a96e keys=9/7a5f26c82c5488f2"},
        {"tune maeri64x16ws R-C k8 sp0.5",
         "space=254 best=1x1x16x1x4x1x1x1/219743 "
         "greedy=3x3x7x1x1x1x1x1/224206 rho=bfda66a27a50d247 "
         "cold=0/9 warm=9/0 ranked=e94fa022e937a96e keys=9/3023eeeb8b135da7"},
        {"tune maeri64x16ws R-L k1 sp0.0",
         "space=30 best=1x1x16x1x1x1x1x1/6509 "
         "greedy=1x1x64x1x1x1x1x1/6514 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=76f8198482c53d7b keys=2/d03cdb324d7fecba"},
        {"tune maeri64x16ws R-L k1 sp0.5",
         "space=30 best=1x1x16x1x1x1x1x1/6509 "
         "greedy=1x1x64x1x1x1x1x1/6514 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=76f8198482c53d7b keys=2/4ca060c896972c28"},
        {"tune maeri64x16ws R-L k8 sp0.0",
         "space=30 best=1x1x4x1x4x1x1x1/6438 "
         "greedy=1x1x64x1x1x1x1x1/6514 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=c733aa019f653ebb keys=8/89bdbcd38fbec07d"},
        {"tune maeri64x16ws R-L k8 sp0.5",
         "space=30 best=1x1x4x1x4x1x1x1/6438 "
         "greedy=1x1x64x1x1x1x1x1/6514 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=c733aa019f653ebb keys=8/8bea3e0e324495ad"},
        {"tune maeri64x16ws S-EC k1 sp0.0",
         "space=78 best=1x1x16x1x4x1x1x1/45308 "
         "greedy=3x3x1x1x7x1x1x1/50452 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=cbcb9b2048d18ac3 keys=2/f3b21697ff52f96d"},
        {"tune maeri64x16ws S-EC k1 sp0.5",
         "space=78 best=1x1x16x1x4x1x1x1/45308 "
         "greedy=3x3x1x1x7x1x1x1/50452 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=cbcb9b2048d18ac3 keys=2/fc1fea6fa37cb3e7"},
        {"tune maeri64x16ws S-EC k8 sp0.0",
         "space=78 best=1x1x16x1x4x1x1x1/45308 "
         "greedy=3x3x1x1x7x1x1x1/50452 rho=3fe691a4eee735e7 "
         "cold=0/8 warm=8/0 ranked=0a80d0a95804c0eb keys=8/f380ef139ceccf65"},
        {"tune maeri64x16ws S-EC k8 sp0.5",
         "space=78 best=1x1x16x1x4x1x1x1/45308 "
         "greedy=3x3x1x1x7x1x1x1/50452 rho=3fe691a4eee735e7 "
         "cold=0/8 warm=8/0 ranked=0a80d0a95804c0eb keys=8/618de50680646e6f"},
        {"tune maeri64x16ws S-SC k1 sp0.0",
         "space=37 best=1x1x16x1x4x1x1x1/4743 "
         "greedy=1x1x64x1x1x1x1x1/10829 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=49d8274699f46dfb keys=2/666ce9300c6c3169"},
        {"tune maeri64x16ws S-SC k1 sp0.5",
         "space=37 best=1x1x16x1x4x1x1x1/4743 "
         "greedy=1x1x64x1x1x1x1x1/10829 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=49d8274699f46dfb keys=2/1909063fd72f7fed"},
        {"tune maeri64x16ws S-SC k8 sp0.0",
         "space=37 best=1x1x16x1x4x1x1x1/4743 "
         "greedy=1x1x64x1x1x1x1x1/10829 rho=3feb35162d9700c4 "
         "cold=0/8 warm=8/0 ranked=4b498b68d7381c6f keys=8/418fbb94cd7c7999"},
        {"tune maeri64x16ws S-SC k8 sp0.5",
         "space=37 best=1x1x16x1x4x1x1x1/4743 "
         "greedy=1x1x64x1x1x1x1x1/10829 rho=3feb35162d9700c4 "
         "cold=0/8 warm=8/0 ranked=4b498b68d7381c6f keys=8/f72e9ec701887063"},
        {"tune maeri_128_x2 B-L k1 sp0.0",
         "space=165 best=1x1x128x1x1x1x1x1/24588 "
         "greedy=1x1x128x1x1x1x1x1/24588 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=3faab006341d6bcc keys=1/665dcf11c272af40"},
        {"tune maeri_128_x2 B-L k1 sp0.5",
         "space=165 best=1x1x128x1x1x1x1x1/24588 "
         "greedy=1x1x128x1x1x1x1x1/24588 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=3faab006341d6bcc keys=1/d8a5e03033d48065"},
        {"tune maeri_128_x2 B-L k8 sp0.0",
         "space=165 best=1x1x1x1x16x1x1x8/12487 "
         "greedy=1x1x128x1x1x1x1x1/24588 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=8e079e57df395a0d keys=8/3dfca570af4718a1"},
        {"tune maeri_128_x2 B-L k8 sp0.5",
         "space=165 best=1x1x1x1x16x1x1x8/12487 "
         "greedy=1x1x128x1x1x1x1x1/24588 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=8e079e57df395a0d keys=8/a3d09ae8cd3ffca3"},
        {"tune maeri_128_x2 B-TR k1 sp0.0",
         "space=228 best=1x1x128x1x1x1x1x1/4620 "
         "greedy=1x1x128x1x1x1x1x1/4620 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=11609286793314ea keys=1/06d1f4a121339201"},
        {"tune maeri_128_x2 B-TR k1 sp0.5",
         "space=228 best=1x1x128x1x1x1x1x1/4620 "
         "greedy=1x1x128x1x1x1x1x1/4620 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=11609286793314ea keys=1/666f31f5c2507334"},
        {"tune maeri_128_x2 B-TR k8 sp0.0",
         "space=228 best=1x1x1x1x8x1x1x16/2345 "
         "greedy=1x1x128x1x1x1x1x1/4620 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=f9aa9767431f2967 keys=8/1a9894cafce7e65c"},
        {"tune maeri_128_x2 B-TR k8 sp0.5",
         "space=228 best=1x1x1x1x8x1x1x16/2345 "
         "greedy=1x1x128x1x1x1x1x1/4620 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=f9aa9767431f2967 keys=8/a0db0f1caab4c9b8"},
        {"tune maeri_128_x2 DW k1 sp0.0",
         "space=90 best=3x3x1x8x1x1x1x1/90 "
         "greedy=3x3x1x8x1x1x1x1/90 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=a96115b0296c11dd keys=2/81ff09e896771ded"},
        {"tune maeri_128_x2 DW k1 sp0.5",
         "space=90 best=3x3x1x8x1x1x1x1/90 "
         "greedy=3x3x1x8x1x1x1x1/90 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=a96115b0296c11dd keys=2/00b583682a027073"},
        {"tune maeri_128_x2 DW k8 sp0.0",
         "space=90 best=1x3x1x4x1x1x9x1/86 "
         "greedy=3x3x1x8x1x1x1x1/90 rho=bfd1d3a60caf0ca7 "
         "cold=0/9 warm=9/0 ranked=32ef4caa3a1b79ec keys=9/af54f9167ada99f7"},
        {"tune maeri_128_x2 DW k8 sp0.5",
         "space=90 best=1x3x1x4x1x1x9x1/86 "
         "greedy=3x3x1x8x1x1x1x1/90 rho=bfd1d3a60caf0ca7 "
         "cold=0/9 warm=9/0 ranked=32ef4caa3a1b79ec keys=9/3c4df1113e48c25e"},
        {"tune maeri_128_x2 M-FC k1 sp0.0",
         "space=157 best=3x3x1x14x1x1x1x1/2077 "
         "greedy=3x3x1x14x1x1x1x1/2077 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=1ec3cd485af33f19 keys=2/0ce3e8c558b3e2dc"},
        {"tune maeri_128_x2 M-FC k1 sp0.5",
         "space=157 best=3x3x1x14x1x1x1x1/2077 "
         "greedy=3x3x1x14x1x1x1x1/2077 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=1ec3cd485af33f19 keys=2/a36edb247a90719c"},
        {"tune maeri_128_x2 M-FC k8 sp0.0",
         "space=157 best=3x3x1x1x1x1x14x1/1928 "
         "greedy=3x3x1x14x1x1x1x1/2077 rho=bfea83366935260e "
         "cold=0/9 warm=9/0 ranked=4c1ac9fdc2720758 keys=9/e5e57bbf05ec65a5"},
        {"tune maeri_128_x2 M-FC k8 sp0.5",
         "space=157 best=3x3x1x1x1x1x14x1/1928 "
         "greedy=3x3x1x14x1x1x1x1/2077 rho=bfea83366935260e "
         "cold=0/9 warm=9/0 ranked=4c1ac9fdc2720758 keys=9/2f7431774167182a"},
        {"tune maeri_128_x2 M-L k1 sp0.0",
         "space=39 best=1x1x128x1x1x1x1x1/912 "
         "greedy=1x1x128x1x1x1x1x1/912 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=3bf91c4c754816a6 keys=1/f821735fc2917a2d"},
        {"tune maeri_128_x2 M-L k1 sp0.5",
         "space=39 best=1x1x128x1x1x1x1x1/912 "
         "greedy=1x1x128x1x1x1x1x1/912 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=3bf91c4c754816a6 keys=1/e17915a2aa3d4d2c"},
        {"tune maeri_128_x2 M-L k8 sp0.0",
         "space=39 best=1x1x16x1x4x1x1x1/836 "
         "greedy=1x1x128x1x1x1x1x1/912 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=0503719293932a37 keys=8/d8f1f1bf7b884cd7"},
        {"tune maeri_128_x2 M-L k8 sp0.5",
         "space=39 best=1x1x16x1x4x1x1x1/836 "
         "greedy=1x1x128x1x1x1x1x1/912 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=0503719293932a37 keys=8/0b6c96f4fe165cb7"},
        {"tune maeri_128_x2 R-C k1 sp0.0",
         "space=408 best=1x1x16x1x2x1x2x2/56682 "
         "greedy=3x3x14x1x1x1x1x1/66381 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=195e35124892b0f3 keys=2/3dedaeaa41877184"},
        {"tune maeri_128_x2 R-C k1 sp0.5",
         "space=408 best=1x1x16x1x2x1x2x2/56682 "
         "greedy=3x3x14x1x1x1x1x1/66381 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=195e35124892b0f3 keys=2/ed580c4249f8c8cc"},
        {"tune maeri_128_x2 R-C k8 sp0.0",
         "space=408 best=1x1x16x1x8x1x1x1/56665 "
         "greedy=3x3x14x1x1x1x1x1/66381 rho=3fe1accef0ce195f "
         "cold=0/9 warm=9/0 ranked=ebc91c951867b3f6 keys=9/326d35ae1cffde89"},
        {"tune maeri_128_x2 R-C k8 sp0.5",
         "space=408 best=1x1x16x1x8x1x1x1/56665 "
         "greedy=3x3x14x1x1x1x1x1/66381 rho=3fe1accef0ce195f "
         "cold=0/9 warm=9/0 ranked=ebc91c951867b3f6 keys=9/9f32f5e8bd5c2b3c"},
        {"tune maeri_128_x2 R-L k1 sp0.0",
         "space=39 best=1x1x128x1x1x1x1x1/1713 "
         "greedy=1x1x128x1x1x1x1x1/1713 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=8fcfb438543d1c10 keys=1/eb2659d32697b42f"},
        {"tune maeri_128_x2 R-L k1 sp0.5",
         "space=39 best=1x1x128x1x1x1x1x1/1713 "
         "greedy=1x1x128x1x1x1x1x1/1713 rho=3ff0000000000000 "
         "cold=0/1 warm=1/0 ranked=8fcfb438543d1c10 keys=1/03d14651f95eb906"},
        {"tune maeri_128_x2 R-L k8 sp0.0",
         "space=39 best=1x1x16x1x4x1x1x1/1640 "
         "greedy=1x1x128x1x1x1x1x1/1713 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=cb468ce2e353e2a3 keys=8/8910db82bc3f67f7"},
        {"tune maeri_128_x2 R-L k8 sp0.5",
         "space=39 best=1x1x16x1x4x1x1x1/1640 "
         "greedy=1x1x128x1x1x1x1x1/1713 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=cb468ce2e353e2a3 keys=8/d0260258af0702c7"},
        {"tune maeri_128_x2 S-EC k1 sp0.0",
         "space=114 best=1x1x16x1x8x1x1x1/12355 "
         "greedy=3x3x2x1x7x1x1x1/13712 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=3a969fad23076eb1 keys=2/0ffd2c3fa44af1e8"},
        {"tune maeri_128_x2 S-EC k1 sp0.5",
         "space=114 best=1x1x16x1x8x1x1x1/12355 "
         "greedy=3x3x2x1x7x1x1x1/13712 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=3a969fad23076eb1 keys=2/33a472cbf664682e"},
        {"tune maeri_128_x2 S-EC k8 sp0.0",
         "space=114 best=1x1x16x1x8x1x1x1/12355 "
         "greedy=3x3x2x1x7x1x1x1/13712 rho=3fe74afc315db4ec "
         "cold=0/8 warm=8/0 ranked=c116fea18d2de4bd keys=8/4ab6e265e91b5864"},
        {"tune maeri_128_x2 S-EC k8 sp0.5",
         "space=114 best=1x1x16x1x8x1x1x1/12355 "
         "greedy=3x3x2x1x7x1x1x1/13712 rho=3fe74afc315db4ec "
         "cold=0/8 warm=8/0 ranked=c116fea18d2de4bd keys=8/a48c3ab32c22403a"},
        {"tune maeri_128_x2 S-SC k1 sp0.0",
         "space=49 best=1x1x64x1x2x1x1x1/1363 "
         "greedy=1x1x64x1x2x1x1x1/1363 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=05ec0b2b327d3bdf keys=2/9e2b605e6e4710b8"},
        {"tune maeri_128_x2 S-SC k1 sp0.5",
         "space=49 best=1x1x64x1x2x1x1x1/1363 "
         "greedy=1x1x64x1x2x1x1x1/1363 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=05ec0b2b327d3bdf keys=2/f3baa2081c6b0f10"},
        {"tune maeri_128_x2 S-SC k8 sp0.0",
         "space=49 best=1x1x64x1x2x1x1x1/1363 "
         "greedy=1x1x64x1x2x1x1x1/1363 rho=3fec453d90f057a1 "
         "cold=0/8 warm=8/0 ranked=4d4946aba0080cc7 keys=8/3149316cb6263568"},
        {"tune maeri_128_x2 S-SC k8 sp0.5",
         "space=49 best=1x1x64x1x2x1x1x1/1363 "
         "greedy=1x1x64x1x2x1x1x1/1363 rho=3fec453d90f057a1 "
         "cold=0/8 warm=8/0 ranked=4d4946aba0080cc7 keys=8/0689fd99ae2b89f8"},
        {"tune maeri_256 B-L k1 sp0.0",
         "space=224 best=1x1x128x1x2x1x1x1/6156 "
         "greedy=1x1x128x1x2x1x1x1/6156 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=fac8897cbfb3d4ed keys=2/25b509366cbc92d9"},
        {"tune maeri_256 B-L k1 sp0.5",
         "space=224 best=1x1x128x1x2x1x1x1/6156 "
         "greedy=1x1x128x1x2x1x1x1/6156 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=fac8897cbfb3d4ed keys=2/611a849d396ef553"},
        {"tune maeri_256 B-L k8 sp0.0",
         "space=224 best=1x1x128x1x2x1x1x1/6156 "
         "greedy=1x1x128x1x2x1x1x1/6156 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=c4c0a0a9228dd31d keys=8/d5dd211458548947"},
        {"tune maeri_256 B-L k8 sp0.5",
         "space=224 best=1x1x128x1x2x1x1x1/6156 "
         "greedy=1x1x128x1x2x1x1x1/6156 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=c4c0a0a9228dd31d keys=8/c6e8260dcb676951"},
        {"tune maeri_256 B-TR k1 sp0.0",
         "space=311 best=1x1x128x1x2x1x1x1/1164 "
         "greedy=1x1x128x1x2x1x1x1/1164 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=28894ad3ac50e57d keys=2/cf3378871b019f0b"},
        {"tune maeri_256 B-TR k1 sp0.5",
         "space=311 best=1x1x128x1x2x1x1x1/1164 "
         "greedy=1x1x128x1x2x1x1x1/1164 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=28894ad3ac50e57d keys=2/b4ab3d60a6db97d7"},
        {"tune maeri_256 B-TR k8 sp0.0",
         "space=311 best=1x1x128x1x2x1x1x1/1164 "
         "greedy=1x1x128x1x2x1x1x1/1164 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=7dd326a834dae3fb keys=8/c3d9b46eff4dfa80"},
        {"tune maeri_256 B-TR k8 sp0.5",
         "space=311 best=1x1x128x1x2x1x1x1/1164 "
         "greedy=1x1x128x1x2x1x1x1/1164 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=7dd326a834dae3fb keys=8/7feeba277f2441ea"},
        {"tune maeri_256 DW k1 sp0.0",
         "space=112 best=3x3x1x8x1x1x1x3/49 "
         "greedy=3x3x1x8x1x1x1x3/49 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=ce4dcd2d0cf4b52d keys=2/416ac856f3f50748"},
        {"tune maeri_256 DW k1 sp0.5",
         "space=112 best=3x3x1x8x1x1x1x3/49 "
         "greedy=3x3x1x8x1x1x1x3/49 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=ce4dcd2d0cf4b52d keys=2/47fafd53f327b2f4"},
        {"tune maeri_256 DW k8 sp0.0",
         "space=112 best=3x3x1x1x1x1x9x3/48 "
         "greedy=3x3x1x8x1x1x1x3/49 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=a2a259394a6e6fd6 keys=9/165a86b57ffe29b8"},
        {"tune maeri_256 DW k8 sp0.5",
         "space=112 best=3x3x1x1x1x1x9x3/48 "
         "greedy=3x3x1x8x1x1x1x3/49 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=a2a259394a6e6fd6 keys=9/270985a3597b6d35"},
        {"tune maeri_256 M-FC k1 sp0.0",
         "space=210 best=3x3x1x28x1x1x1x1/1037 "
         "greedy=3x3x1x28x1x1x1x1/1037 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=f847f03c40df8e05 keys=2/95dc2a681915f32c"},
        {"tune maeri_256 M-FC k1 sp0.5",
         "space=210 best=3x3x1x28x1x1x1x1/1037 "
         "greedy=3x3x1x28x1x1x1x1/1037 rho=bff0000000000000 "
         "cold=0/2 warm=2/0 ranked=f847f03c40df8e05 keys=2/d2078158f3e7a066"},
        {"tune maeri_256 M-FC k8 sp0.0",
         "space=210 best=3x3x1x2x1x1x14x1/968 "
         "greedy=3x3x1x28x1x1x1x1/1037 rho=bfe9952574c0f80f "
         "cold=0/9 warm=9/0 ranked=0f0187f1b04d27ce keys=9/8f9faeb9ba735aba"},
        {"tune maeri_256 M-FC k8 sp0.5",
         "space=210 best=3x3x1x2x1x1x14x1/968 "
         "greedy=3x3x1x28x1x1x1x1/1037 rho=bfe9952574c0f80f "
         "cold=0/9 warm=9/0 ranked=0f0187f1b04d27ce keys=9/aca0ec3569d18009"},
        {"tune maeri_256 M-L k1 sp0.0",
         "space=48 best=1x1x128x1x1x1x1x1/511 "
         "greedy=1x1x256x1x1x1x1x1/513 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=9d58f29ad9df8111 keys=2/3a7c62fd3ffc7183"},
        {"tune maeri_256 M-L k1 sp0.5",
         "space=48 best=1x1x128x1x1x1x1x1/511 "
         "greedy=1x1x256x1x1x1x1x1/513 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=9d58f29ad9df8111 keys=2/4200e31b8ed23b9b"},
        {"tune maeri_256 M-L k8 sp0.0",
         "space=48 best=1x1x32x1x4x1x1x1/437 "
         "greedy=1x1x256x1x1x1x1x1/513 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=156461f78e29c66b keys=8/e747852bff7dc137"},
        {"tune maeri_256 M-L k8 sp0.5",
         "space=48 best=1x1x32x1x4x1x1x1/437 "
         "greedy=1x1x256x1x1x1x1x1/513 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=156461f78e29c66b keys=8/510574cad4c6c4bf"},
        {"tune maeri_256 R-C k1 sp0.0",
         "space=610 best=1x1x16x1x16x1x1x1/28350 "
         "greedy=3x3x14x1x2x1x1x1/31502 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=af696933dbdd8023 keys=2/9423d4a386c6036d"},
        {"tune maeri_256 R-C k1 sp0.5",
         "space=610 best=1x1x16x1x16x1x1x1/28350 "
         "greedy=3x3x14x1x2x1x1x1/31502 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=af696933dbdd8023 keys=2/9589b2dd4c12ce9b"},
        {"tune maeri_256 R-C k8 sp0.0",
         "space=610 best=1x1x16x1x8x1x1x2/28344 "
         "greedy=3x3x14x1x2x1x1x1/31502 rho=3fe1accef0ce195f "
         "cold=0/9 warm=9/0 ranked=94479151c79af7d6 keys=9/1c73f0fc10fb97b2"},
        {"tune maeri_256 R-C k8 sp0.5",
         "space=610 best=1x1x16x1x8x1x1x2/28344 "
         "greedy=3x3x14x1x2x1x1x1/31502 rho=3fe1accef0ce195f "
         "cold=0/9 warm=9/0 ranked=94479151c79af7d6 keys=9/d879589db48c22bb"},
        {"tune maeri_256 R-L k1 sp0.0",
         "space=48 best=1x1x128x1x1x1x1x1/912 "
         "greedy=1x1x256x1x1x1x1x1/914 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=2a91bbf5701bee5d keys=2/0cd94e36784c082d"},
        {"tune maeri_256 R-L k1 sp0.5",
         "space=48 best=1x1x128x1x1x1x1x1/912 "
         "greedy=1x1x256x1x1x1x1x1/914 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=2a91bbf5701bee5d keys=2/4a8bc7550348b5bb"},
        {"tune maeri_256 R-L k8 sp0.0",
         "space=48 best=1x1x32x1x4x1x1x1/841 "
         "greedy=1x1x256x1x1x1x1x1/914 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=d0aaf92e82ce54b1 keys=8/f4a9cb1b658b355b"},
        {"tune maeri_256 R-L k8 sp0.5",
         "space=48 best=1x1x32x1x4x1x1x1/841 "
         "greedy=1x1x256x1x1x1x1x1/914 rho=3fe83091e6a7f7e6 "
         "cold=0/8 warm=8/0 ranked=d0aaf92e82ce54b1 keys=8/e4a8bc10dc486eff"},
        {"tune maeri_256 S-EC k1 sp0.0",
         "space=159 best=1x1x16x1x16x1x1x1/6185 "
         "greedy=3x3x4x1x7x1x1x1/6867 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=123429aeca8ae0e1 keys=2/750fa9960e042850"},
        {"tune maeri_256 S-EC k1 sp0.5",
         "space=159 best=1x1x16x1x16x1x1x1/6185 "
         "greedy=3x3x4x1x7x1x1x1/6867 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=123429aeca8ae0e1 keys=2/e562142b3be9f5ac"},
        {"tune maeri_256 S-EC k8 sp0.0",
         "space=159 best=1x1x16x1x16x1x1x1/6185 "
         "greedy=3x3x4x1x7x1x1x1/6867 rho=3fe9306acdb9c18f "
         "cold=0/8 warm=8/0 ranked=2f98577847d37421 keys=8/f25f21d2ca42b79d"},
        {"tune maeri_256 S-EC k8 sp0.5",
         "space=159 best=1x1x16x1x16x1x1x1/6185 "
         "greedy=3x3x4x1x7x1x1x1/6867 rho=3fe9306acdb9c18f "
         "cold=0/8 warm=8/0 ranked=2f98577847d37421 keys=8/03ceabcb72fe25df"},
        {"tune maeri_256 S-SC k1 sp0.0",
         "space=63 best=1x1x64x1x4x1x1x1/687 "
         "greedy=1x1x64x1x4x1x1x1/687 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=d03c8e540d993fc5 keys=2/3ec9ea957eff189c"},
        {"tune maeri_256 S-SC k1 sp0.5",
         "space=63 best=1x1x64x1x4x1x1x1/687 "
         "greedy=1x1x64x1x4x1x1x1/687 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=d03c8e540d993fc5 keys=2/2323609b29030eba"},
        {"tune maeri_256 S-SC k8 sp0.0",
         "space=63 best=1x1x64x1x4x1x1x1/687 "
         "greedy=1x1x64x1x4x1x1x1/687 rho=3fec10dbfab3c883 "
         "cold=0/8 warm=8/0 ranked=7243193afb1a2523 keys=8/387fc5932a172042"},
        {"tune maeri_256 S-SC k8 sp0.5",
         "space=63 best=1x1x64x1x4x1x1x1/687 "
         "greedy=1x1x64x1x4x1x1x1/687 rho=3fec10dbfab3c883 "
         "cold=0/8 warm=8/0 ranked=7243193afb1a2523 keys=8/32f4af2d961854de"},
        {"tune tpu_256 B-L k1 sp0.0",
         "space=224 best=1x1x128x1x1x1x1x2/7776 "
         "greedy=1x1x128x1x2x1x1x1/7776 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=a03d65156eabd315 keys=2/024d569f1fb8d53d"},
        {"tune tpu_256 B-L k1 sp0.5",
         "space=224 best=1x1x128x1x1x1x1x2/7776 "
         "greedy=1x1x128x1x2x1x1x1/7776 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=a03d65156eabd315 keys=2/3d5b419cb0a77d0b"},
        {"tune tpu_256 B-L k8 sp0.0",
         "space=224 best=1x1x128x1x1x1x1x2/7776 "
         "greedy=1x1x128x1x2x1x1x1/7776 rho=3ff0000000000000 "
         "cold=0/8 warm=8/0 ranked=21fd41e5d6402c0d keys=8/03945a6d643705f7"},
        {"tune tpu_256 B-L k8 sp0.5",
         "space=224 best=1x1x128x1x1x1x1x2/7776 "
         "greedy=1x1x128x1x2x1x1x1/7776 rho=3ff0000000000000 "
         "cold=0/8 warm=8/0 ranked=21fd41e5d6402c0d keys=8/1e2902a7fd623cb9"},
        {"tune tpu_256 B-TR k1 sp0.0",
         "space=311 best=1x1x128x1x1x1x1x2/1458 "
         "greedy=1x1x128x1x2x1x1x1/1458 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=6353cf80f328cc61 keys=2/71da18e8018d5e9b"},
        {"tune tpu_256 B-TR k1 sp0.5",
         "space=311 best=1x1x128x1x1x1x1x2/1458 "
         "greedy=1x1x128x1x2x1x1x1/1458 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=6353cf80f328cc61 keys=2/e48e2792dc6dd32b"},
        {"tune tpu_256 B-TR k8 sp0.0",
         "space=311 best=1x1x128x1x1x1x1x2/1458 "
         "greedy=1x1x128x1x2x1x1x1/1458 rho=3ff0000000000000 "
         "cold=0/8 warm=8/0 ranked=1c4b3f13c9a8d3a3 keys=8/428f531b48c34418"},
        {"tune tpu_256 B-TR k8 sp0.5",
         "space=311 best=1x1x128x1x1x1x1x2/1458 "
         "greedy=1x1x128x1x2x1x1x1/1458 rho=3ff0000000000000 "
         "cold=0/8 warm=8/0 ranked=1c4b3f13c9a8d3a3 keys=8/4ee871d9c81d146a"},
        {"tune tpu_256 DW k1 sp0.0",
         "space=112 best=1x3x1x1x1x1x9x9/1224 "
         "greedy=3x3x1x8x1x1x1x3/1224 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=d1b942bcf137747d keys=2/3673d7338cf9af54"},
        {"tune tpu_256 DW k1 sp0.5",
         "space=112 best=1x3x1x1x1x1x9x9/1224 "
         "greedy=3x3x1x8x1x1x1x3/1224 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=d1b942bcf137747d keys=2/fed9f0459a4ea1cc"},
        {"tune tpu_256 DW k8 sp0.0",
         "space=112 best=1x3x1x1x1x1x9x9/1224 "
         "greedy=3x3x1x8x1x1x1x3/1224 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=550202fe8eaa19ea keys=9/a98e189e98ad7f4e"},
        {"tune tpu_256 DW k8 sp0.5",
         "space=112 best=1x3x1x1x1x1x9x9/1224 "
         "greedy=3x3x1x8x1x1x1x3/1224 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=550202fe8eaa19ea keys=9/0b227e0968368833"},
        {"tune tpu_256 M-FC k1 sp0.0",
         "space=210 best=1x1x1x128x1x1x1x2/45056 "
         "greedy=3x3x1x28x1x1x1x1/45056 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=bf44d78b074e0a75 keys=2/53fddff298adbf78"},
        {"tune tpu_256 M-FC k1 sp0.5",
         "space=210 best=1x1x1x128x1x1x1x2/45056 "
         "greedy=3x3x1x28x1x1x1x1/45056 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=bf44d78b074e0a75 keys=2/79f61ac6826ca8de"},
        {"tune tpu_256 M-FC k8 sp0.0",
         "space=210 best=1x1x1x128x1x1x1x2/45056 "
         "greedy=3x3x1x28x1x1x1x1/45056 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=1d5d407ecdd5187c keys=9/d5c895d4f8bd226c"},
        {"tune tpu_256 M-FC k8 sp0.5",
         "space=210 best=1x1x1x128x1x1x1x2/45056 "
         "greedy=3x3x1x28x1x1x1x1/45056 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=1d5d407ecdd5187c keys=9/d4f568f387a050c7"},
        {"tune tpu_256 M-L k1 sp0.0",
         "space=48 best=1x1x128x1x2x1x1x1/3705 "
         "greedy=1x1x256x1x1x1x1x1/3705 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=e7789fe225fccfb9 keys=2/f448499a5f8da326"},
        {"tune tpu_256 M-L k1 sp0.5",
         "space=48 best=1x1x128x1x2x1x1x1/3705 "
         "greedy=1x1x256x1x1x1x1x1/3705 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=e7789fe225fccfb9 keys=2/c162fbf7e78fe772"},
        {"tune tpu_256 M-L k8 sp0.0",
         "space=48 best=1x1x128x1x2x1x1x1/3705 "
         "greedy=1x1x256x1x1x1x1x1/3705 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=b7bca78f4f5e0ee7 keys=8/fd92ecf353cb755d"},
        {"tune tpu_256 M-L k8 sp0.5",
         "space=48 best=1x1x128x1x2x1x1x1/3705 "
         "greedy=1x1x256x1x1x1x1x1/3705 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=b7bca78f4f5e0ee7 keys=8/6a54cdb7dede96e9"},
        {"tune tpu_256 R-C k1 sp0.0",
         "space=610 best=1x1x16x1x16x1x1x1/31672 "
         "greedy=3x3x14x1x2x1x1x1/31672 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=0fc986b46a159e3b keys=2/5760af19ab8eefa9"},
        {"tune tpu_256 R-C k1 sp0.5",
         "space=610 best=1x1x16x1x16x1x1x1/31672 "
         "greedy=3x3x14x1x2x1x1x1/31672 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=0fc986b46a159e3b keys=2/1e57c7951ef5a213"},
        {"tune tpu_256 R-C k8 sp0.0",
         "space=610 best=1x1x16x1x16x1x1x1/31672 "
         "greedy=3x3x14x1x2x1x1x1/31672 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=fb845571e7cbc2ec keys=9/4efadcf3f0c64830"},
        {"tune tpu_256 R-C k8 sp0.5",
         "space=610 best=1x1x16x1x16x1x1x1/31672 "
         "greedy=3x3x14x1x2x1x1x1/31672 rho=0000000000000000 "
         "cold=0/9 warm=9/0 ranked=fb845571e7cbc2ec keys=9/6bed2a8c99994311"},
        {"tune tpu_256 R-L k1 sp0.0",
         "space=48 best=1x1x128x1x2x1x1x1/7289 "
         "greedy=1x1x256x1x1x1x1x1/7289 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=8127fa5ff8c28d3d keys=2/93fb281307a6b5fa"},
        {"tune tpu_256 R-L k1 sp0.5",
         "space=48 best=1x1x128x1x2x1x1x1/7289 "
         "greedy=1x1x256x1x1x1x1x1/7289 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=8127fa5ff8c28d3d keys=2/6f573508dee1ac48"},
        {"tune tpu_256 R-L k8 sp0.0",
         "space=48 best=1x1x128x1x2x1x1x1/7289 "
         "greedy=1x1x256x1x1x1x1x1/7289 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=3b0de530b69e69a7 keys=8/54600d027b9e7c5f"},
        {"tune tpu_256 R-L k8 sp0.5",
         "space=48 best=1x1x128x1x2x1x1x1/7289 "
         "greedy=1x1x256x1x1x1x1x1/7289 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=3b0de530b69e69a7 keys=8/8f7e046e6b34d0cf"},
        {"tune tpu_256 S-EC k1 sp0.0",
         "space=159 best=1x1x16x1x16x1x1x1/7804 "
         "greedy=3x3x4x1x7x1x1x1/7804 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=e8cdfb8b47f76541 keys=2/7f4eed293bdac260"},
        {"tune tpu_256 S-EC k1 sp0.5",
         "space=159 best=1x1x16x1x16x1x1x1/7804 "
         "greedy=3x3x4x1x7x1x1x1/7804 rho=0000000000000000 "
         "cold=0/2 warm=2/0 ranked=e8cdfb8b47f76541 keys=2/7185d2c9a18299d8"},
        {"tune tpu_256 S-EC k8 sp0.0",
         "space=159 best=1x1x16x1x16x1x1x1/7804 "
         "greedy=3x3x4x1x7x1x1x1/7804 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=9b064ab0ce1a1d2d keys=8/974518cabcbda6ad"},
        {"tune tpu_256 S-EC k8 sp0.5",
         "space=159 best=1x1x16x1x16x1x1x1/7804 "
         "greedy=3x3x4x1x7x1x1x1/7804 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=9b064ab0ce1a1d2d keys=8/cbf00e7f094ddc87"},
        {"tune tpu_256 S-SC k1 sp0.0",
         "space=63 best=1x1x16x1x16x1x1x1/1071 "
         "greedy=1x1x64x1x4x1x1x1/1071 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=80b12f866f11a035 keys=2/e4a571bdf31b9940"},
        {"tune tpu_256 S-SC k1 sp0.5",
         "space=63 best=1x1x16x1x16x1x1x1/1071 "
         "greedy=1x1x64x1x4x1x1x1/1071 rho=3ff0000000000000 "
         "cold=0/2 warm=2/0 ranked=80b12f866f11a035 keys=2/c3675c503212ceb2"},
        {"tune tpu_256 S-SC k8 sp0.0",
         "space=63 best=1x1x16x1x16x1x1x1/1071 "
         "greedy=1x1x64x1x4x1x1x1/1071 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=811e77292a25466f keys=8/193b0a6799cca426"},
        {"tune tpu_256 S-SC k8 sp0.5",
         "space=63 best=1x1x16x1x16x1x1x1/1071 "
         "greedy=1x1x64x1x4x1x1x1/1071 rho=0000000000000000 "
         "cold=0/8 warm=8/0 ranked=811e77292a25466f keys=8/a20bdacd520f2ec2"},
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
