/**
 * @file
 * Golden results of the MAERI and SNAPEA controllers.
 *
 * Each point runs one layer on a fresh Stonne instance and pins its
 * cycles, MACs, skipped MACs, memory accesses, a digest of every
 * StatsRegistry counter and a CRC of the output bits against a value
 * recorded before the controllers' host-side counting was rewritten.
 * The TICK/EVENT parity suites cannot catch a change of this kind,
 * since both engines run the same controller code; only a fixed
 * expectation can.
 *
 * On a mismatch the failure message carries the point's actual line,
 * in the table's own format.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "checkpoint/archive.hpp"
#include "controller/mapper.hpp"
#include "engine/stonne_api.hpp"
#include "engine/workload.hpp"

namespace stonne {
namespace {

/** FNV-1a over every counter's name and value, in registration order. */
std::uint64_t
statsDigest(const StatsRegistry &stats)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t byte) {
        h ^= byte & 0xffu;
        h *= 1099511628211ull;
    };
    for (const StatCounter &c : stats.counters()) {
        for (const char ch : c.name)
            mix(static_cast<unsigned char>(ch));
        mix(0);
        for (int b = 0; b < 8; ++b)
            mix(c.value >> (8 * b));
    }
    return h;
}

/** One point's result line: cycles, MACs, skipped MACs, memory
 *  accesses, the counter digest and the output CRC-32. */
std::string
resultLine(const Stonne &st, const SimulationResult &r)
{
    const Tensor &out = st.output();
    const std::uint32_t crc = crc32(
        reinterpret_cast<const std::uint8_t *>(out.data()),
        static_cast<std::size_t>(out.size()) * sizeof(float));
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%llu %llu %llu %llu %016llx %08x",
                  static_cast<unsigned long long>(r.cycles),
                  static_cast<unsigned long long>(r.macs),
                  static_cast<unsigned long long>(r.skipped_macs),
                  static_cast<unsigned long long>(r.mem_accesses),
                  static_cast<unsigned long long>(statsDigest(st.stats())),
                  static_cast<unsigned>(crc));
    return buf;
}

/** Golden lines by point key. */
const std::map<std::string, std::string> &
goldens()
{
    static const std::map<std::string, std::string> table = {
        {"maeri M-FC MAERI 128x1 IS mapper 3x3x1x14x1x1x1x1",
         "73605 225792 0 97920 97433dca9ed49e82 0706624a"},
        {"maeri M-FC MAERI 128x1 IS tile 1x3x1x2x1x1x2x2",
         "140043 225792 0 142336 60adb6f409fe95da 0706624a"},
        {"maeri M-FC MAERI 128x1 IS tile 2x1x1x7x1x1x2x4",
         "209170 225792 0 217216 50d1d08dd765abaf 0706624a"},
        {"maeri M-FC MAERI 128x1 IS tile 3x3x1x1x1x1x8x1",
         "73488 225792 0 97920 76cd1541fea61ac1 0706624a"},
        {"maeri M-FC MAERI 128x1 OS mapper 3x3x1x14x1x1x1x1",
         "73605 225792 0 97920 97433dca9ed49e82 0706624a"},
        {"maeri M-FC MAERI 128x1 OS tile 3x1x1x1x1x1x1x2",
         "139528 225792 0 138880 2481fc54a8c9f745 0706624a"},
        {"maeri M-FC MAERI 128x1 OS tile 3x1x1x1x1x1x6x5",
         "201096 225792 0 203392 095f4f2b162e2988 0706624a"},
        {"maeri M-FC MAERI 128x1 OS tile 3x3x1x1x1x1x1x8",
         "189456 225792 0 215680 92b74c8b6517ca2f 0706624a"},
        {"maeri M-FC MAERI 128x1 WS mapper 3x3x1x14x1x1x1x1",
         "73605 225792 0 97920 97433dca9ed49e82 0706624a"},
        {"maeri M-FC MAERI 128x1 WS tile 1x1x1x4x1x1x4x8",
         "408967 225792 0 632448 c476e18c5f6232f6 0706624a"},
        {"maeri M-FC MAERI 128x1 WS tile 1x2x1x8x1x1x5x1",
         "240404 225792 0 365184 67c5cf45ff7714a4 0706624a"},
        {"maeri M-FC MAERI 128x1 WS tile 3x1x1x7x1x1x1x4",
         "210714 225792 0 285312 8d4a6679f7f4af61 0706624a"},
        {"maeri M-FC MAERI 64x16 IS mapper 3x3x1x7x1x1x1x1",
         "6795 225792 0 97920 cc523b17bb693246 0706624a"},
        {"maeri M-FC MAERI 64x16 IS tile 2x2x1x5x1x1x2x1",
         "9902 225792 0 126848 9680ef6a1fec33ef 0706624a"},
        {"maeri M-FC MAERI 64x16 IS tile 3x1x1x4x1x1x3x1",
         "8934 225792 0 104960 d9c6d46b605f8980 0706624a"},
        {"maeri M-FC MAERI 64x16 IS tile 3x2x1x7x1x1x1x1",
         "9554 225792 0 107520 c5bd70779217c5cd 0706624a"},
        {"maeri M-FC MAERI 64x16 OS mapper 3x3x1x7x1x1x1x1",
         "6795 225792 0 97920 cc523b17bb693246 0706624a"},
        {"maeri M-FC MAERI 64x16 OS tile 1x3x1x5x1x1x2x1",
         "9973 225792 0 105984 ab6ebf239ba6324c 0706624a"},
        {"maeri M-FC MAERI 64x16 OS tile 3x1x1x3x1x1x1x4",
         "15902 225792 0 189568 b0750d066260fbfd 0706624a"},
        {"maeri M-FC MAERI 64x16 OS tile 3x1x1x3x1x1x6x1",
         "10034 225792 0 100224 10525feb787c9c21 0706624a"},
        {"maeri M-FC MAERI 64x16 WS mapper 3x3x1x7x1x1x1x1",
         "6795 225792 0 97920 cc523b17bb693246 0706624a"},
        {"maeri M-FC MAERI 64x16 WS tile 2x2x1x1x1x1x1x8",
         "19078 225792 0 222592 c070e4b09e4bb89f 0706624a"},
        {"maeri M-FC MAERI 64x16 WS tile 2x2x1x4x1x1x1x4",
         "16838 225792 0 306048 410f9360db58b946 0706624a"},
        {"maeri M-FC MAERI 64x16 WS tile 3x3x1x1x1x1x1x4",
         "14088 225792 0 184960 296cc2bf8d75e842 0706624a"},
        {"maeri M-FC MAERI-DIST 64x16 OS mapper 3x3x1x7x1x1x1x1",
         "6795 225792 0 97920 cc523b17bb693246 0706624a"},
        {"maeri M-FC MAERI-DIST 64x16 OS tile 1x2x1x1x1x1x5x2",
         "24453 225792 0 384128 569cca2c51a508c1 0706624a"},
        {"maeri M-FC MAERI-DIST 64x16 OS tile 1x3x1x5x1x1x3x1",
         "9207 225792 0 198272 e13d5d8d903bead0 0706624a"},
        {"maeri M-FC MAERI-DIST 64x16 OS tile 2x2x1x1x1x1x1x7",
         "24326 225792 0 322944 2608a6aca231e14a 0706624a"},
        {"maeri R-C MAERI 128x1 IS mapper 3x3x14x1x1x1x1x1",
         "110331 7225344 0 85248 bd34b1bdd2bb5d13 8640f664"},
        {"maeri R-C MAERI 128x1 IS tile 1x3x10x1x2x1x2x1",
         "125410 7225344 0 122880 4b6f236accd10c45 8640f664"},
        {"maeri R-C MAERI 128x1 IS tile 2x1x13x1x1x1x1x4",
         "174283 7225344 0 129968 9e4d7747597f80d1 8640f664"},
        {"maeri R-C MAERI 128x1 IS tile 3x3x3x1x1x1x4x1",
         "126124 7225344 0 85248 03f13a5dc8d13fc4 8640f664"},
        {"maeri R-C MAERI 128x1 OS mapper 3x3x14x1x1x1x1x1",
         "2310921 7225344 0 2343168 89807cf8cc356215 8640f664"},
        {"maeri R-C MAERI 128x1 OS tile 3x1x10x1x2x1x2x1",
         "1188550 7225344 0 1257728 30e7aa3e9aa121dc 8640f664"},
        {"maeri R-C MAERI 128x1 OS tile 3x1x1x1x4x1x1x2",
         "971019 7225344 0 1085696 4d45465609d24595 8640f664"},
        {"maeri R-C MAERI 128x1 OS tile 3x3x3x1x1x1x1x4",
         "5091620 7225344 0 5128448 e28f531b24d5e33e 8640f664"},
        {"maeri R-C MAERI 128x1 WS mapper 3x3x14x1x1x1x1x1",
         "2310921 7225344 0 2343168 89807cf8cc356215 8640f664"},
        {"maeri R-C MAERI 128x1 WS tile 1x1x6x1x6x1x2x1",
         "1594354 7225344 0 2827008 1a1d9a060ba65ca0 8640f664"},
        {"maeri R-C MAERI 128x1 WS tile 1x2x13x1x3x1x1x1",
         "1122347 7225344 0 1447024 380bef61afe8ede6 8640f664"},
        {"maeri R-C MAERI 128x1 WS tile 3x1x2x1x8x1x1x2",
         "1650094 7225344 0 2883328 f181e335875486f1 8640f664"},
        {"maeri R-C MAERI 64x16 IS mapper 3x3x7x1x1x1x1x1",
         "127816 7225344 0 85248 fb90ad835d9fb87f 8640f664"},
        {"maeri R-C MAERI 64x16 IS tile 2x2x2x1x1x1x2x3",
         "165480 7225344 0 124416 ec15151bc44c5fba 8640f664"},
        {"maeri R-C MAERI 64x16 IS tile 3x1x4x1x1x1x4x1",
         "173017 7225344 0 85248 4ce2b3124178f1d2 8640f664"},
        {"maeri R-C MAERI 64x16 IS tile 3x2x1x1x1x1x6x1",
         "259080 7225344 0 85248 5e21232b51df9962 8640f664"},
        {"maeri R-C MAERI 64x16 OS mapper 3x3x7x1x1x1x1x1",
         "224206 7225344 0 2343168 de384b9ad0d97382 8640f664"},
        {"maeri R-C MAERI 64x16 OS tile 1x3x2x1x1x1x2x5",
         "379720 7225344 0 5619968 648a90137215d767 8640f664"},
        {"maeri R-C MAERI 64x16 OS tile 3x1x3x1x1x1x1x4",
         "451401 7225344 0 5128448 c7f54f80dcd121e6 8640f664"},
        {"maeri R-C MAERI 64x16 OS tile 3x1x3x1x4x1x1x1",
         "201502 7225344 0 749824 7b723466f9616260 8640f664"},
        {"maeri R-C MAERI 64x16 WS mapper 3x3x7x1x1x1x1x1",
         "224206 7225344 0 2343168 de384b9ad0d97382 8640f664"},
        {"maeri R-C MAERI 64x16 WS tile 2x2x2x1x4x1x1x2",
         "224236 7225344 0 2854656 9f0bdfc066de14ca 8640f664"},
        {"maeri R-C MAERI 64x16 WS tile 2x2x3x1x4x1x1x1",
         "287406 7225344 0 1801984 6b44707afd33c0bb 8640f664"},
        {"maeri R-C MAERI 64x16 WS tile 3x3x1x1x1x1x1x4",
         "451401 7225344 0 5128448 c7f54f80dcd121e6 8640f664"},
        {"maeri R-C MAERI-DIST 64x16 OS mapper 3x3x7x1x1x1x1x1",
         "328206 7225344 0 2568960 825cc9935ad77c5a 8640f664"},
        {"maeri R-C MAERI-DIST 64x16 OS tile 1x2x6x1x4x1x1x1",
         "287406 7225344 0 1801984 6b44707afd33c0bb 8640f664"},
        {"maeri R-C MAERI-DIST 64x16 OS tile 1x3x1x1x6x1x3x1",
         "391938 7225344 0 5235456 8e60889ac4d974fe 8640f664"},
        {"maeri R-C MAERI-DIST 64x16 OS tile 2x2x2x1x1x1x1x7",
         "563464 7225344 0 7974656 9099afb2516a3c6c 8640f664"},
        {"maeri S-EC MAERI 128x1 IS mapper 3x3x2x1x7x1x1x1",
         "60706 1557504 0 64976 b731cbc18246d22c df1642c3"},
        {"maeri S-EC MAERI 128x1 IS tile 1x3x10x1x2x1x2x1",
         "37617 1557504 0 37136 2d2acb14e10f548f df1642c3"},
        {"maeri S-EC MAERI 128x1 IS tile 2x1x13x1x1x1x1x4",
         "47952 1557504 0 37450 3ab6d507580dd76a df1642c3"},
        {"maeri S-EC MAERI 128x1 IS tile 3x3x3x1x1x1x4x1",
         "38227 1557504 0 27728 1742b5ff6496faf5 df1642c3"},
        {"maeri S-EC MAERI 128x1 OS mapper 3x3x2x1x7x1x1x1",
         "92791 1557504 0 137696 1f6fdb4fe60aee83 df1642c3"},
        {"maeri S-EC MAERI 128x1 OS tile 3x1x10x1x2x1x2x1",
         "264260 1557504 0 281664 13c82c0ac4ad9511 df1642c3"},
        {"maeri S-EC MAERI 128x1 OS tile 3x1x1x1x4x1x1x2",
         "217938 1557504 0 232512 0ae273ecc07c10c4 df1642c3"},
        {"maeri S-EC MAERI 128x1 OS tile 3x3x3x1x1x1x1x4",
         "1114595 1557504 0 1118784 2149a9c5753c05dd df1642c3"},
        {"maeri S-EC MAERI 128x1 WS mapper 3x3x2x1x7x1x1x1",
         "155322 1557504 0 248416 96d9204b2e1a767b df1642c3"},
        {"maeri S-EC MAERI 128x1 WS tile 1x1x6x1x6x1x2x1",
         "340708 1557504 0 602224 2a15da763b0f74af df1642c3"},
        {"maeri S-EC MAERI 128x1 WS tile 1x2x13x1x3x1x1x1",
         "237246 1557504 0 310704 4bca0506bfbaff24 df1642c3"},
        {"maeri S-EC MAERI 128x1 WS tile 3x1x2x1x8x1x1x2",
         "350360 1557504 0 612288 b1f612f2e0beaa94 df1642c3"},
        {"maeri S-EC MAERI 64x16 IS mapper 3x3x1x1x7x1x1x1",
         "27741 1557504 0 64976 8f78aebb848cfe93 df1642c3"},
        {"maeri S-EC MAERI 64x16 IS tile 2x2x2x1x1x1x2x3",
         "41781 1557504 0 36124 e50645215a0422ef df1642c3"},
        {"maeri S-EC MAERI 64x16 IS tile 3x1x4x1x1x1x4x1",
         "40684 1557504 0 27728 096d2217976ac38e df1642c3"},
        {"maeri S-EC MAERI 64x16 IS tile 3x2x1x1x1x1x6x1",
         "60663 1557504 0 27728 9974274f99d92245 df1642c3"},
        {"maeri S-EC MAERI 64x16 OS mapper 3x3x1x1x7x1x1x1",
         "27741 1557504 0 137696 f8b74e08cc0b47fb df1642c3"},
        {"maeri S-EC MAERI 64x16 OS tile 1x3x2x1x1x1x2x5",
         "87239 1557504 0 1194560 be411f3da20f3a6c df1642c3"},
        {"maeri S-EC MAERI 64x16 OS tile 3x1x3x1x1x1x1x4",
         "105160 1557504 0 1118784 5c6f11f175d23698 df1642c3"},
        {"maeri S-EC MAERI 64x16 OS tile 3x1x3x1x4x1x1x1",
         "43963 1557504 0 164672 21875d1fefd96574 df1642c3"},
        {"maeri S-EC MAERI 64x16 WS mapper 3x3x1x1x7x1x1x1",
         "50452 1557504 0 421472 5d0092de83fb06fe df1642c3"},
        {"maeri S-EC MAERI 64x16 WS tile 2x2x2x1x4x1x1x2",
         "49609 1557504 0 603264 e809e255e716414b df1642c3"},
        {"maeri S-EC MAERI 64x16 WS tile 2x2x3x1x4x1x1x1",
         "59915 1557504 0 381120 9ae9d2faafc6b7f1 df1642c3"},
        {"maeri S-EC MAERI 64x16 WS tile 3x3x1x1x1x1x1x4",
         "105160 1557504 0 1118784 5c6f11f175d23698 df1642c3"},
        {"maeri S-EC MAERI-DIST 64x16 OS mapper 3x3x1x1x7x1x1x1",
         "50452 1557504 0 421472 5d0092de83fb06fe df1642c3"},
        {"maeri S-EC MAERI-DIST 64x16 OS tile 1x2x6x1x4x1x1x1",
         "59915 1557504 0 381120 9ae9d2faafc6b7f1 df1642c3"},
        {"maeri S-EC MAERI-DIST 64x16 OS tile 1x3x1x1x6x1x3x1",
         "88196 1557504 0 1121392 a72497b5bc664698 df1642c3"},
        {"maeri S-EC MAERI-DIST 64x16 OS tile 2x2x2x1x1x1x1x7",
         "128519 1557504 0 1694912 88a7a52b7bd7636d df1642c3"},
        {"maeri S-SC MAERI 128x1 IS mapper 1x1x64x1x2x1x1x1",
         "13319 173056 0 14544 ee5cd0ee32ed2fa4 7edd2e5f"},
        {"maeri S-SC MAERI 128x1 IS tile 1x1x13x1x1x1x2x4",
         "15640 173056 0 14544 3787274de6f7a0b9 7edd2e5f"},
        {"maeri S-SC MAERI 128x1 IS tile 1x1x24x1x1x1x3x1",
         "16477 173056 0 14544 bc27ef882461bf4a 7edd2e5f"},
        {"maeri S-SC MAERI 128x1 IS tile 1x1x9x1x5x1x2x1",
         "16999 173056 0 17616 778cafdcca51447a 7edd2e5f"},
        {"maeri S-SC MAERI 128x1 OS mapper 1x1x64x1x2x1x1x1",
         "86665 173056 0 90256 448cdb4944434f9c 7edd2e5f"},
        {"maeri S-SC MAERI 128x1 OS tile 1x1x12x1x1x1x6x1",
         "175779 173056 0 176784 d4197cbe31314d4c 7edd2e5f"},
        {"maeri S-SC MAERI 128x1 OS tile 1x1x27x1x2x1x1x2",
         "89294 173056 0 91280 10088869244b4722 7edd2e5f"},
        {"maeri S-SC MAERI 128x1 OS tile 1x1x29x1x1x1x1x4",
         "175797 173056 0 176784 d5024e51a12991a5 7edd2e5f"},
        {"maeri S-SC MAERI 128x1 WS mapper 1x1x64x1x2x1x1x1",
         "86665 173056 0 90256 448cdb4944434f9c 7edd2e5f"},
        {"maeri S-SC MAERI 128x1 WS tile 1x1x28x1x4x1x1x1",
         "48792 173056 0 57808 4b82bfafffd0745c 7edd2e5f"},
        {"maeri S-SC MAERI 128x1 WS tile 1x1x29x1x3x1x1x1",
         "70399 173056 0 79440 0b6fcc6d1f596b33 7edd2e5f"},
        {"maeri S-SC MAERI 128x1 WS tile 1x1x6x1x6x1x2x1",
         "59530 173056 0 90256 8e6ab6a0be579a08 7edd2e5f"},
        {"maeri S-SC MAERI 64x16 IS mapper 1x1x64x1x1x1x1x1",
         "3224 173056 0 14544 3d2e1ded41bda410 7edd2e5f"},
        {"maeri S-SC MAERI 64x16 IS tile 1x1x11x1x1x1x4x1",
         "5644 173056 0 14544 1231a42dd5a803f3 7edd2e5f"},
        {"maeri S-SC MAERI 64x16 IS tile 1x1x11x1x2x1x2x1",
         "5021 173056 0 15568 b34e9de5b711a3e2 7edd2e5f"},
        {"maeri S-SC MAERI 64x16 IS tile 1x1x2x1x5x1x2x1",
         "11829 173056 0 17616 cfc3814cd76b3b89 7edd2e5f"},
        {"maeri S-SC MAERI 64x16 OS mapper 1x1x64x1x1x1x1x1",
         "10829 173056 0 176784 0a6124605ec2ed86 7edd2e5f"},
        {"maeri S-SC MAERI 64x16 OS tile 1x1x14x1x1x1x1x4",
         "12456 173056 0 176784 964bed36f4210df0 7edd2e5f"},
        {"maeri S-SC MAERI 64x16 OS tile 1x1x15x1x1x1x2x1",
         "12456 173056 0 176784 c8330c04da7c9d66 7edd2e5f"},
        {"maeri S-SC MAERI 64x16 OS tile 1x1x2x1x4x1x6x1",
         "5169 173056 0 50064 71dcd93a3f25ccb3 7edd2e5f"},
        {"maeri S-SC MAERI 64x16 WS mapper 1x1x64x1x1x1x1x1",
         "10829 173056 0 176784 0a6124605ec2ed86 7edd2e5f"},
        {"maeri S-SC MAERI 64x16 WS tile 1x1x15x1x4x1x1x1",
         "6095 173056 0 68624 eae22f893e6f9e7d 7edd2e5f"},
        {"maeri S-SC MAERI 64x16 WS tile 1x1x16x1x1x1x1x1",
         "11000 173056 0 176784 7a3dc2dc6a39e7dd 7edd2e5f"},
        {"maeri S-SC MAERI 64x16 WS tile 1x1x6x1x4x1x1x2",
         "7652 173056 0 101072 ce047fb80f11ef52 7edd2e5f"},
        {"maeri S-SC MAERI-DIST 64x16 OS mapper 1x1x64x1x1x1x1x1",
         "10829 173056 0 176784 0a6124605ec2ed86 7edd2e5f"},
        {"maeri S-SC MAERI-DIST 64x16 OS tile 1x1x14x1x1x1x1x4",
         "15608 173056 0 198416 b4eaa403d70e29dd 7edd2e5f"},
        {"maeri S-SC MAERI-DIST 64x16 OS tile 1x1x2x1x1x1x3x7",
         "22245 173056 0 344432 c62ffbe56e756bf2 7edd2e5f"},
        {"maeri S-SC MAERI-DIST 64x16 OS tile 1x1x7x1x3x1x3x1",
         "10226 173056 0 117296 431cafb84064b4e5 7edd2e5f"},
        {"maeri batch2 MAERI 128x1 IS mapper 3x3x4x1x3x1x1x1",
         "3756 56448 0 4112 03772d97b863dbb4 246511d6"},
        {"maeri batch2 MAERI 128x1 IS tile 1x3x8x1x1x1x3x1",
         "3844 56448 0 3488 d74baea7db5e893d 246511d6"},
        {"maeri batch2 MAERI 128x1 IS tile 2x1x5x1x1x1x2x5",
         "6657 56448 0 6316 8dfa1bc2b770e07f 246511d6"},
        {"maeri batch2 MAERI 128x1 IS tile 3x3x3x1x1x1x4x1",
         "3547 56448 0 3488 326ed1908d4d3d2e 246511d6"},
        {"maeri batch2 MAERI 128x1 OS mapper 3x3x4x1x3x1x1x1",
         "7513 56448 0 8464 e6437faee41f4b2d 246511d6"},
        {"maeri batch2 MAERI 128x1 OS tile 3x1x3x1x2x1x1x5",
         "20553 56448 0 21680 605bf881927d8be9 246511d6"},
        {"maeri batch2 MAERI 128x1 OS tile 3x1x4x1x2x1x4x1",
         "9423 56448 0 9872 15185404a248f5dc 246511d6"},
        {"maeri batch2 MAERI 128x1 OS tile 3x3x3x1x1x1x1x4",
         "39731 56448 0 40272 f0768a927459f8da 246511d6"},
        {"maeri batch2 MAERI 128x1 WS mapper 3x3x4x1x3x1x1x1",
         "7397 56448 0 9312 96056ee1829a501d 246511d6"},
        {"maeri batch2 MAERI 128x1 WS tile 1x1x6x1x6x1x2x1",
         "13366 56448 0 22864 ebbef0773ccda4f5 246511d6"},
        {"maeri batch2 MAERI 128x1 WS tile 1x2x5x1x3x1x1x1",
         "13157 56448 0 19872 73e04b4cbaec503f 246511d6"},
        {"maeri batch2 MAERI 128x1 WS tile 3x1x4x1x8x1x1x1",
         "6586 56448 0 11328 0c6b7c8f3d13b118 246511d6"},
        {"maeri batch2 MAERI 64x16 IS mapper 3x3x3x1x2x1x1x1",
         "1260 56448 0 3488 343d343d759cb1f9 246511d6"},
        {"maeri batch2 MAERI 64x16 IS tile 2x2x2x1x1x2x2x1",
         "2102 56448 0 3800 e21d8e35dd41970e 246511d6"},
        {"maeri batch2 MAERI 64x16 IS tile 3x1x4x1x1x1x4x1",
         "1432 56448 0 3488 ffc912c40a39d28f 246511d6"},
        {"maeri batch2 MAERI 64x16 IS tile 3x2x1x1x1x1x7x1",
         "1431 56448 0 3488 378e92c02c48963d 246511d6"},
        {"maeri batch2 MAERI 64x16 OS mapper 3x3x3x1x2x1x1x1",
         "1320 56448 0 9872 c8b26a88e0bed9c8 246511d6"},
        {"maeri batch2 MAERI 64x16 OS tile 1x3x2x1x1x1x2x4",
         "3263 56448 0 40272 97e43bd04bf20577 246511d6"},
        {"maeri batch2 MAERI 64x16 OS tile 3x1x3x1x1x1x1x4",
         "3392 56448 0 40272 1d7c1fae43f50a75 246511d6"},
        {"maeri batch2 MAERI 64x16 OS tile 3x1x3x1x4x1x1x1",
         "1628 56448 0 6288 fcf0b6fc60e587c7 246511d6"},
        {"maeri batch2 MAERI 64x16 WS mapper 3x3x3x1x2x1x1x1",
         "1320 56448 0 9872 c8b26a88e0bed9c8 246511d6"},
        {"maeri batch2 MAERI 64x16 WS tile 2x2x2x1x4x2x1x1",
         "1626 56448 0 19072 247dd8ed9de76f38 246511d6"},
        {"maeri batch2 MAERI 64x16 WS tile 2x2x3x1x4x1x1x1",
         "2026 56448 0 13456 bf6368639ef75ab0 246511d6"},
        {"maeri batch2 MAERI 64x16 WS tile 3x3x1x1x1x1x1x4",
         "3392 56448 0 40272 1d7c1fae43f50a75 246511d6"},
        {"maeri batch2 MAERI-DIST 64x16 OS mapper 3x3x3x1x2x1x1x1",
         "1940 56448 0 13008 11be205950455d2b 246511d6"},
        {"maeri batch2 MAERI-DIST 64x16 OS tile 1x2x6x1x4x1x1x1",
         "2026 56448 0 13456 bf6368639ef75ab0 246511d6"},
        {"maeri batch2 MAERI-DIST 64x16 OS tile 1x3x1x1x8x2x1x1",
         "2060 56448 0 39552 620c2956c4d7b6a6 246511d6"},
        {"maeri batch2 MAERI-DIST 64x16 OS tile 2x2x2x1x2x1x1x4",
         "2415 56448 0 33968 0cd14e79a48099e8 246511d6"},
        {"maeri depthwise MAERI 128x1 IS mapper 3x3x1x8x1x1x1x1",
         "1951 5832 0 2520 c2a4c7c4b41f66dc 9c6503c0"},
        {"maeri depthwise MAERI 128x1 IS tile 1x3x1x2x1x1x2x2",
         "3535 5832 0 3520 0ba4287690f93054 9c6503c0"},
        {"maeri depthwise MAERI 128x1 IS tile 2x1x1x7x1x1x2x4",
         "5322 5832 0 5560 a556c59748896b3c 9c6503c0"},
        {"maeri depthwise MAERI 128x1 IS tile 3x3x1x1x1x1x8x1",
         "1888 5832 0 2520 c2ab4b3df532377e 9c6503c0"},
        {"maeri depthwise MAERI 128x1 OS mapper 3x3x1x8x1x1x1x1",
         "1951 5832 0 2520 c2a4c7c4b41f66dc 9c6503c0"},
        {"maeri depthwise MAERI 128x1 OS tile 3x1x1x1x1x1x1x2",
         "3736 5832 0 3520 f26a2a088ec95126 9c6503c0"},
        {"maeri depthwise MAERI 128x1 OS tile 3x1x1x1x1x1x6x5",
         "5056 5832 0 5120 8a4c566e473c027d 9c6503c0"},
        {"maeri depthwise MAERI 128x1 OS tile 3x3x1x1x1x1x1x8",
         "4688 5832 0 5320 278ffacd5b86d5ab 9c6503c0"},
        {"maeri depthwise MAERI 128x1 WS mapper 3x3x1x8x1x1x1x1",
         "1951 5832 0 2520 c2a4c7c4b41f66dc 9c6503c0"},
        {"maeri depthwise MAERI 128x1 WS tile 1x1x1x4x1x1x4x8",
         "10327 5832 0 16088 9bc5b33c732b52f5 9c6503c0"},
        {"maeri depthwise MAERI 128x1 WS tile 1x2x1x8x1x1x5x1",
         "6084 5832 0 9304 9ed92449dc25c73b 9c6503c0"},
        {"maeri depthwise MAERI 128x1 WS tile 3x1x1x7x1x1x1x4",
         "5458 5832 0 7312 c82a430d937460e7 9c6503c0"},
        {"maeri depthwise MAERI 64x16 IS mapper 3x3x1x7x1x1x1x1",
         "238 5832 0 2520 d938519bbfb852de 9c6503c0"},
        {"maeri depthwise MAERI 64x16 IS tile 2x2x1x5x1x1x2x1",
         "336 5832 0 3248 49cff9a440cc7c8e 9c6503c0"},
        {"maeri depthwise MAERI 64x16 IS tile 3x1x1x4x1x1x3x1",
         "234 5832 0 2720 8353c4ab5c8c9aaa 9c6503c0"},
        {"maeri depthwise MAERI 64x16 IS tile 3x2x1x7x1x1x1x1",
         "384 5832 0 2664 1730a394f2eb6359 9c6503c0"},
        {"maeri depthwise MAERI 64x16 OS mapper 3x3x1x7x1x1x1x1",
         "238 5832 0 2520 d938519bbfb852de 9c6503c0"},
        {"maeri depthwise MAERI 64x16 OS tile 1x3x1x5x1x1x2x1",
         "335 5832 0 2688 0ea7c29861497f89 9c6503c0"},
        {"maeri depthwise MAERI 64x16 OS tile 3x1x1x3x1x1x1x4",
         "492 5832 0 4792 5c088905ee4fe73a 9c6503c0"},
        {"maeri depthwise MAERI 64x16 OS tile 3x1x1x3x1x1x6x1",
         "264 5832 0 2720 caf14c263e7685c8 9c6503c0"},
        {"maeri depthwise MAERI 64x16 WS mapper 3x3x1x7x1x1x1x1",
         "238 5832 0 2520 d938519bbfb852de 9c6503c0"},
        {"maeri depthwise MAERI 64x16 WS tile 2x2x1x1x1x1x1x8",
         "614 5832 0 5456 49085eb9bd394e58 9c6503c0"},
        {"maeri depthwise MAERI 64x16 WS tile 2x2x1x4x1x1x1x4",
         "448 5832 0 7720 d5a2739a1078281b 9c6503c0"},
        {"maeri depthwise MAERI 64x16 WS tile 3x3x1x1x1x1x1x4",
         "424 5832 0 4720 3a55c689abeb1fd7 9c6503c0"},
        {"maeri depthwise MAERI-DIST 64x16 OS mapper 3x3x1x7x1x1x1x1",
         "238 5832 0 2520 d938519bbfb852de 9c6503c0"},
        {"maeri depthwise MAERI-DIST 64x16 OS tile 1x2x1x1x1x1x5x2",
         "701 5832 0 9712 09680e2104bcf481 9c6503c0"},
        {"maeri depthwise MAERI-DIST 64x16 OS tile 1x3x1x5x1x1x3x1",
         "280 5832 0 5112 9fa970f293e7ca7e 9c6503c0"},
        {"maeri depthwise MAERI-DIST 64x16 OS tile 2x2x1x1x1x1x1x7",
         "838 5832 0 7984 1d945d854b625fd7 9c6503c0"},
        {"maeri grouped MAERI 128x1 IS mapper 3x3x4x1x3x1x1x1",
         "3417 36864 0 4416 787317e30cf6e8ac ef9ed49f"},
        {"maeri grouped MAERI 128x1 IS tile 1x3x4x2x1x1x3x1",
         "4321 36864 0 4416 94aedbbdfdc05810 ef9ed49f"},
        {"maeri grouped MAERI 128x1 IS tile 2x1x1x3x3x1x1x4",
         "9230 36864 0 10192 ab33856e435226ea ef9ed49f"},
        {"maeri grouped MAERI 128x1 IS tile 3x3x3x1x1x1x4x1",
         "4396 36864 0 4416 5c8a13a9d72ad37b ef9ed49f"},
        {"maeri grouped MAERI 128x1 OS mapper 3x3x4x1x3x1x1x1",
         "5877 36864 0 7232 3e02eb2cadb6f55a ef9ed49f"},
        {"maeri grouped MAERI 128x1 OS tile 3x1x3x1x4x1x1x2",
         "5643 36864 0 6176 ea12d66d85850ea5 ef9ed49f"},
        {"maeri grouped MAERI 128x1 OS tile 3x1x4x1x1x1x6x1",
         "12403 36864 0 12864 e0fedfd37eafd836 ef9ed49f"},
        {"maeri grouped MAERI 128x1 OS tile 3x3x3x1x1x1x1x4",
         "27811 36864 0 28352 c2fd24d48a63dc84 ef9ed49f"},
        {"maeri grouped MAERI 128x1 WS mapper 3x3x4x1x3x1x1x1",
         "5877 36864 0 7232 3e02eb2cadb6f55a ef9ed49f"},
        {"maeri grouped MAERI 128x1 WS tile 1x1x2x1x2x1x4x8",
         "16520 36864 0 17088 bdc998cec2051c8b ef9ed49f"},
        {"maeri grouped MAERI 128x1 WS tile 1x2x1x4x3x1x1x3",
         "31952 36864 0 50496 ac3a9ac219cbf810 ef9ed49f"},
        {"maeri grouped MAERI 128x1 WS tile 3x1x4x1x4x1x1x2",
         "5655 36864 0 6176 382e6ffa0dd39caa ef9ed49f"},
        {"maeri grouped MAERI 64x16 IS mapper 3x3x4x1x1x1x1x1",
         "1060 36864 0 4416 4b6399e744e877e4 ef9ed49f"},
        {"maeri grouped MAERI 64x16 IS tile 2x2x2x1x1x1x2x3",
         "1263 36864 0 7392 451b98b9a97eaedf ef9ed49f"},
        {"maeri grouped MAERI 64x16 IS tile 3x1x3x1x2x1x3x1",
         "857 36864 0 4416 888167bcc539a882 ef9ed49f"},
        {"maeri grouped MAERI 64x16 IS tile 3x2x1x3x1x1x1x2",
         "1728 36864 0 6176 018e814150d6e508 ef9ed49f"},
        {"maeri grouped MAERI 64x16 OS mapper 3x3x4x1x1x1x1x1",
         "1132 36864 0 12864 977316ed5a051dd0 ef9ed49f"},
        {"maeri grouped MAERI 64x16 OS tile 1x3x3x1x1x1x1x4",
         "2376 36864 0 28352 f1d25ecf7368ce34 ef9ed49f"},
        {"maeri grouped MAERI 64x16 OS tile 3x1x2x1x4x1x2x1",
         "840 36864 0 4416 d88cfd0144a8cf16 ef9ed49f"},
        {"maeri grouped MAERI 64x16 OS tile 3x1x2x2x1x1x1x4",
         "1863 36864 0 28352 24a7f988f3e72ab9 ef9ed49f"},
        {"maeri grouped MAERI 64x16 WS mapper 3x3x4x1x1x1x1x1",
         "1132 36864 0 12864 977316ed5a051dd0 ef9ed49f"},
        {"maeri grouped MAERI 64x16 WS tile 2x2x2x1x4x1x1x2",
         "712 36864 0 6704 72aba55d6d46a69d ef9ed49f"},
        {"maeri grouped MAERI 64x16 WS tile 2x2x3x4x1x1x1x1",
         "930 36864 0 12864 157ab981b3021098 ef9ed49f"},
        {"maeri grouped MAERI 64x16 WS tile 3x3x1x1x1x1x1x4",
         "2376 36864 0 28352 f1d25ecf7368ce34 ef9ed49f"},
        {"maeri grouped MAERI-DIST 64x16 OS mapper 3x3x4x1x1x1x1x1",
         "1132 36864 0 12864 977316ed5a051dd0 ef9ed49f"},
        {"maeri grouped MAERI-DIST 64x16 OS tile 1x2x2x1x1x1x5x2",
         "2790 36864 0 38208 91bae6f780cb5e0c ef9ed49f"},
        {"maeri grouped MAERI-DIST 64x16 OS tile 1x3x3x1x4x1x1x1",
         "1706 36864 0 10560 f7305c266dccf886 ef9ed49f"},
        {"maeri grouped MAERI-DIST 64x16 OS tile 2x2x2x1x1x1x1x7",
         "3559 36864 0 38304 99be12a994b2c6c1 ef9ed49f"},
        {"maeri mixed MAERI 128x1 IS mapper 3x3x4x1x3x1x1x1",
         "2147 14400 0 2560 3a6ba5e86bb85e69 c4fae823"},
        {"maeri mixed MAERI 128x1 IS tile 1x3x4x2x1x1x3x1",
         "2515 14400 0 2560 88d396a61d8feab8 c4fae823"},
        {"maeri mixed MAERI 128x1 IS tile 2x1x1x1x3x1x4x5",
         "3276 14400 0 3392 7bba2c79d5aca9e6 c4fae823"},
        {"maeri mixed MAERI 128x1 IS tile 3x3x3x1x1x1x4x1",
         "2582 14400 0 2560 ced0eff06d10abe7 c4fae823"},
        {"maeri mixed MAERI 128x1 OS mapper 3x3x4x1x3x1x1x1",
         "3861 14400 0 4432 884f5ab862eb8046 c4fae823"},
        {"maeri mixed MAERI 128x1 OS tile 3x1x3x1x2x1x5x1",
         "4169 14400 0 4432 8c9c9b8301eff6ac c4fae823"},
        {"maeri mixed MAERI 128x1 OS tile 3x1x4x1x2x1x1x4",
         "5423 14400 0 5680 be3e64afcdf45421 c4fae823"},
        {"maeri mixed MAERI 128x1 OS tile 3x3x3x1x1x1x1x4",
         "10419 14400 0 10672 8d0453237f14a40e c4fae823"},
        {"maeri mixed MAERI 128x1 WS mapper 3x3x4x1x3x1x1x1",
         "3861 14400 0 4432 884f5ab862eb8046 c4fae823"},
        {"maeri mixed MAERI 128x1 WS tile 1x1x2x1x2x1x5x5",
         "5816 14400 0 6096 37825fd46e513deb c4fae823"},
        {"maeri mixed MAERI 128x1 WS tile 1x2x1x2x3x1x2x3",
         "12384 14400 0 19696 3ee79fdc2929e140 c4fae823"},
        {"maeri mixed MAERI 128x1 WS tile 3x1x4x1x4x1x1x2",
         "2743 14400 0 2976 f97cf385ba9dfda6 c4fae823"},
        {"maeri mixed MAERI 64x16 IS mapper 3x3x4x1x1x1x1x1",
         "460 14400 0 2560 6e18c9fce53eb71c c4fae823"},
        {"maeri mixed MAERI 64x16 IS tile 2x2x2x1x1x2x2x1",
         "697 14400 0 2704 bf5cac4650744671 c4fae823"},
        {"maeri mixed MAERI 64x16 IS tile 3x1x3x1x1x1x4x1",
         "744 14400 0 2560 95fc8a87ed101e9a c4fae823"},
        {"maeri mixed MAERI 64x16 IS tile 3x2x1x1x2x1x2x1",
         "755 14400 0 2560 9776e40aea12af96 c4fae823"},
        {"maeri mixed MAERI 64x16 OS mapper 3x3x4x1x1x1x1x1",
         "604 14400 0 8176 27b2defb279a21c6 c4fae823"},
        {"maeri mixed MAERI 64x16 OS tile 1x3x3x1x1x1x4x1",
         "936 14400 0 8176 30915b6b4319650e c4fae823"},
        {"maeri mixed MAERI 64x16 OS tile 3x1x2x1x4x1x2x1",
         "394 14400 0 2560 a994a75569a4c9b4 c4fae823"},
        {"maeri mixed MAERI 64x16 OS tile 3x1x2x2x2x1x1x2",
         "570 14400 0 5264 2a5d02234684f938 c4fae823"},
        {"maeri mixed MAERI 64x16 WS mapper 3x3x4x1x1x1x1x1",
         "604 14400 0 8176 27b2defb279a21c6 c4fae823"},
        {"maeri mixed MAERI 64x16 WS tile 2x2x2x1x4x2x1x1",
         "284 14400 0 2768 cbe00858ee3410dd c4fae823"},
        {"maeri mixed MAERI 64x16 WS tile 2x2x3x2x2x1x1x1",
         "336 14400 0 4432 19e0582e4d64f43f c4fae823"},
        {"maeri mixed MAERI 64x16 WS tile 3x3x1x1x1x1x5x1",
         "616 14400 0 8176 4696e86a1496d228 c4fae823"},
        {"maeri mixed MAERI-DIST 64x16 OS mapper 3x3x4x1x1x1x1x1",
         "604 14400 0 8176 27b2defb279a21c6 c4fae823"},
        {"maeri mixed MAERI-DIST 64x16 OS tile 1x2x2x1x1x1x5x2",
         "1190 14400 0 17072 fbe9ac5402b8b269 c4fae823"},
        {"maeri mixed MAERI-DIST 64x16 OS tile 1x3x3x1x1x1x2x2",
         "1272 14400 0 12240 939c83f5eca4fd54 c4fae823"},
        {"maeri mixed MAERI-DIST 64x16 OS tile 2x2x2x1x1x1x1x5",
         "1303 14400 0 14704 ad0a3c76f92bb44f c4fae823"},
        {"maeri padded MAERI 128x1 IS mapper 3x3x4x1x3x1x1x1",
         "1164 23328 0 1524 a4bd2ae228bf477f 2a69f724"},
        {"maeri padded MAERI 128x1 IS tile 1x3x4x1x3x1x2x1",
         "1806 23328 0 1820 a5ec769048cfc030 2a69f724"},
        {"maeri padded MAERI 128x1 IS tile 2x1x1x1x3x1x4x4",
         "2702 23328 0 2830 739a6ed5134a4c55 2a69f724"},
        {"maeri padded MAERI 128x1 IS tile 3x3x3x1x1x1x4x1",
         "1661 23328 0 1524 09d77f8eef578ce4 2a69f724"},
        {"maeri padded MAERI 128x1 OS mapper 3x3x4x1x3x1x1x1",
         "2025 23328 0 2700 8d12b2fc388e69e6 2a69f724"},
        {"maeri padded MAERI 128x1 OS tile 3x1x3x1x2x1x1x2",
         "4513 23328 0 4632 f86630a2c746c612 2a69f724"},
        {"maeri padded MAERI 128x1 OS tile 3x1x4x1x1x1x6x1",
         "5467 23328 0 5640 88b68a3f37513766 2a69f724"},
        {"maeri padded MAERI 128x1 OS tile 3x3x3x1x1x1x1x4",
         "12251 23328 0 12360 f39e66b2ebae8321 2a69f724"},
        {"maeri padded MAERI 128x1 WS mapper 3x3x4x1x3x1x1x1",
         "2025 23328 0 2700 8d12b2fc388e69e6 2a69f724"},
        {"maeri padded MAERI 128x1 WS tile 1x1x2x1x6x1x4x2",
         "14172 23328 0 25600 1166e0206517c8b9 2a69f724"},
        {"maeri padded MAERI 128x1 WS tile 1x2x1x1x3x1x5x1",
         "15055 23328 0 26496 d5e05c725744f0a2 2a69f724"},
        {"maeri padded MAERI 128x1 WS tile 3x1x4x1x8x1x1x1",
         "2439 23328 0 4116 010736f51acda38a 2a69f724"},
        {"maeri padded MAERI 64x16 IS mapper 3x3x2x1x3x1x1x1",
         "541 23328 0 1524 f2df381d52931db5 2a69f724"},
        {"maeri padded MAERI 64x16 IS tile 2x2x2x1x1x1x2x3",
         "696 23328 0 2236 c113bf5a5bd5fce7 2a69f724"},
        {"maeri padded MAERI 64x16 IS tile 3x1x3x1x2x1x3x1",
         "485 23328 0 1524 ca8b01171bf62083 2a69f724"},
        {"maeri padded MAERI 64x16 IS tile 3x2x1x1x1x1x6x1",
         "919 23328 0 1524 17ea4e277b5a4b47 2a69f724"},
        {"maeri padded MAERI 64x16 OS mapper 3x3x2x1x3x1x1x1",
         "541 23328 0 2700 79fc2c5bbafe305b 2a69f724"},
        {"maeri padded MAERI 64x16 OS tile 1x3x3x1x1x1x1x4",
         "1304 23328 0 12360 4cfc5e5fbe9cba85 2a69f724"},
        {"maeri padded MAERI 64x16 OS tile 3x1x2x1x2x1x1x4",
         "835 23328 0 6648 aa6389c00ec3428f 2a69f724"},
        {"maeri padded MAERI 64x16 OS tile 3x1x2x1x4x1x2x1",
         "590 23328 0 2480 9e05a2a3e9617e55 2a69f724"},
        {"maeri padded MAERI 64x16 WS mapper 3x3x2x1x3x1x1x1",
         "541 23328 0 2700 79fc2c5bbafe305b 2a69f724"},
        {"maeri padded MAERI 64x16 WS tile 2x2x2x1x4x1x1x2",
         "752 23328 0 8234 ae477ba125f78239 2a69f724"},
        {"maeri padded MAERI 64x16 WS tile 2x2x3x1x4x1x1x1",
         "748 23328 0 4704 ceb11357bf92e1f8 2a69f724"},
        {"maeri padded MAERI 64x16 WS tile 3x3x1x1x1x1x1x4",
         "1304 23328 0 12360 4cfc5e5fbe9cba85 2a69f724"},
        {"maeri padded MAERI-DIST 64x16 OS mapper 3x3x2x1x3x1x1x1",
         "687 23328 0 3996 8797ec79e0bb8eb7 2a69f724"},
        {"maeri padded MAERI-DIST 64x16 OS tile 1x2x2x1x5x1x3x1",
         "863 23328 0 12788 eb46d28bf2064f0d 2a69f724"},
        {"maeri padded MAERI-DIST 64x16 OS tile 1x3x3x1x6x1x1x1",
         "1037 23328 0 6000 714c4b3ea797eb03 2a69f724"},
        {"maeri padded MAERI-DIST 64x16 OS tile 2x2x2x1x1x1x1x7",
         "1663 23328 0 18552 c5e8ed82f61aae60 2a69f724"},
        {"maeri stride3 MAERI 128x1 IS mapper 5x5x4x1x1x1x1x1",
         "1846 12800 0 2048 b534bdaaec69cbf0 2bc793d2"},
        {"maeri stride3 MAERI 128x1 IS tile 1x4x1x1x5x1x4x1",
         "1925 12800 0 2408 760975670743fc97 2bc793d2"},
        {"maeri stride3 MAERI 128x1 IS tile 3x1x1x1x3x1x3x4",
         "2235 12800 0 2528 da08bb50b4252558 2bc793d2"},
        {"maeri stride3 MAERI 128x1 IS tile 5x1x4x1x2x1x2x1",
         "1864 12800 0 2048 0673fdc4e283785a 2bc793d2"},
        {"maeri stride3 MAERI 128x1 OS mapper 5x5x4x1x1x1x1x1",
         "9070 12800 0 9888 8963b579338be25e 2bc793d2"},
        {"maeri stride3 MAERI 128x1 OS tile 3x3x3x1x1x1x1x4",
         "12963 12800 0 13728 5d60db82bf29b1b4 2bc793d2"},
        {"maeri stride3 MAERI 128x1 OS tile 3x5x2x1x2x1x2x1",
         "4676 12800 0 5408 6e5ccea5fb1ccf86 2bc793d2"},
        {"maeri stride3 MAERI 128x1 OS tile 4x3x1x1x4x1x1x2",
         "3143 12800 0 3888 829fb27cec5453cb 2bc793d2"},
        {"maeri stride3 MAERI 128x1 WS mapper 5x5x4x1x1x1x1x1",
         "9070 12800 0 9888 8963b579338be25e 2bc793d2"},
        {"maeri stride3 MAERI 128x1 WS tile 1x3x4x1x8x1x1x1",
         "1472 12800 0 2168 da6e97d8eeedee59 2bc793d2"},
        {"maeri stride3 MAERI 128x1 WS tile 3x2x1x1x3x1x1x1",
         "4196 12800 0 4972 f3f0d730f26c07e8 2bc793d2"},
        {"maeri stride3 MAERI 128x1 WS tile 5x2x1x1x6x1x2x1",
         "2436 12800 0 3168 d80a56c7fd25787b 2bc793d2"},
        {"maeri stride3 MAERI 64x16 IS mapper 5x5x2x1x1x1x1x1",
         "325 12800 0 2048 a527153bca36857d 2bc793d2"},
        {"maeri stride3 MAERI 64x16 IS tile 1x2x3x1x1x1x3x1",
         "1128 12800 0 2276 71fa0ff20b7c69ab 2bc793d2"},
        {"maeri stride3 MAERI 64x16 IS tile 4x1x2x1x1x1x2x3",
         "481 12800 0 2428 a912259c6d3cbd4d 2bc793d2"},
        {"maeri stride3 MAERI 64x16 IS tile 5x5x1x1x1x1x2x1",
         "322 12800 0 2048 1916005708032835 2bc793d2"},
        {"maeri stride3 MAERI 64x16 OS mapper 5x5x2x1x1x1x1x1",
         "661 12800 0 9888 d8b892ae3e5adf09 2bc793d2"},
        {"maeri stride3 MAERI 64x16 OS tile 4x4x1x1x4x1x1x1",
         "243 12800 0 3336 2fa753e68502597f 2bc793d2"},
        {"maeri stride3 MAERI 64x16 OS tile 5x4x1x1x1x1x1x2",
         "818 12800 0 12448 3e26f752dacd9629 2bc793d2"},
        {"maeri stride3 MAERI 64x16 OS tile 5x4x1x1x3x1x1x1",
         "320 12800 0 4288 e36e967af117d708 2bc793d2"},
        {"maeri stride3 MAERI 64x16 WS mapper 5x5x2x1x1x1x1x1",
         "661 12800 0 9888 d8b892ae3e5adf09 2bc793d2"},
        {"maeri stride3 MAERI 64x16 WS tile 3x4x1x1x3x1x1x1",
         "450 12800 0 4648 2803b4e324f5d3eb 2bc793d2"},
        {"maeri stride3 MAERI 64x16 WS tile 5x1x3x1x4x1x1x1",
         "243 12800 0 3168 e6f2448c5d765085 2bc793d2"},
        {"maeri stride3 MAERI 64x16 WS tile 5x2x1x1x2x1x1x2",
         "497 12800 0 6688 3b9617ad452aae1b 2bc793d2"},
        {"maeri stride3 MAERI-DIST 64x16 OS mapper 5x5x2x1x1x1x1x1",
         "781 12800 0 10144 3a895fcb35b6df0b 2bc793d2"},
        {"maeri stride3 MAERI-DIST 64x16 OS tile 3x1x2x1x5x1x1x2",
         "536 12800 0 8056 1444595d5a88c204 2bc793d2"},
        {"maeri stride3 MAERI-DIST 64x16 OS tile 4x2x1x1x2x1x3x1",
         "999 12800 0 9200 cabfce59322f1fce 2bc793d2"},
        {"maeri stride3 MAERI-DIST 64x16 OS tile 4x4x1x1x1x1x1x3",
         "1224 12800 0 14208 c3552be289bed19e 2bc793d2"},
        {"snapea B-L 128x4 sp0.0 exit",
         "658464 1572864 0 2599776 9d4276b4e23d393b 1b2fd624"},
        {"snapea B-L 128x4 sp0.0 full",
         "658464 1572864 0 2599776 9d4276b4e23d393b 1b2fd624"},
        {"snapea B-L 128x4 sp0.5 exit",
         "338736 784368 0 1321200 e4f18ab851213a1c 95f6f9a6"},
        {"snapea B-L 128x4 sp0.5 full",
         "338736 784368 0 1321200 e4f18ab851213a1c 95f6f9a6"},
        {"snapea B-L 128x4 sp0.9 exit",
         "84240 169824 0 312096 cc13d201cd5b020f 64bc63ab"},
        {"snapea B-L 128x4 sp0.9 full",
         "84240 169824 0 312096 cc13d201cd5b020f 64bc63ab"},
        {"snapea B-L 64x64 sp0.0 exit",
         "58368 1572864 0 2856768 bb2efec042d8cb34 1b2fd624"},
        {"snapea B-L 64x64 sp0.0 full",
         "58368 1572864 0 2856768 bb2efec042d8cb34 1b2fd624"},
        {"snapea B-L 64x64 sp0.5 exit",
         "40800 784368 0 1440480 c3f5b987a8e16679 95f6f9a6"},
        {"snapea B-L 64x64 sp0.5 full",
         "40800 784368 0 1440480 c3f5b987a8e16679 95f6f9a6"},
        {"snapea B-L 64x64 sp0.9 exit",
         "20640 169824 0 331296 b2f9801c9f603bac 64bc63ab"},
        {"snapea B-L 64x64 sp0.9 full",
         "20640 169824 0 331296 b2f9801c9f603bac 64bc63ab"},
        {"snapea M-FC 128x4 sp0.0 exit",
         "43467 213692 12100 124311 775e9a30e7222f93 12e38e4a"},
        {"snapea M-FC 128x4 sp0.0 full",
         "47016 225792 0 135591 6f8dd357cc4449cf 1d80ecc7"},
        {"snapea M-FC 128x4 sp0.5 exit",
         "35326 112896 0 96402 4c259af435f14189 ab1598b7"},
        {"snapea M-FC 128x4 sp0.5 full",
         "35326 112896 0 96402 4c259af435f14189 ab1598b7"},
        {"snapea M-FC 128x4 sp0.9 exit",
         "22632 22344 0 45914 329c70ba4e379415 afb503ab"},
        {"snapea M-FC 128x4 sp0.9 full",
         "22632 22344 0 45914 329c70ba4e379415 afb503ab"},
        {"snapea M-FC 64x64 sp0.0 exit",
         "34075 213692 12100 148992 8fd91d9b61ee964f 12e38e4a"},
        {"snapea M-FC 64x64 sp0.0 full",
         "35668 225792 0 160770 1840ba12a9eb4fb0 1d80ecc7"},
        {"snapea M-FC 64x64 sp0.5 exit",
         "28670 112896 0 108176 d3d64a2f4fa5fcfc ab1598b7"},
        {"snapea M-FC 64x64 sp0.5 full",
         "28670 112896 0 108176 d3d64a2f4fa5fcfc ab1598b7"},
        {"snapea M-FC 64x64 sp0.9 exit",
         "25920 22344 0 47661 75d2770c550b6455 afb503ab"},
        {"snapea M-FC 64x64 sp0.9 full",
         "25920 22344 0 47661 75d2770c550b6455 afb503ab"},
        {"snapea M-L 128x4 sp0.0 exit",
         "24469 51200 0 97084 b2ed9d9fecd09578 5a3a07f6"},
        {"snapea M-L 128x4 sp0.0 full",
         "24469 51200 0 97084 b2ed9d9fecd09578 5a3a07f6"},
        {"snapea M-L 128x4 sp0.5 exit",
         "12581 25955 0 49661 87417aed9c5042f9 4ba10a06"},
        {"snapea M-L 128x4 sp0.5 full",
         "12581 25955 0 49661 87417aed9c5042f9 4ba10a06"},
        {"snapea M-L 128x4 sp0.9 exit",
         "2986 5937 0 11592 395e877e882ac5b7 8f693d7b"},
        {"snapea M-L 128x4 sp0.9 full",
         "2986 5937 0 11592 395e877e882ac5b7 8f693d7b"},
        {"snapea M-L 64x64 sp0.0 exit",
         "1742 51200 0 99807 f5a1783d2cb9b17e 5a3a07f6"},
        {"snapea M-L 64x64 sp0.0 full",
         "1742 51200 0 99807 f5a1783d2cb9b17e 5a3a07f6"},
        {"snapea M-L 64x64 sp0.5 exit",
         "1140 25955 0 50829 55d68fa172ab38c0 4ba10a06"},
        {"snapea M-L 64x64 sp0.5 full",
         "1140 25955 0 50829 55d68fa172ab38c0 4ba10a06"},
        {"snapea M-L 64x64 sp0.9 exit",
         "476 5937 0 11781 7507b7eed7afa076 8f693d7b"},
        {"snapea M-L 64x64 sp0.9 full",
         "476 5937 0 11781 7507b7eed7afa076 8f693d7b"},
        {"snapea R-C 128x4 sp0.0 exit",
         "3047485 6617488 607856 12087347 9c66f77d7be05fd5 5eac13ac"},
        {"snapea R-C 128x4 sp0.0 full",
         "3316276 7225344 0 13161244 622405fbc8f9fa08 3b907c01"},
        {"snapea R-C 128x4 sp0.5 exit",
         "1655046 3569772 156188 6544483 a53b643b53b80a4d 9a7df9a5"},
        {"snapea R-C 128x4 sp0.5 full",
         "1727817 3725960 0 6828124 6c79a774c437d672 683b3f1e"},
        {"snapea R-C 128x4 sp0.9 exit",
         "415742 868219 31029 1619371 08938117d504a7a4 06a008a5"},
        {"snapea R-C 128x4 sp0.9 full",
         "430390 899248 0 1675786 c6a4a4e3a582af96 16e2dd82"},
        {"snapea R-C 64x64 sp0.0 exit",
         "235160 6617488 607856 12373933 23a1a0a780fc4bd2 5eac13ac"},
        {"snapea R-C 64x64 sp0.0 full",
         "235200 7225344 0 13490805 ae453bcbeac23afd 3b907c01"},
        {"snapea R-C 64x64 sp0.5 exit",
         "150912 3569772 156188 6686979 6b8512c9317fe75c 9a7df9a5"},
        {"snapea R-C 64x64 sp0.5 full",
         "154054 3725960 0 6976905 fd14deac681e67e2 683b3f1e"},
        {"snapea R-C 64x64 sp0.9 exit",
         "62925 868219 31029 1647164 dfd349a42712b7b7 06a008a5"},
        {"snapea R-C 64x64 sp0.9 full",
         "63868 899248 0 1704690 1c79684fd0e9a36b 16e2dd82"},
        {"snapea R-L 128x4 sp0.0 exit",
         "50109 102400 0 199123 bb6fb95e118c67d6 ebc83594"},
        {"snapea R-L 128x4 sp0.0 full",
         "50109 102400 0 199123 bb6fb95e118c67d6 ebc83594"},
        {"snapea R-L 128x4 sp0.5 exit",
         "25792 52388 0 102192 1308370b77b654de 4d6e9d4a"},
        {"snapea R-L 128x4 sp0.5 full",
         "25792 52388 0 102192 1308370b77b654de 4d6e9d4a"},
        {"snapea R-L 128x4 sp0.9 exit",
         "6138 12208 0 24087 1978338e6966f1ff 28d8db9d"},
        {"snapea R-L 128x4 sp0.9 full",
         "6138 12208 0 24087 1978338e6966f1ff 28d8db9d"},
        {"snapea R-L 64x64 sp0.0 exit",
         "3406 102400 0 202178 92d4ecae1fd13130 ebc83594"},
        {"snapea R-L 64x64 sp0.0 full",
         "3406 102400 0 202178 92d4ecae1fd13130 ebc83594"},
        {"snapea R-L 64x64 sp0.5 exit",
         "2138 52388 0 103581 602ba265d28582b4 4d6e9d4a"},
        {"snapea R-L 64x64 sp0.5 full",
         "2138 52388 0 103581 602ba265d28582b4 4d6e9d4a"},
        {"snapea R-L 64x64 sp0.9 exit",
         "802 12208 0 24293 1bcd808ddabf0847 28d8db9d"},
        {"snapea R-L 64x64 sp0.9 full",
         "802 12208 0 24293 1bcd808ddabf0847 28d8db9d"},
        {"snapea S-EC 128x4 sp0.0 exit",
         "583799 1414368 143136 2302614 bcc0251ca702affe db9c643e"},
        {"snapea S-EC 128x4 sp0.0 full",
         "634910 1557504 0 2507558 31eee961d35a5896 daba1f9a"},
        {"snapea S-EC 128x4 sp0.5 exit",
         "304043 717354 37738 1184913 bff12eb3c32d5396 25547b10"},
        {"snapea S-EC 128x4 sp0.5 full",
         "319142 755092 0 1243549 d16ab12610aae379 7795eddf"},
        {"snapea S-EC 128x4 sp0.9 exit",
         "70625 144819 8126 259539 a7163b11953104a5 ec07ba4c"},
        {"snapea S-EC 128x4 sp0.9 full",
         "74220 152945 0 273591 a783fac563021a75 da6d3978"},
        {"snapea S-EC 64x64 sp0.0 exit",
         "56782 1414368 143136 2486175 f50dbc75e34de2e6 db9c643e"},
        {"snapea S-EC 64x64 sp0.0 full",
         "56784 1557504 0 2718474 6e42dea25f1fa209 daba1f9a"},
        {"snapea S-EC 64x64 sp0.5 exit",
         "38448 717354 37738 1275605 c06794a5337426bf 25547b10"},
        {"snapea S-EC 64x64 sp0.5 full",
         "39519 755092 0 1339770 20d607c526370f74 7795eddf"},
        {"snapea S-EC 64x64 sp0.9 exit",
         "19346 144819 8126 273088 75063fb8deb8c002 ec07ba4c"},
        {"snapea S-EC 64x64 sp0.9 full",
         "19892 152945 0 287643 bf7d9ee0ae3a1c79 da6d3978"},
        {"snapea S-SC 128x4 sp0.0 exit",
         "57107 150544 22512 223416 4054468ee71dc564 2b5a7359"},
        {"snapea S-SC 128x4 sp0.0 full",
         "63882 173056 0 250289 ad62e25ce2863cf2 bd2dec5e"},
        {"snapea S-SC 128x4 sp0.5 exit",
         "28611 71290 6112 109443 4286e3409a52a7ec 09db117d"},
        {"snapea S-SC 128x4 sp0.5 full",
         "30758 77402 0 118131 59f64a315ebf6951 a24fb5da"},
        {"snapea S-SC 128x4 sp0.9 exit",
         "6111 9975 334 20334 9e139dee8c43895a 79340798"},
        {"snapea S-SC 128x4 sp0.9 full",
         "6253 10309 0 20956 8cfe9b033c0ccfc7 8ee3f7a5"},
        {"snapea S-SC 64x64 sp0.0 exit",
         "7436 150544 22512 256211 9a06b5a14235e88d 2b5a7359"},
        {"snapea S-SC 64x64 sp0.0 full",
         "7436 173056 0 288652 27c3da01429c2e3b bd2dec5e"},
        {"snapea S-SC 64x64 sp0.5 exit",
         "5124 71290 6112 123576 bdd950f35c14144f 09db117d"},
        {"snapea S-SC 64x64 sp0.5 full",
         "5408 77402 0 134186 5695e81a29d6dbcb a24fb5da"},
        {"snapea S-SC 64x64 sp0.9 exit",
         "3310 9975 334 21686 5c503f1ed1e8fe48 79340798"},
        {"snapea S-SC 64x64 sp0.9 full",
         "3380 10309 0 22308 e21b3e9a80f9fd9a 8ee3f7a5"},
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

// --- SNAPEA ------------------------------------------------------------

/** The Figure 1 layers SNAPEA runs: the convolutions and linears. */
std::vector<NamedLayer>
snapeaLayers()
{
    std::vector<NamedLayer> out;
    for (const NamedLayer &l : fig1Layers())
        if (l.spec.kind != LayerKind::Gemm)
            out.push_back(l);
    return out;
}

class SnapeaGolden : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SnapeaGolden, CountsAndOutputsArePinned)
{
    NamedLayer layer;
    for (const NamedLayer &l : snapeaLayers())
        if (l.tag == GetParam())
            layer = l;
    ASSERT_FALSE(layer.tag.empty());
    for (const auto &[ms, bw] :
         std::vector<std::pair<index_t, index_t>>{{64, 64}, {128, 4}}) {
        for (const double sparsity : {0.0, 0.5, 0.9}) {
            const LayerData data = makeLayerData(layer.spec, sparsity, 7);
            for (const bool early_exit : {false, true}) {
                Stonne st(HardwareConfig::snapeaLike(ms, bw));
                st.setSnapeaEarlyExit(early_exit);
                const SimulationResult r = runLayer(st, layer.spec, data);
                char key[96];
                std::snprintf(key, sizeof key, "snapea %s %lldx%lld sp%.1f %s",
                              layer.tag.c_str(), static_cast<long long>(ms),
                              static_cast<long long>(bw), sparsity,
                              early_exit ? "exit" : "full");
                expectGolden(key, resultLine(st, r));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Fig1, SnapeaGolden, ::testing::ValuesIn([] {
        std::vector<std::string> tags;
        for (const NamedLayer &l : snapeaLayers())
            tags.push_back(l.tag);
        return tags;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// --- MAERI -------------------------------------------------------------

Conv2dShape
conv(index_t r, index_t c, index_t k, index_t xy, index_t g, index_t n,
     index_t stride, index_t pad)
{
    Conv2dShape s;
    s.R = r;
    s.S = r;
    s.C = c;
    s.K = k;
    s.G = g;
    s.N = n;
    s.X = xy;
    s.Y = xy;
    s.stride = stride;
    s.padding = pad;
    return s;
}

/** The Figure 1 convolutions plus shapes that stress the edges of the
 *  operand counts: depthwise, grouped, batched, strided and padded. */
std::vector<NamedLayer>
maeriLayers()
{
    std::vector<NamedLayer> out;
    for (const NamedLayer &l : fig1Layers())
        if (l.spec.kind == LayerKind::Convolution)
            out.push_back(l);
    const auto add = [&out](const char *tag, const Conv2dShape &s) {
        out.push_back({tag, LayerSpec::convolution(tag, s)});
    };
    add("depthwise", conv(3, 8, 8, 9, 8, 1, 1, 1));
    add("grouped", conv(3, 16, 16, 8, 4, 1, 1, 1));
    add("batch2", conv(3, 8, 8, 7, 1, 2, 1, 1));
    add("stride3", conv(5, 4, 8, 16, 1, 1, 3, 0));
    add("padded", conv(3, 4, 8, 7, 1, 1, 1, 2));
    add("mixed", conv(3, 8, 8, 9, 2, 2, 2, 1));
    return out;
}

/**
 * A seeded random valid tile: a random cluster, then the lane axes in a
 * random order, each taking a random share of the switches left, so
 * that T_G, T_N, T_X' and T_Y' all exceed 1 where the layer allows.
 */
Tile
randomTile(const Conv2dShape &s, index_t ms, std::mt19937_64 &gen)
{
    const auto pick = [&gen](index_t hi) {
        return 1 + static_cast<index_t>(gen() %
                                        static_cast<std::uint64_t>(hi));
    };
    Tile t;
    t.t_r = pick(s.R);
    t.t_s = pick(s.S);
    t.t_c = pick(std::min(s.cPerGroup(), std::max<index_t>(
                                             1, ms / 4 / (t.t_r * t.t_s))));
    index_t budget = ms / t.vnSize();
    index_t *axes[5] = {&t.t_g, &t.t_k, &t.t_n, &t.t_x, &t.t_y};
    const index_t limits[5] = {s.G, s.kPerGroup(), s.N, s.outX(), s.outY()};
    int order[5] = {0, 1, 2, 3, 4};
    for (int i = 4; i > 0; --i)
        std::swap(order[i], order[gen() % static_cast<std::uint64_t>(i + 1)]);
    for (const int a : order) {
        const index_t v = pick(std::max<index_t>(
            1, std::min({limits[a], budget, index_t{8}})));
        *axes[a] = v;
        budget /= v;
    }
    return t;
}

/** MAERI at bandwidth 1 and 16 in every dataflow, and the plain ART
 *  whose folded psums spill through the GB. */
std::vector<HardwareConfig>
maeriConfigs()
{
    std::vector<HardwareConfig> out;
    for (const auto &[ms, bw] :
         std::vector<std::pair<index_t, index_t>>{{128, 1}, {64, 16}}) {
        for (const Dataflow df :
             {Dataflow::OutputStationary, Dataflow::WeightStationary,
              Dataflow::InputStationary}) {
            HardwareConfig c = HardwareConfig::maeriLike(ms, bw);
            c.dataflow = df;
            out.push_back(c);
        }
    }
    out.push_back(HardwareConfig::flexibleArtDist(64, 16));
    return out;
}

std::string
configTag(const HardwareConfig &c)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s %lldx%lld %s", c.name.c_str(),
                  static_cast<long long>(c.ms_size),
                  static_cast<long long>(c.dn_bandwidth),
                  dataflowName(c.dataflow));
    return buf;
}

class MaeriGolden : public ::testing::TestWithParam<std::string>
{
};

TEST_P(MaeriGolden, CountsAndOutputsArePinned)
{
    NamedLayer layer;
    for (const NamedLayer &l : maeriLayers())
        if (l.tag == GetParam())
            layer = l;
    ASSERT_FALSE(layer.tag.empty());
    const LayerData data = makeLayerData(layer.spec, 0.0, 11);
    std::mt19937_64 gen(1);
    for (const HardwareConfig &cfg : maeriConfigs()) {
        std::vector<std::optional<Tile>> tiles = {std::nullopt};
        for (int i = 0; i < 3; ++i)
            tiles.push_back(randomTile(layer.spec.conv, cfg.ms_size, gen));
        for (const std::optional<Tile> &tile : tiles) {
            Stonne st(cfg);
            const SimulationResult r = runLayer(st, layer.spec, data, tile);
            const Tile shown = tile ? *tile
                : Mapper(cfg.ms_size).generateTile(layer.spec);
            const std::string key = "maeri " + layer.tag + " " +
                configTag(cfg) + " " + (tile ? "tile " : "mapper ") +
                shown.canonical();
            expectGolden(key, resultLine(st, r));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MaeriGolden, ::testing::ValuesIn([] {
        std::vector<std::string> tags;
        for (const NamedLayer &l : maeriLayers())
            tags.push_back(l.tag);
        return tags;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace stonne
