/**
 * @file
 * The bulk-fill kernels behind Rng::fillNormal and Rng::fillUniform
 * (internal: the library, its tests and bench_sim_speed include it).
 *
 * Rng picks one kernel per process: the AVX-512 one when avx512() holds,
 * the portable one otherwise. Tests call both directly, so the kernel a
 * CPU does not dispatch to is still held to the per-draw values. Every
 * kernel is bit-identical to the per-draw Rng::normal/Rng::uniform and
 * leaves the engine in the state those draws leave it in.
 */

#ifndef STONNE_COMMON_RNG_KERNELS_HPP
#define STONNE_COMMON_RNG_KERNELS_HPP

#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"

// Whether this build has the AVX-512 kernels (x86-64 GCC or Clang, which
// compile them per function with target attributes; no build flag).
#if defined(__x86_64__) && defined(__GNUC__)
#define STONNE_RNG_AVX512 1
#else
#define STONNE_RNG_AVX512 0
#endif

namespace stonne::rng_kernels {

/** Whether this CPU runs the AVX-512 kernels (AVX-512F, DQ and VL);
 *  decided on the first call. */
bool avx512();

/** The per-draw code in a loop: a chunk's rejection loop first, then
 *  its log/sqrt math. */
void fillNormalPortable(Mt19937_64 &g, float *out, std::size_t n,
                        float mean, float stddev);
void fillUniformPortable(Mt19937_64 &g, float *out, std::size_t n,
                         float lo, float hi);

#if STONNE_RNG_AVX512
// The AVX-512 kernels; call them only when avx512() holds.

/** The mask of the first min(count, 16) lanes of a 16-lane register
 *  (an AVX-512 __mmask16), for the kernels' tails. */
constexpr std::uint16_t
lanes16(std::size_t count)
{
    return count >= 16 ? std::uint16_t{0xffff}
                       : static_cast<std::uint16_t>((1u << count) - 1);
}

/** Mt19937_64's twist and tempering of one block (a refill kernel). */
void twistAvx512(std::uint64_t *x, std::uint64_t *out);

/**
 * polarTrial on the word pairs (w[2i], w[2i+1]), i < pairs: the y and r2
 * of each accepted pair, in order, into ys and r2s; returns how many.
 * ys and r2s need room for pairs rounded up to a multiple of 8 (whole
 * 8-lane stores).
 */
std::size_t polarCandidatesAvx512(const std::uint64_t *w, std::size_t pairs,
                                  float *ys, float *r2s);

/**
 * The polar candidates (y, r2) of n normal() draws, in order, into ys
 * and r2s, leaving g where those draws leave it. ys and r2s need room
 * for n + 7 floats (whole 8-lane stores).
 */
void polarDrawsAvx512(Mt19937_64 &g, float *ys, float *r2s, std::size_t n);

void fillNormalAvx512(Mt19937_64 &g, float *out, std::size_t n, float mean,
                      float stddev);

/** fillNormalPrunableAvx512's approximate multiplier is within this
 *  fraction of polarValue's float multiplier sqrt(-2 logf(r2) / r2) for
 *  r2 in [kApproxLeast, 1], and NaN (no bound) below. */
constexpr float kApproxBound = 0x1p-10f;
constexpr float kApproxLeast = 0x1p-100f;
/** The band around the floor inside which fillNormalPrunableAvx512
 *  tells no magnitude apart from it. */
constexpr float kPruneBand = 0x1p-8f;

/** The approximate multiplier of each r2s[i], i < n, into out (NaN
 *  below kApproxLeast). */
void approxMultipliersAvx512(const float *r2s, std::size_t n, float *out);

/** What fillNormalPrunableAvx512 did with a span. */
struct PrunableFill {
    std::size_t exact; //!< values computed exactly (that called logf)
    float floor;       //!< the floor it kept; 0 when it kept none
};

/**
 * n normal(0, stddev) draws into out, leaving g where fillNormalAvx512
 * leaves it, for a span that magnitude pruning will leave with at least
 * `zeros` zeros. Values pruning is sure to zero may hold an
 * approximation instead: any pruneSpan of the span to a zero count of
 * `zeros` or more gives the bits it gives on fillNormalAvx512's values.
 *
 * Each value's magnitude a is first approximated (approxMultiplier,
 * then |y| times it times stddev; within 2^-9 of the exact magnitude w
 * plus 2^-147 (1 + stddev)). With L = floor and the band d =
 * kPruneBand, if at most `zeros` of the a lie under L (1 + d), or have
 * no bound, then fewer than `zeros` + 1 of the w lie under L, so
 * every threshold such pruning selects is at least L; the a under
 * L (1 - d) then have w under L, and only those take their signed
 * approximation, also under L: pruning zeroes them either way, and the
 * ranks from L up see the same values. A floor that fails the count is
 * lowered once by 1/8, then dropped; a floor of 0 computes every value.
 * The others, and only those, call logf. Its staging, four buffers of
 * n floats, is kept per thread and reused across calls.
 */
PrunableFill fillNormalPrunableAvx512(Mt19937_64 &g, float *out,
                                      std::size_t n, float stddev,
                                      std::size_t zeros, float floor);

void fillUniformAvx512(Mt19937_64 &g, float *out, std::size_t n, float lo,
                       float hi);
#endif

} // namespace stonne::rng_kernels

#endif // STONNE_COMMON_RNG_KERNELS_HPP
