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

void fillNormalAvx512(Mt19937_64 &g, float *out, std::size_t n, float mean,
                      float stddev);
void fillUniformAvx512(Mt19937_64 &g, float *out, std::size_t n, float lo,
                       float hi);
#endif

} // namespace stonne::rng_kernels

#endif // STONNE_COMMON_RNG_KERNELS_HPP
