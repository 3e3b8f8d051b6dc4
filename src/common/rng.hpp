/**
 * @file
 * Deterministic random number generation for synthetic weights and inputs.
 *
 * Every experiment in this reproduction is seeded so that test and bench
 * results are exactly reproducible across runs and machines.
 *
 * The model-zoo goldens pin the *values* this file produces, which are
 * those of libstdc++'s std::mt19937_64 driven through
 * std::uniform_real_distribution<float> and
 * std::normal_distribution<float>. The engine and the two float
 * distributions are reimplemented here, value for value, because the
 * library versions are slow on the synthesis path: the library twist
 * branches on the low bit of every state word (a coin flip for the
 * branch predictor), and the uint64 -> float conversion inside
 * generate_canonical branches on the top bit. The replicas below are
 * branch-free and produce the identical bit patterns; the parity tests
 * in tests/test_common.cpp hold them to the library over millions of
 * draws.
 *
 * Bulk fills (Rng::fillNormal, Rng::fillUniform) have two kernels,
 * picked once per process from what the CPU supports (common/rng.cpp):
 *
 *  - the portable one, the per-draw code below run in a loop, and
 *  - on x86-64 CPUs with AVX-512F/DQ/VL, one that works a whole
 *    Mersenne-Twister block at a time. Mt19937_64 lends it the tempered
 *    block not yet drawn (block(), available(), consume()); it twists
 *    and tempers 8 words per instruction, converts words to floats with
 *    vcvtuqq2ps (the one exact vector uint64 -> float conversion; SSE2
 *    and AVX2 have none), and runs the polar method's candidates and
 *    rejection 8 pairs at a time, compacting the accepted ones. It takes
 *    whole (x, y) pairs from the block, so the engine never rewinds
 *    across a twist; a pair straddling two blocks goes through the
 *    scalar polarTrial.
 *
 * Every value these fills return comes from the C library's scalar
 * logf. A vector log would be faster but is not bit-identical to logf
 * (glibc's logf is not correctly rounded on every input, so even a
 * correctly rounded log would differ), and the goldens pin logf's
 * values. sqrt, division and the scaling are IEEE operations, exact in
 * any width. Both kernels give identical values and leave the engine in
 * the identical state; the tests run both (common/rng_kernels.hpp).
 *
 * Weight synthesis that prunes right after the fill
 * (synthesizePrunedWeights, tensor/prune.hpp) skips logf where it can
 * prove pruning zeroes the value: on AVX-512 CPUs it bounds each
 * value's magnitude with a vector approximation and calls logf only for
 * values that may survive (fillNormalPrunableAvx512).
 */

#ifndef STONNE_COMMON_RNG_HPP
#define STONNE_COMMON_RNG_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <random>

namespace stonne {

/**
 * The 64-bit Mersenne Twister with std::mt19937_64's parameters: the
 * same seeding, the same output sequence and the same textual state
 * format as libstdc++ (312 state words, then the position, separated by
 * single spaces), so saved states interchange with the library engine.
 * It is a UniformRandomBitGenerator, so the std distributions accept it.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    // std::mt19937_64's parameters (the library's state_size,
    // shift_size, mask_bits, xor_mask and tempering_* members).
    static constexpr std::size_t kStateSize = 312;
    static constexpr std::size_t kShift = 156;
    static constexpr result_type kUpper = ~result_type{0} << 31;
    static constexpr result_type kLower = ~kUpper;
    static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ull;
    static constexpr unsigned kTemperU = 29;
    static constexpr result_type kTemperD = 0x5555555555555555ull;
    static constexpr unsigned kTemperS = 17;
    static constexpr result_type kTemperB = 0x71d67fffeda60000ull;
    static constexpr unsigned kTemperT = 37;
    static constexpr result_type kTemperC = 0xfff7eee000000000ull;
    static constexpr unsigned kTemperL = 43;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit Mt19937_64(result_type seed_value = 5489u) { seed(seed_value); }

    void
    seed(result_type s)
    {
        x_[0] = s;
        for (std::size_t i = 1; i < kStateSize; ++i) {
            const result_type prev = x_[i - 1];
            x_[i] = kInitMult * (prev ^ (prev >> 62)) + i;
        }
        temperAll(); // not yet drawn from, but never left unset
        p_ = kStateSize;
    }

    result_type
    operator()()
    {
        if (p_ >= kStateSize)
            twist();
        return out_[p_++];
    }

    /**
     * Block access for bulk fillers: the next available() draws are
     * block()[0, available()), in order, and consume(k) marks the first
     * k of them drawn (k <= available()). Once available() is 0,
     * refill(kernel) twists to the next block with a kernel that must
     * compute what the scalar twist does: the new state words in x and
     * their tempered values in out, both kStateSize long.
     */
    const result_type *block() const { return out_ + p_; }

    std::size_t
    available() const
    {
        return p_ < kStateSize ? kStateSize - p_ : 0;
    }

    void consume(std::size_t k) { p_ += k; }

    void
    refill(void (*twist_kernel)(result_type *x, result_type *out))
    {
        twist_kernel(x_, out_);
        p_ = 0;
    }

    bool
    operator==(const Mt19937_64 &o) const
    {
        return p_ == o.p_ && std::equal(x_, x_ + kStateSize, o.x_);
    }

    friend std::ostream &
    operator<<(std::ostream &os, const Mt19937_64 &e)
    {
        const std::ios_base::fmtflags flags = os.flags();
        const char fill = os.fill();
        os.flags(std::ios_base::dec | std::ios_base::fixed |
                 std::ios_base::left);
        os.fill(' ');
        for (std::size_t i = 0; i < kStateSize; ++i)
            os << e.x_[i] << ' ';
        os << e.p_;
        os.flags(flags);
        os.fill(fill);
        return os;
    }

    /** Reads the text operator<< writes; the engine is left unchanged
     *  when the stream fails. */
    friend std::istream &
    operator>>(std::istream &is, Mt19937_64 &e)
    {
        const std::ios_base::fmtflags flags = is.flags();
        is.flags(std::ios_base::dec | std::ios_base::skipws);
        Mt19937_64 t;
        for (std::size_t i = 0; i < kStateSize; ++i)
            is >> t.x_[i];
        is >> t.p_;
        is.flags(flags);
        if (is) {
            t.temperAll();
            e = t;
        }
        return is;
    }

  private:
    static constexpr result_type kInitMult = 6364136223846793005ull;

    static result_type
    temper(result_type z)
    {
        z ^= (z >> kTemperU) & kTemperD;
        z ^= (z << kTemperS) & kTemperB;
        z ^= (z << kTemperT) & kTemperC;
        return z ^ (z >> kTemperL);
    }

    static result_type
    mix(result_type hi_word, result_type lo_word, result_type far)
    {
        const result_type y = (hi_word & kUpper) | (lo_word & kLower);
        // (0 - bit) is all ones or all zeros: the library's
        // `(y & 1) ? a : 0` without the branch.
        return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
    }

    void
    twist()
    {
        std::size_t k = 0;
        for (; k < kStateSize - kShift; ++k)
            x_[k] = mix(x_[k], x_[k + 1], x_[k + kShift]);
        for (; k < kStateSize - 1; ++k)
            x_[k] = mix(x_[k], x_[k + 1], x_[k + kShift - kStateSize]);
        x_[kStateSize - 1] =
            mix(x_[kStateSize - 1], x_[0], x_[kShift - 1]);
        temperAll();
        p_ = 0;
    }

    /** Temper the whole state block at once: a fixed-length loop the
     *  compiler vectorizes, where tempering per call would not be. */
    void
    temperAll()
    {
        for (std::size_t i = 0; i < kStateSize; ++i)
            out_[i] = temper(x_[i]);
    }

    result_type x_[kStateSize];
    result_type out_[kStateSize]; //!< tempered x_, the outputs
    std::size_t p_;
};

/**
 * std::generate_canonical<float, 24> of one engine output v: float(v) /
 * 2^64, clamped below 1.
 *
 * float(v) reproduces the compiler's two-path uint64 -> float sequence
 * without its branch: a value with the top bit set converts as
 * float((v >> 1) | (v & 1)) doubled (the kept low bit is a sticky bit,
 * so the rounding comes out the same), any other value converts
 * directly; shifting by the top bit itself selects the path. Both
 * scalings are exact powers of two.
 */
inline float
canonicalFloat(std::uint64_t v)
{
    static constexpr float kScale[2] = {0x1p-64f, 0x1p-63f};
    constexpr float kBelowOne = 0x1.fffffep-1f;
    const std::uint64_t top = v >> 63;
    const std::uint64_t src = (v >> top) | (v & top);
    const float f =
        static_cast<float>(static_cast<std::int64_t>(src)) * kScale[top];
    return f < kBelowOne ? f : kBelowOne;
}

/**
 * One trial of libstdc++'s Marsaglia polar method on the engine words
 * (wx, wy), expression for expression: candidates float(2u - 1.0) (the
 * subtraction is in double) and r2 = x^2 + y^2 in float. Returns whether
 * the pair is accepted, i.e. neither r2 > 1 nor r2 == 0; y and r2 are set
 * either way.
 */
inline bool
polarTrial(std::uint64_t wx, std::uint64_t wy, float &y, float &r2)
{
    const float x = static_cast<float>(2.0f * canonicalFloat(wx) - 1.0);
    y = static_cast<float>(2.0f * canonicalFloat(wy) - 1.0);
    r2 = x * x + y * y;
    return !(r2 > 1.0 || r2 == 0.0);
}

/** The first accepted polar candidate drawn from g: its y and r2. */
inline void
polarCandidate(Mt19937_64 &g, float &y, float &r2)
{
    for (;;) {
        const std::uint64_t wx = g();
        const std::uint64_t wy = g();
        if (polarTrial(wx, wy, y, r2))
            return;
    }
}

/** The standard normal value of an accepted candidate:
 *  y * sqrt(-2 log(r2) / r2) in float. */
inline float
polarValue(float y, float r2)
{
    const float mult = std::sqrt(-2 * std::log(r2) / r2);
    return y * mult;
}

/** Deterministic random source: Mt19937_64 plus the draws the
 *  simulator uses. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x570AA1u) : gen_(seed) {}

    /** Uniform float in [lo, hi): std::uniform_real_distribution<float>'s
     *  value for the same engine state. */
    float
    uniform(float lo = -1.0f, float hi = 1.0f)
    {
        return canonicalFloat(gen_()) * (hi - lo) + lo;
    }

    /**
     * n consecutive uniform(lo, hi) draws into out, bit-identical to
     * calling uniform() n times; consumes exactly n engine outputs.
     */
    void fillUniform(float *out, std::size_t n, float lo = -1.0f,
                     float hi = 1.0f);

    /**
     * Gaussian float: std::normal_distribution<float>'s value for the
     * same engine state, as if a fresh distribution made every draw.
     *
     * This is libstdc++'s polar method (polarTrial), rejecting while
     * r2 > 1 or r2 == 0, with the multiplier sqrt(-2 log(r2) / r2) in
     * float. The method makes values in pairs; the x-side value is
     * dropped, as a distribution constructed per draw drops it, so every
     * draw consumes its own engine outputs. The model-zoo goldens pin
     * these values: keeping the second value, or any other generator,
     * changes every synthetic weight and, through the pruned layouts,
     * the sparse cycle counts.
     */
    float
    normal(float mean = 0.0f, float stddev = 1.0f)
    {
        float y, r2;
        polarCandidate(gen_, y, r2);
        return polarValue(y, r2) * stddev + mean;
    }

    /**
     * n consecutive normal(mean, stddev) draws into out, bit-identical
     * to calling normal() n times, and leaving the engine where those
     * calls leave it.
     */
    void fillNormal(float *out, std::size_t n, float mean = 0.0f,
                    float stddev = 1.0f);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    integer(std::int64_t lo, std::int64_t hi)
    {
        std::uniform_int_distribution<std::int64_t> d(lo, hi);
        return d(gen_);
    }

    /** Bernoulli draw. */
    bool
    chance(double p)
    {
        std::bernoulli_distribution d(p);
        return d(gen_);
    }

    Mt19937_64 &engine() { return gen_; }
    const Mt19937_64 &engine() const { return gen_; }

  private:
    Mt19937_64 gen_;
};

} // namespace stonne

#endif // STONNE_COMMON_RNG_HPP
