/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the workload generators draws from an
 * explicitly seeded Rng so that traces, SimPoints and therefore every
 * reported number are bit-reproducible across runs and platforms
 * (std::mt19937 distributions are not guaranteed identical across
 * standard library implementations, so we implement our own).
 */

#ifndef MICROLIB_SIM_RANDOM_HH
#define MICROLIB_SIM_RANDOM_HH

#include <cmath>
#include <cstdint>

#include "sim/types.hh"

namespace microlib
{

/**
 * xoshiro256** generator (Blackman & Vigna), seeded via splitmix64.
 *
 * Fast, high-quality, and fully specified: identical sequences on any
 * conforming C++ implementation. The draws are defined inline: the
 * trace generator makes several per instruction.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded with splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;

        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        // Lemire-style rejection-free multiply-shift; the tiny modulo
        // bias is irrelevant for workload synthesis.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return nextDouble() < p; }

  private:
    std::uint64_t s[4];

    static std::uint64_t splitmix64(std::uint64_t &x);

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }
};

/**
 * Geometric-flavoured draws with a fixed mean: small values most of
 * the time. Used for dependence distances and burst lengths, whose
 * means are fixed per program or kernel, so the inverse-CDF
 * denominator is computed once here rather than on every draw.
 */
class Geometric
{
  public:
    /** @param mean approximate mean of the draw; <= 1 always yields
     *  1 without consuming a random number. */
    explicit Geometric(double mean);

    /** One draw (>= 1) from @p rng. */
    std::uint64_t
    operator()(Rng &rng) const
    {
        if (_always_one)
            return 1;
        // Inverse CDF of a geometric distribution, support {1, 2, ...}.
        const std::uint64_t v = static_cast<std::uint64_t>(
            std::ceil(std::log1p(-rng.nextDouble()) / _denom));
        return v == 0 ? 1 : v;
    }

  private:
    bool _always_one;
    double _denom; ///< log1p(-1 / mean)
};

} // namespace microlib

#endif // MICROLIB_SIM_RANDOM_HH
