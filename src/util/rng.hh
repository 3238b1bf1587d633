/**
 * @file
 * Deterministic random number generation. Every stochastic component in
 * the simulator owns a named stream derived from a root seed, so entire
 * experiments are bit-reproducible and independent of evaluation order.
 */

#ifndef VHIVE_UTIL_RNG_HH
#define VHIVE_UTIL_RNG_HH

#include <cstdint>
#include <string_view>

namespace vhive {

/**
 * SplitMix64-based generator. Small, fast, and statistically adequate for
 * workload synthesis (we are not doing cryptography).
 */
class Rng
{
  public:
    /** Construct from a raw 64-bit seed. */
    explicit Rng(std::uint64_t seed) : state(seed ? seed : 0x9e3779b9ULL) {}

    /**
     * Construct a named sub-stream: hashes @p name into @p seed so that
     * different components with the same root seed draw independent
     * sequences.
     */
    Rng(std::uint64_t seed, std::string_view name);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [lo, hi] (inclusive). */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /**
     * Geometric number of successes with mean @p mean (>= 1). Used for
     * contiguous-run lengths of guest page accesses (Fig. 3).
     */
    std::int64_t geometric(double mean);

    /** Exponential variate with the given mean. */
    double exponential(double mean);

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p);

    /**
     * Fisher-Yates shuffle of indices [0, n); calls @p swap_fn(i, j) for
     * each swap so callers can shuffle parallel arrays.
     */
    template <typename SwapFn>
    void
    shuffle(std::int64_t n, SwapFn &&swap_fn)
    {
        for (std::int64_t i = n - 1; i > 0; --i) {
            std::int64_t j = uniformInt(0, i);
            swap_fn(i, j);
        }
    }

  private:
    std::uint64_t state;
};

/** Stable 64-bit FNV-1a hash of a string, used to derive stream seeds. */
std::uint64_t hashName(std::string_view name);

/** FNV-1a offset basis: the starting value of an fnvMix digest. */
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/**
 * FNV-1a accumulation of one 64-bit quantity into @p h, low byte
 * first. Digests built from it are stable across runs and platforms.
 */
inline void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

} // namespace vhive

#endif // VHIVE_UTIL_RNG_HH
