#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace vhive {

std::uint64_t
hashName(std::string_view name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

Rng::Rng(std::uint64_t seed, std::string_view name)
    : Rng(seed ^ hashName(name))
{
}

std::uint64_t
Rng::next()
{
    // SplitMix64 (Steele et al.); passes BigCrush when used this way.
    std::uint64_t z = mix64(state);
    state += kSplitMixGolden;
    return z;
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    VHIVE_ASSERT(lo <= hi);
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
}

std::int64_t
Rng::geometric(double mean)
{
    VHIVE_ASSERT(mean >= 1.0);
    if (mean <= 1.0)
        return 1;
    // Support {1, 2, ...} with success probability p = 1/mean.
    double p = 1.0 / mean;
    double u = uniform();
    if (u <= 0.0)
        u = 1e-18;
    double v = std::log(u) / std::log(1.0 - p);
    std::int64_t k = 1 + static_cast<std::int64_t>(v);
    return k < 1 ? 1 : k;
}

double
Rng::exponential(double mean)
{
    double u = uniform();
    if (u <= 0.0)
        u = 1e-18;
    return -mean * std::log(u);
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

} // namespace vhive
