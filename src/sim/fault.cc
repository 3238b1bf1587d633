#include "sim/fault.hh"

#include "util/rng.hh"

namespace vhive::sim {

namespace {

/** Spec-target match: exact, "*", or trailing-'*' prefix. */
bool
targetMatches(const std::string &spec, std::string_view target)
{
    if (spec == "*")
        return true;
    if (!spec.empty() && spec.back() == '*') {
        std::string_view prefix(spec.data(), spec.size() - 1);
        return target.substr(0, prefix.size()) == prefix;
    }
    return spec == target;
}

} // namespace

const FaultWindow *
FaultPlan::windowFor(FaultKind kind, std::string_view target,
                     Time now) const
{
    for (const FaultSpec &spec : _specs) {
        if (spec.kind != kind || !targetMatches(spec.target, target))
            continue;
        for (const FaultWindow &w : spec.windows) {
            if (now >= w.start && now < w.end)
                return &w;
        }
    }
    return nullptr;
}

std::uint64_t
faultRequestKey(std::initializer_list<std::uint64_t> parts)
{
    std::uint64_t h = 0;
    for (std::uint64_t p : parts)
        h = mix64(h ^ p);
    return h;
}

const FaultWindow *
FaultPlan::roll(FaultKind kind, std::string_view target, Time now,
                std::uint64_t request, int attempt) const
{
    const FaultWindow *w = windowFor(kind, target, now);
    if (w == nullptr)
        return nullptr;
    if (w->probability >= 1.0)
        return w;
    std::uint64_t h = faultRequestKey(
        {_seed, static_cast<std::uint64_t>(kind), hashName(target),
         request, static_cast<std::uint64_t>(attempt)});
    // The top 53 bits as a uniform double in [0, 1), as Rng::uniform.
    double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    return u < w->probability ? w : nullptr;
}

} // namespace vhive::sim
