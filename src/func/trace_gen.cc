#include "func/trace_gen.hh"

#include <algorithm>
#include <string>

#include "util/logging.hh"
#include "util/page_set.hh"
#include "util/rng.hh"

namespace vhive::func {

namespace {

/** Guest pages below this are reserved (BIOS, early kernel). */
constexpr std::int64_t kStableBase = 512;

/** Mean gap (pages) between placed stable runs. */
constexpr double kGapMean = 2.0;

/** Unique-pool region is this many times sparser than dense packing. */
constexpr double kUniqueSparsity = 3.0;

/** Shape-shifted stable runs use this sparsity (drift modeling). */
constexpr double kShiftSparsity = 4.0;

struct Placement
{
    std::vector<AccessRun> runs;
    std::int64_t cursorEnd = 0;
    std::int64_t pages = 0;
};

/**
 * Place @p total pages as runs with geometric lengths starting at
 * @p base, separated by geometric gaps. Dense, deterministic layout.
 */
Placement
placeSequential(Rng &rng, std::int64_t base, std::int64_t total,
                double contig_mean, Phase phase, bool stable)
{
    Placement out;
    std::int64_t cursor = base;
    std::int64_t placed = 0;
    while (placed < total) {
        std::int64_t len =
            std::min<std::int64_t>(rng.geometric(contig_mean),
                                   total - placed);
        out.runs.push_back({cursor, len, 0, phase, stable});
        placed += len;
        cursor += len + rng.geometric(kGapMean);
    }
    out.cursorEnd = cursor;
    out.pages = placed;
    return out;
}

/**
 * Place @p total pages as runs at random offsets inside
 * [base, base+region), avoiding pages already in @p used. Models
 * per-invocation allocations whose placement varies with the input.
 */
Placement
placeScattered(Rng &rng, std::int64_t base, std::int64_t region,
               std::int64_t total, double contig_mean, bool stable,
               PageSet &used)
{
    Placement out;
    std::int64_t placed = 0;
    std::int64_t guard = 0;
    while (placed < total) {
        std::int64_t len =
            std::min<std::int64_t>(rng.geometric(contig_mean),
                                   total - placed);
        std::int64_t start =
            base + rng.uniformInt(0, std::max<std::int64_t>(
                                         1, region - len));
        if (used.intersects(start, len)) {
            if (++guard > 64 * total)
                panic("unique-page placement cannot find free space");
            continue;
        }
        used.insertRange(start, len);
        out.runs.push_back({start, len, 0, Phase::Processing, stable});
        placed += len;
    }
    out.pages = placed;
    return out;
}

} // namespace

std::vector<std::int64_t>
InvocationTrace::touchedPages() const
{
    std::vector<std::int64_t> pages;
    for (const auto &r : runs)
        for (std::int64_t p = r.page; p < r.page + r.pages; ++p)
            pages.push_back(p);
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    return pages;
}

PageSet
InvocationTrace::touchedSet() const
{
    std::int64_t end = 0;
    for (const auto &r : runs)
        end = std::max(end, r.page + r.pages);
    PageSet set(end);
    for (const auto &r : runs)
        set.insertRange(r.page, r.pages);
    return set;
}

ReuseStats
comparePageSets(const InvocationTrace &a, const InvocationTrace &b)
{
    auto pa = a.touchedPages();
    auto pb = b.touchedPages();
    ReuseStats out;
    size_t i = 0, j = 0;
    while (i < pa.size() && j < pb.size()) {
        if (pa[i] == pb[j]) {
            ++out.samePages;
            ++i;
            ++j;
        } else if (pa[i] < pb[j]) {
            ++out.onlyFirst;
            ++i;
        } else {
            ++out.onlySecond;
            ++j;
        }
    }
    out.onlyFirst += static_cast<std::int64_t>(pa.size() - i);
    out.onlySecond += static_cast<std::int64_t>(pb.size() - j);
    return out;
}

double
averageContiguity(const std::vector<std::int64_t> &sorted_pages)
{
    if (sorted_pages.empty())
        return 0.0;
    std::int64_t streaks = 1;
    for (size_t i = 1; i < sorted_pages.size(); ++i)
        if (sorted_pages[i] != sorted_pages[i - 1] + 1)
            ++streaks;
    return static_cast<double>(sorted_pages.size()) /
           static_cast<double>(streaks);
}

InvocationTrace
TraceGenerator::invocation(const FunctionProfile &profile,
                           std::int64_t invocation_id) const
{
    const std::int64_t total_vm_pages = pagesForBytes(profile.vmMemory);
    const std::int64_t stable_total = profile.stablePages();
    const std::int64_t unique_total = profile.uniquePages();
    const std::int64_t shift_total = static_cast<std::int64_t>(
        static_cast<double>(stable_total) * profile.stableDriftFrac);
    const std::int64_t common_total = stable_total - shift_total;
    const std::int64_t infra_total =
        std::min(profile.infraPages(), common_total);

    // 1. Common stable pool: same for every invocation.
    Rng stable_rng(rootSeed, profile.name + "/stable");
    Placement common =
        placeSequential(stable_rng, kStableBase, common_total,
                        profile.contiguityMean, Phase::Processing,
                        true);

    PageSet used(total_vm_pages);
    for (const auto &r : common.runs)
        used.insertRange(r.page, r.pages);

    // 2. Shape-shifted stable slice: depends on the input's shape.
    std::int64_t shift_base = common.cursorEnd + 64;
    std::int64_t shift_region = static_cast<std::int64_t>(
        static_cast<double>(shift_total) *
        (1.0 + kGapMean / profile.contiguityMean) * kShiftSparsity);
    Placement shifted;
    if (shift_total > 0) {
        Rng shape_rng(rootSeed, profile.name + "/shape/" +
                                    std::to_string(invocation_id));
        shifted = placeScattered(shape_rng, shift_base, shift_region,
                                 shift_total, profile.contiguityMean,
                                 true, used);
    }

    // 3. Unique pool: input buffers and allocation tails.
    std::int64_t unique_base = shift_base + shift_region + 64;
    std::int64_t unique_region = static_cast<std::int64_t>(
        static_cast<double>(unique_total) *
        (1.0 + kGapMean / profile.uniqueContiguityMean) *
        kUniqueSparsity);
    // Clamp to the VM: dense regions overlap more across invocations,
    // which mirrors the guest allocator reusing pages.
    unique_region = std::min(unique_region,
                             total_vm_pages - unique_base - 64);
    VHIVE_ASSERT(unique_region > unique_total);
    Placement unique;
    if (unique_total > 0) {
        Rng unique_rng(rootSeed, profile.name + "/unique/" +
                                     std::to_string(invocation_id));
        unique = placeScattered(unique_rng, unique_base, unique_region,
                                unique_total,
                                profile.uniqueContiguityMean, false,
                                used);
    }

    // 4. Assemble: infra runs first (connection restoration), then the
    // remaining stable runs in a function-deterministic shuffled order,
    // with unique runs interleaved at input-dependent positions.
    InvocationTrace trace;
    trace.stablePageCount = common.pages + shifted.pages;
    trace.uniquePageCount = unique.pages;

    std::vector<AccessRun> infra_runs;
    std::vector<AccessRun> body;
    std::int64_t infra_pages = 0;
    for (auto &r : common.runs) {
        if (infra_pages < infra_total) {
            r.phase = Phase::ConnectionRestore;
            infra_pages += r.pages;
            infra_runs.push_back(r);
        } else {
            body.push_back(r);
        }
    }
    for (const auto &r : shifted.runs)
        body.push_back(r);

    // Function-deterministic access order for the recurring part: the
    // same code touches the same pages in the same order each time.
    Rng order_rng(rootSeed, profile.name + "/order");
    order_rng.shuffle(static_cast<std::int64_t>(body.size()),
                      [&](std::int64_t i, std::int64_t j) {
                          std::swap(body[static_cast<size_t>(i)],
                                    body[static_cast<size_t>(j)]);
                      });

    // Interleave unique runs at input-dependent positions.
    Rng mix_rng(rootSeed, profile.name + "/mix/" +
                              std::to_string(invocation_id));
    for (const auto &r : unique.runs) {
        auto pos = static_cast<size_t>(mix_rng.uniformInt(
            0, static_cast<std::int64_t>(body.size())));
        body.insert(body.begin() + static_cast<std::ptrdiff_t>(pos), r);
    }

    trace.runs.reserve(infra_runs.size() + body.size());
    for (const auto &r : infra_runs)
        trace.runs.push_back(r);
    for (const auto &r : body)
        trace.runs.push_back(r);

    // 5. Spread the warm execution time over the processing runs.
    std::int64_t body_count = static_cast<std::int64_t>(body.size());
    if (body_count > 0) {
        Duration slice = profile.warmExec / body_count;
        Duration rem = profile.warmExec - slice * body_count;
        for (size_t i = infra_runs.size(); i < trace.runs.size(); ++i)
            trace.runs[i].computeAfter = slice;
        trace.runs.back().computeAfter += rem;
    }
    return trace;
}

InvocationTrace
TraceGenerator::boot(const FunctionProfile &profile) const
{
    const std::int64_t total_vm_pages = pagesForBytes(profile.vmMemory);
    const std::int64_t boot_total =
        std::min(pagesForBytes(profile.bootFootprint), total_vm_pages);

    // Boot covers the whole stable pool (code and data that the
    // invocation later reuses)...
    InvocationTrace inv0 = invocation(profile, 0);
    PageSet used(total_vm_pages);
    InvocationTrace trace;
    std::int64_t covered = 0;
    for (const auto &r : inv0.runs) {
        if (!r.stable)
            continue;
        trace.runs.push_back(
            {r.page, r.pages, 0, Phase::Processing, true});
        covered += used.insertRange(r.page, r.pages);
    }

    // ...plus everything only boot and init touch, swept in large
    // sequential chunks from the bottom of memory.
    std::int64_t page = 0;
    constexpr std::int64_t kBootRun = 32;
    while (covered < boot_total && page < total_vm_pages) {
        std::int64_t len = 0;
        while (len < kBootRun && page + len < total_vm_pages &&
               !used.contains(page + len) &&
               covered + len < boot_total) {
            ++len;
        }
        if (len > 0) {
            trace.runs.push_back(
                {page, len, 0, Phase::Processing, true});
            covered += len;
        }
        page += len ? len : 1;
    }
    trace.stablePageCount = covered;
    trace.uniquePageCount = 0;

    // Boot + init compute, spread across the trace.
    if (!trace.runs.empty()) {
        Duration total = profile.bootTime + profile.initTime;
        Duration slice =
            total / static_cast<std::int64_t>(trace.runs.size());
        for (auto &r : trace.runs)
            r.computeAfter = slice;
    }
    return trace;
}

} // namespace vhive::func
