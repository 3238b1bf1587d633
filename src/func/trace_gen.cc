#include "func/trace_gen.hh"

#include <algorithm>
#include <bit>
#include <limits>
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

/** Guard pages between the common, shifted and unique pools. */
constexpr std::int64_t kPoolGap = 64;

/** Stable pages that shift with the input's shape. */
std::int64_t
shiftPages(const FunctionProfile &profile)
{
    return static_cast<std::int64_t>(
        static_cast<double>(profile.stablePages()) *
        profile.stableDriftFrac);
}

/** Pages the shape-shifted slice is scattered over. */
std::int64_t
shiftRegion(const FunctionProfile &profile)
{
    return static_cast<std::int64_t>(
        static_cast<double>(shiftPages(profile)) *
        (1.0 + kGapMean / profile.contiguityMean) * kShiftSparsity);
}

/**
 * Place @p total pages as runs with geometric lengths starting at
 * @p base, separated by geometric gaps, calling @p emit(page, pages)
 * per run. Dense, deterministic layout. Returns the cursor past the
 * last gap.
 */
template <typename Emit>
std::int64_t
placeSequential(Rng &rng, std::int64_t base, std::int64_t total,
                double contig_mean, Emit &&emit)
{
    std::int64_t cursor = base;
    std::int64_t placed = 0;
    while (placed < total) {
        std::int64_t len =
            std::min<std::int64_t>(rng.geometric(contig_mean),
                                   total - placed);
        emit(cursor, len);
        placed += len;
        cursor += len + rng.geometric(kGapMean);
    }
    return cursor;
}

/**
 * Place @p total pages as runs at random offsets inside
 * [base, base+region), avoiding pages already in @p used and adding
 * each run to it, calling @p emit(page, pages) per run. Models
 * per-invocation allocations whose placement varies with the input.
 */
template <typename Emit>
void
placeScattered(Rng &rng, std::int64_t base, std::int64_t region,
               std::int64_t total, double contig_mean, PageSet &used,
               Emit &&emit)
{
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
        emit(start, len);
        placed += len;
    }
}

/**
 * Function-deterministic access order for the recurring part: the
 * same code touches the same pages in the same order each time.
 */
template <typename Run>
void
shuffleStable(std::uint64_t root_seed, const FunctionProfile &profile,
              std::vector<Run> &runs)
{
    Rng order_rng(root_seed, profile.name + "/order");
    order_rng.shuffle(static_cast<std::int64_t>(runs.size()),
                      [&](std::int64_t i, std::int64_t j) {
                          std::swap(runs[static_cast<size_t>(i)],
                                    runs[static_cast<size_t>(j)]);
                      });
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

std::vector<std::int32_t>
insertionOrder(std::int64_t n, const std::vector<std::int64_t> &positions)
{
    const auto m = static_cast<std::int64_t>(positions.size());
    const std::int64_t size = n + m;
    std::vector<std::int32_t> order(static_cast<size_t>(size), -1);
    if (m == 0)
        return order;

    // Fenwick tree counting the free final slots, padded to a power of
    // two so the search needs no bounds check (padding is never free).
    const auto top = static_cast<std::int64_t>(
        std::bit_ceil(static_cast<std::uint64_t>(size)));
    std::vector<std::int32_t> free_slots(static_cast<size_t>(top + 1));
    for (std::int64_t i = 1; i <= top; ++i)
        free_slots[static_cast<size_t>(i)] = static_cast<std::int32_t>(
            std::max<std::int64_t>(0, std::min(i, size) - i + (i & -i)));

    // The last item keeps the index it was inserted at. Walking back,
    // item k is the positions[k]-th of the slots no later item took:
    // later insertions never reorder the sequence item k went into.
    for (std::int64_t k = m - 1; k >= 0; --k) {
        std::int64_t rank = positions[static_cast<size_t>(k)];
        VHIVE_ASSERT(rank >= 0 && rank <= n + k);
        std::int64_t slot = 0; // free slots up to it number <= rank
        for (std::int64_t step = top / 2; step > 0; step /= 2) {
            std::int64_t below =
                free_slots[static_cast<size_t>(slot + step)];
            bool skip = below <= rank;
            slot += skip ? step : 0;
            rank -= skip ? below : 0;
        }
        order[static_cast<size_t>(slot)] = static_cast<std::int32_t>(k);
        for (std::int64_t i = slot + 1; i <= top; i += i & -i)
            --free_slots[static_cast<size_t>(i)];
    }
    return order;
}

const TraceGenerator::Skeleton &
TraceGenerator::skeleton(const FunctionProfile &profile) const
{
    const SkeletonKey key{profile.vmMemory,       profile.workingSet,
                          profile.infraSet,       profile.uniqueFrac,
                          profile.contiguityMean, profile.stableDriftFrac};
    auto [it, fresh] = skeletons.try_emplace(profile.name);
    Skeleton &sk = it->second;
    if (!fresh && sk.key == key)
        return sk;

    sk = Skeleton{};
    sk.key = key;
    const std::int64_t shift_total = shiftPages(profile);
    const std::int64_t common_total = profile.stablePages() - shift_total;
    const std::int64_t infra_total =
        std::min(profile.infraPages(), common_total);

    // Common stable pool, the same for every invocation. Its first
    // runs, until they cover the infra set, are the connection-restore
    // runs that every trace starts with.
    Rng stable_rng(rootSeed, profile.name + "/stable");
    std::int64_t infra_pages = 0;
    sk.cursorEnd = placeSequential(
        stable_rng, kStableBase, common_total, profile.contiguityMean,
        [&](std::int64_t page, std::int64_t pages) {
            if (infra_pages < infra_total) {
                infra_pages += pages;
                sk.infra.emplace_back(page, pages);
            } else {
                sk.body.emplace_back(page, pages);
            }
        });
    // Every page of a trace then fits a PageRun.
    VHIVE_ASSERT(pagesForBytes(profile.vmMemory) <=
                 std::numeric_limits<std::int32_t>::max());
    if (shift_total == 0)
        shuffleStable(rootSeed, profile, sk.body);
    sk.infra.shrink_to_fit();
    sk.body.shrink_to_fit();
    return sk;
}

const std::vector<TraceGenerator::PageRun> &
TraceGenerator::stableBody(const FunctionProfile &profile,
                           const Skeleton &sk, std::int64_t invocation_id,
                           PageSet &used,
                           std::vector<PageRun> &scratch) const
{
    const std::int64_t shift_total = shiftPages(profile);
    if (shift_total == 0)
        return sk.body;

    // Shape-shifted stable slice: depends on the input's shape, and
    // so does the order of the whole body.
    scratch = sk.body;
    Rng shape_rng(rootSeed, profile.name + "/shape/" +
                                std::to_string(invocation_id));
    placeScattered(shape_rng, sk.cursorEnd + kPoolGap,
                   shiftRegion(profile), shift_total,
                   profile.contiguityMean, used,
                   [&](std::int64_t page, std::int64_t pages) {
                       scratch.emplace_back(page, pages);
                   });
    shuffleStable(rootSeed, profile, scratch);
    return scratch;
}

InvocationTrace
TraceGenerator::invocation(const FunctionProfile &profile,
                           std::int64_t invocation_id) const
{
    const Skeleton &sk = skeleton(profile);
    const std::int64_t total_vm_pages = pagesForBytes(profile.vmMemory);
    const std::int64_t unique_total = profile.uniquePages();
    const std::int64_t shift_base = sk.cursorEnd + kPoolGap;
    const std::int64_t unique_base =
        shift_base + shiftRegion(profile) + kPoolGap;
    // The clash set below holds scattered pages only: every scattered
    // run starts at or above shift_base, past the whole common pool.
    VHIVE_ASSERT(shift_base > sk.cursorEnd && unique_base > shift_base);

    // 1. Stable body, with the input's shape-shifted slice if any.
    PageSet used(total_vm_pages);
    std::vector<PageRun> drifted;
    const std::vector<PageRun> &body =
        stableBody(profile, sk, invocation_id, used, drifted);

    // 2. Unique pool: input buffers and allocation tails.
    std::int64_t unique_region = static_cast<std::int64_t>(
        static_cast<double>(unique_total) *
        (1.0 + kGapMean / profile.uniqueContiguityMean) *
        kUniqueSparsity);
    // Clamp to the VM: dense regions overlap more across invocations,
    // which mirrors the guest allocator reusing pages.
    unique_region = std::min(unique_region,
                             total_vm_pages - unique_base - kPoolGap);
    VHIVE_ASSERT(unique_region > unique_total);
    std::vector<PageRun> unique;
    if (unique_total > 0) {
        Rng unique_rng(rootSeed, profile.name + "/unique/" +
                                     std::to_string(invocation_id));
        placeScattered(unique_rng, unique_base, unique_region,
                       unique_total, profile.uniqueContiguityMean, used,
                       [&](std::int64_t page, std::int64_t pages) {
                           unique.emplace_back(page, pages);
                       });
    }

    // 3. Interleave unique runs at input-dependent positions. Run k
    // goes in at a uniform index of the then n + k long body; the
    // draws do not depend on the runs, so draw them all first.
    const auto n = static_cast<std::int64_t>(body.size());
    const auto m = static_cast<std::int64_t>(unique.size());
    Rng mix_rng(rootSeed, profile.name + "/mix/" +
                              std::to_string(invocation_id));
    std::vector<std::int64_t> positions(static_cast<size_t>(m));
    for (std::int64_t k = 0; k < m; ++k)
        positions[static_cast<size_t>(k)] = mix_rng.uniformInt(0, n + k);
    const std::vector<std::int32_t> order = insertionOrder(n, positions);

    // 4. Assemble: infra runs first (connection restoration), then the
    // body with the unique runs in their slots, the warm execution
    // time spread over these processing runs.
    InvocationTrace trace;
    trace.stablePageCount = profile.stablePages();
    trace.uniquePageCount = unique_total;
    trace.runs.reserve(sk.infra.size() + static_cast<size_t>(n + m));
    for (const PageRun &r : sk.infra)
        trace.runs.push_back(
            {r.page, r.pages, 0, Phase::ConnectionRestore, true});
    const std::int64_t body_count = n + m;
    const Duration slice = body_count ? profile.warmExec / body_count : 0;
    auto next_body = body.begin();
    for (std::int32_t k : order) {
        const PageRun &r =
            k >= 0 ? unique[static_cast<size_t>(k)] : *next_body++;
        trace.runs.push_back(
            {r.page, r.pages, slice, Phase::Processing, k < 0});
    }
    if (body_count > 0)
        trace.runs.back().computeAfter +=
            profile.warmExec - slice * body_count;
    return trace;
}

InvocationTrace
TraceGenerator::boot(const FunctionProfile &profile) const
{
    const std::int64_t total_vm_pages = pagesForBytes(profile.vmMemory);
    const std::int64_t boot_total =
        std::min(pagesForBytes(profile.bootFootprint), total_vm_pages);

    // Boot covers the whole stable pool (code and data that the
    // invocation later reuses) in invocation 0's order...
    const Skeleton &sk = skeleton(profile);
    PageSet clash(total_vm_pages);
    std::vector<PageRun> drifted;
    const std::vector<PageRun> &body =
        stableBody(profile, sk, 0, clash, drifted);
    PageSet used(total_vm_pages);
    InvocationTrace trace;
    std::int64_t covered = 0;
    auto cover = [&](const PageRun &r) {
        trace.runs.push_back({r.page, r.pages, 0, Phase::Processing, true});
        covered += used.insertRange(r.page, r.pages);
    };
    std::for_each(sk.infra.begin(), sk.infra.end(), cover);
    std::for_each(body.begin(), body.end(), cover);

    // ...plus everything only boot and init touch, swept in large
    // sequential chunks from the bottom of memory.
    constexpr std::int64_t kBootRun = 32;
    for (std::int64_t page = 0;
         covered < boot_total && page < total_vm_pages;) {
        std::int64_t end =
            used.runEnd(page, std::min(page + kBootRun, total_vm_pages));
        if (!used.contains(page)) {
            end = std::min(end, page + boot_total - covered);
            trace.runs.push_back(
                {page, end - page, 0, Phase::Processing, true});
            covered += end - page;
        }
        page = end;
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
