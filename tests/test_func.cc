/**
 * @file
 * Tests for the FunctionBench profiles and trace generation: the
 * catalog matches Table 1, traces are deterministic, working-set
 * properties (contiguity, reuse, drift) land where the paper's
 * characterization figures put them.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "func/profile.hh"
#include "func/trace_gen.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace vhive::func {
namespace {

constexpr std::uint64_t kSeed = 0x5eed;

TEST(Profiles, CatalogMatchesTable1)
{
    const auto &fb = functionBench();
    ASSERT_EQ(fb.size(), 10u);
    const char *expected[] = {
        "helloworld", "chameleon", "pyaes", "image_rotate",
        "json_serdes", "lr_serving", "cnn_serving", "rnn_serving",
        "lr_training", "video_processing",
    };
    for (size_t i = 0; i < 10; ++i)
        EXPECT_EQ(fb[i].name, expected[i]);
}

TEST(Profiles, LookupByName)
{
    EXPECT_EQ(profileByName("pyaes").name, "pyaes");
    EXPECT_GT(profileByName("cnn_serving").warmExec, msec(100));
}

TEST(Profiles, FootprintsInPaperRanges)
{
    // Fig. 4: boot footprints 148-256 MB; working sets 8-99 MB.
    for (const auto &p : functionBench()) {
        EXPECT_GE(p.bootFootprint, 148 * kMiB) << p.name;
        EXPECT_LE(p.bootFootprint, 256 * kMiB) << p.name;
        EXPECT_GE(p.workingSet, 8 * kMiB) << p.name;
        EXPECT_LE(p.workingSet, 99 * kMiB) << p.name;
        EXPECT_LT(p.workingSet, p.bootFootprint) << p.name;
    }
}

TEST(Profiles, DerivedPageCounts)
{
    const auto &p = profileByName("helloworld");
    EXPECT_EQ(p.wsPages(), pagesForBytes(p.workingSet));
    EXPECT_EQ(p.stablePages() + p.uniquePages(), p.wsPages());
    EXPECT_GT(p.stablePages(), 0);
}

TEST(TraceGen, Deterministic)
{
    TraceGenerator gen(kSeed);
    const auto &p = profileByName("chameleon");
    auto a = gen.invocation(p, 3);
    auto b = gen.invocation(p, 3);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].page, b.runs[i].page);
        EXPECT_EQ(a.runs[i].pages, b.runs[i].pages);
    }
}

TEST(TraceGen, DifferentSeedsDiffer)
{
    const auto &p = profileByName("chameleon");
    auto a = TraceGenerator(1).invocation(p, 0);
    auto b = TraceGenerator(2).invocation(p, 0);
    auto ra = comparePageSets(a, b);
    EXPECT_GT(ra.onlyFirst + ra.onlySecond, 0);
}

TEST(TraceGen, PageCountsMatchProfile)
{
    TraceGenerator gen(kSeed);
    for (const auto &p : functionBench()) {
        auto t = gen.invocation(p, 1);
        EXPECT_EQ(t.stablePageCount + t.uniquePageCount, p.wsPages())
            << p.name;
        auto pages = t.touchedPages();
        // No page is touched by two different runs.
        EXPECT_EQ(static_cast<std::int64_t>(pages.size()),
                  t.totalPages())
            << p.name;
    }
}

TEST(TraceGen, NoOverlapWithinInvocation)
{
    TraceGenerator gen(kSeed);
    const auto &p = profileByName("lr_training");
    auto t = gen.invocation(p, 7);
    std::set<std::int64_t> seen;
    for (const auto &r : t.runs) {
        for (std::int64_t pg = r.page; pg < r.page + r.pages; ++pg) {
            EXPECT_TRUE(seen.insert(pg).second)
                << "page " << pg << " appears twice";
        }
    }
}

TEST(TraceGen, PagesWithinVmMemory)
{
    TraceGenerator gen(kSeed);
    for (const auto &p : functionBench()) {
        auto t = gen.invocation(p, 2);
        std::int64_t vm_pages = pagesForBytes(p.vmMemory);
        for (const auto &r : t.runs) {
            EXPECT_GE(r.page, 0) << p.name;
            EXPECT_LE(r.page + r.pages, vm_pages) << p.name;
        }
    }
}

TEST(TraceGen, ContiguityNearProfileMean)
{
    // Fig. 3: average contiguous-run length 2-3 pages, ~5 for
    // lr_training.
    TraceGenerator gen(kSeed);
    for (const auto &p : functionBench()) {
        auto t = gen.invocation(p, 0);
        double contig = averageContiguity(t.touchedPages());
        EXPECT_GT(contig, 0.65 * p.contiguityMean) << p.name;
        EXPECT_LT(contig, 1.6 * p.contiguityMean) << p.name;
    }
}

TEST(TraceGen, StablePagesRecurAcrossInvocations)
{
    // Fig. 5: for most functions >97% of pages recur across
    // invocations with different inputs.
    TraceGenerator gen(kSeed);
    const auto &p = profileByName("helloworld");
    auto a = gen.invocation(p, 0);
    auto b = gen.invocation(p, 1);
    auto r = comparePageSets(a, b);
    EXPECT_GT(r.sameFrac(), 0.95);
}

TEST(TraceGen, LargeInputFunctionsReuseLess)
{
    TraceGenerator gen(kSeed);
    auto small = comparePageSets(
        gen.invocation(profileByName("pyaes"), 0),
        gen.invocation(profileByName("pyaes"), 1));
    auto large = comparePageSets(
        gen.invocation(profileByName("lr_training"), 0),
        gen.invocation(profileByName("lr_training"), 1));
    EXPECT_LT(large.sameFrac(), small.sameFrac());
    // Still above the paper's 76% floor.
    EXPECT_GT(large.sameFrac(), 0.60);
}

TEST(TraceGen, SameInputIdenticalPageSet)
{
    TraceGenerator gen(kSeed);
    const auto &p = profileByName("image_rotate");
    auto r = comparePageSets(gen.invocation(p, 5),
                             gen.invocation(p, 5));
    EXPECT_EQ(r.onlyFirst, 0);
    EXPECT_EQ(r.onlySecond, 0);
}

TEST(TraceGen, DriftShiftsStableSet)
{
    // video_processing: different input shapes relocate a chunk of the
    // otherwise-stable pool (Sec. 6.3).
    TraceGenerator gen(kSeed);
    const auto &video = profileByName("video_processing");
    auto a = gen.invocation(video, 0);
    auto b = gen.invocation(video, 1);
    auto r = comparePageSets(a, b);
    // Reuse is much lower than the drift-free stable fraction.
    EXPECT_LT(r.sameFrac(), 1.0 - video.stableDriftFrac * 0.5);
    EXPECT_GT(r.sameFrac(), 0.30);
}

TEST(TraceGen, InfraRunsComeFirstAndAreStable)
{
    TraceGenerator gen(kSeed);
    const auto &p = profileByName("lr_serving");
    auto t = gen.invocation(p, 0);
    bool seen_processing = false;
    std::int64_t infra_pages = 0;
    for (const auto &r : t.runs) {
        if (r.phase == Phase::ConnectionRestore) {
            EXPECT_FALSE(seen_processing)
                << "conn-restore run after processing began";
            EXPECT_TRUE(r.stable);
            infra_pages += r.pages;
        } else {
            seen_processing = true;
        }
    }
    EXPECT_GE(infra_pages, p.infraPages() - 8);
    EXPECT_LE(infra_pages, p.infraPages() + 8);
}

TEST(TraceGen, ComputeSumsToWarmTime)
{
    TraceGenerator gen(kSeed);
    for (const auto &p : functionBench()) {
        auto t = gen.invocation(p, 0);
        Duration total = 0;
        for (const auto &r : t.runs)
            total += r.computeAfter;
        EXPECT_EQ(total, p.warmExec) << p.name;
    }
}

TEST(TraceGen, InfraRunsRecurAcrossInputs)
{
    // The gRPC/kernel infra pages must be identical across inputs:
    // that is why REAP shrinks connection restoration ~45x.
    TraceGenerator gen(kSeed);
    const auto &p = profileByName("video_processing");
    auto a = gen.invocation(p, 0);
    auto b = gen.invocation(p, 1);
    std::set<std::int64_t> ia, ib;
    for (const auto &r : a.runs)
        if (r.phase == Phase::ConnectionRestore)
            for (std::int64_t pg = r.page; pg < r.page + r.pages; ++pg)
                ia.insert(pg);
    for (const auto &r : b.runs)
        if (r.phase == Phase::ConnectionRestore)
            for (std::int64_t pg = r.page; pg < r.page + r.pages; ++pg)
                ib.insert(pg);
    EXPECT_EQ(ia, ib);
}

TEST(TraceGen, BootCoversStablePoolAndFootprint)
{
    TraceGenerator gen(kSeed);
    for (const auto &p : functionBench()) {
        auto boot = gen.boot(p);
        std::int64_t boot_pages = 0;
        for (const auto &r : boot.runs)
            boot_pages += r.pages;
        std::int64_t target =
            std::min(pagesForBytes(p.bootFootprint),
                     pagesForBytes(p.vmMemory));
        EXPECT_NEAR(static_cast<double>(boot_pages),
                    static_cast<double>(target),
                    static_cast<double>(target) * 0.02)
            << p.name;

        // Boot must cover every stable page of a later invocation
        // (so the snapshot contains a warm working set).
        auto inv = gen.invocation(p, 4);
        std::set<std::int64_t> booted;
        for (const auto &r : boot.runs)
            for (std::int64_t pg = r.page; pg < r.page + r.pages; ++pg)
                booted.insert(pg);
        std::int64_t missing_stable = 0;
        for (const auto &r : inv.runs) {
            if (!r.stable)
                continue;
            for (std::int64_t pg = r.page; pg < r.page + r.pages; ++pg)
                if (!booted.count(pg))
                    ++missing_stable;
        }
        if (p.stableDriftFrac == 0.0) {
            EXPECT_EQ(missing_stable, 0) << p.name;
        }
    }
}

/** Two traces equal run by run and field by field. */
void
expectSameTrace(const InvocationTrace &got, const InvocationTrace &want,
                const std::string &what)
{
    EXPECT_EQ(got.stablePageCount, want.stablePageCount) << what;
    EXPECT_EQ(got.uniquePageCount, want.uniquePageCount) << what;
    ASSERT_EQ(got.runs.size(), want.runs.size()) << what;
    for (size_t i = 0; i < got.runs.size(); ++i) {
        const AccessRun &a = got.runs[i];
        const AccessRun &b = want.runs[i];
        ASSERT_TRUE(a.page == b.page && a.pages == b.pages &&
                    a.computeAfter == b.computeAfter &&
                    a.phase == b.phase && a.stable == b.stable)
            << what << " run " << i;
    }
}

/**
 * Property: a long-lived generator, whose skeletons persist across
 * invocation and boot calls interleaved over many profiles, returns
 * exactly what a fresh generator returns. A profile re-registered
 * under the same name with any skeleton field changed must get a
 * rebuilt skeleton, not the stale one.
 */
TEST(TraceGen, MemoizedMatchesFresh)
{
    std::vector<FunctionProfile> profiles = functionBench();
    for (FunctionClass cls :
         {FunctionClass::Generic, FunctionClass::MlInference,
          FunctionClass::Media, FunctionClass::Etl})
        profiles.push_back(makeClassProfile(cls, kSeed, 1));
    auto call = [](const TraceGenerator &gen, const FunctionProfile &p,
                   std::int64_t id) {
        return id < 0 ? gen.boot(p) : gen.invocation(p, id);
    };

    TraceGenerator shared(kSeed);
    Rng rng(kSeed, "memo-calls");
    for (int i = 0; i < 80; ++i) {
        // Every profile once in order, then random profiles and ids
        // (id -1 is a boot).
        size_t which = i < static_cast<int>(profiles.size())
                           ? static_cast<size_t>(i)
                           : static_cast<size_t>(rng.uniformInt(
                                 0, static_cast<std::int64_t>(
                                        profiles.size()) - 1));
        const FunctionProfile &p = profiles[which];
        std::int64_t id = rng.uniformInt(-1, 4);
        expectSameTrace(call(shared, p, id),
                        call(TraceGenerator(kSeed), p, id),
                        p.name + " id " + std::to_string(id));
    }

    const std::vector<std::pair<const char *,
                                std::function<void(FunctionProfile &)>>>
        edits = {
            {"vmMemory", [](FunctionProfile &p) { p.vmMemory *= 2; }},
            {"workingSet",
             [](FunctionProfile &p) { p.workingSet += 3 * kMiB; }},
            {"uniqueFrac",
             [](FunctionProfile &p) { p.uniqueFrac += 0.03; }},
            {"infraSet",
             [](FunctionProfile &p) { p.infraSet += 2 * kMiB; }},
            {"contiguityMean",
             [](FunctionProfile &p) { p.contiguityMean += 0.7; }},
            {"stableDriftFrac",
             [](FunctionProfile &p) { p.stableDriftFrac += 0.05; }},
        };
    for (const char *name : {"pyaes", "video_processing"}) {
        const FunctionProfile &base = profileByName(name);
        for (const auto &[field, edit] : edits) {
            FunctionProfile changed = base;
            edit(changed);
            for (std::int64_t id : {2, -1}) {
                std::string what =
                    std::string(name) + " with " + field + " changed";
                call(shared, base, id); // the stale skeleton is cached
                expectSameTrace(call(shared, changed, id),
                                call(TraceGenerator(kSeed), changed, id),
                                what);
                expectSameTrace(call(shared, base, id),
                                call(TraceGenerator(kSeed), base, id),
                                what + " and back");
            }
        }
    }
}

/**
 * Property: insertionOrder leaves every item where inserting the items
 * one after another with vector::insert does, including into an empty
 * sequence, with no items, and with more items than the sequence had.
 */
TEST(TraceGen, InsertionOrderMatchesSequentialInsert)
{
    Rng rng(kSeed, "insertion-order");
    for (int iter = 0; iter < 400; ++iter) {
        std::int64_t n = iter % 7 == 0 ? 0 : rng.uniformInt(0, 150);
        std::int64_t m = iter % 5 == 0 ? 0 : rng.uniformInt(0, 300);
        std::vector<std::int64_t> positions;
        std::vector<std::int32_t> want(static_cast<size_t>(n), -1);
        for (std::int64_t k = 0; k < m; ++k) {
            std::int64_t pos = rng.uniformInt(0, n + k);
            positions.push_back(pos);
            want.insert(want.begin() + pos, static_cast<std::int32_t>(k));
        }
        EXPECT_EQ(insertionOrder(n, positions), want)
            << "n " << n << " m " << m;
    }
}

TEST(TraceGen, AverageContiguityHelper)
{
    EXPECT_DOUBLE_EQ(averageContiguity({}), 0.0);
    EXPECT_DOUBLE_EQ(averageContiguity({5}), 1.0);
    EXPECT_DOUBLE_EQ(averageContiguity({1, 2, 3}), 3.0);
    EXPECT_DOUBLE_EQ(averageContiguity({1, 2, 4, 5}), 2.0);
    EXPECT_DOUBLE_EQ(averageContiguity({1, 3, 5}), 1.0);
}

TEST(TraceGen, ReuseStatsHelper)
{
    InvocationTrace a, b;
    a.runs = {{0, 4, 0, Phase::Processing, true}};
    b.runs = {{2, 4, 0, Phase::Processing, true}};
    auto r = comparePageSets(a, b);
    EXPECT_EQ(r.samePages, 2);
    EXPECT_EQ(r.onlyFirst, 2);
    EXPECT_EQ(r.onlySecond, 2);
    EXPECT_DOUBLE_EQ(r.sameFrac(), 0.5);
}

} // namespace
} // namespace vhive::func
