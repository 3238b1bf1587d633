/**
 * @file
 * Unit tests for the util module: units, RNG determinism and
 * distribution shape, statistics containers, the table printer and
 * the PageSet bitmap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/page_set.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace vhive {
namespace {

TEST(Units, TimeLiterals)
{
    EXPECT_EQ(usec(1), 1000);
    EXPECT_EQ(msec(1), 1000 * 1000);
    EXPECT_EQ(sec(1), 1000LL * 1000 * 1000);
    EXPECT_DOUBLE_EQ(toMs(msec(232)), 232.0);
    EXPECT_DOUBLE_EQ(toUs(usec(122)), 122.0);
}

TEST(Units, PageMath)
{
    EXPECT_EQ(kPageSize, 4096);
    EXPECT_EQ(pagesForBytes(0), 0);
    EXPECT_EQ(pagesForBytes(1), 1);
    EXPECT_EQ(pagesForBytes(4096), 1);
    EXPECT_EQ(pagesForBytes(4097), 2);
    EXPECT_EQ(pagesForBytes(8 * kMiB), 2048);
    EXPECT_EQ(bytesForPages(2048), 8 * kMiB);
}

TEST(Units, Throughput)
{
    // 8 MB in 10 ms -> 800 MB/s (decimal MB as the paper reports).
    EXPECT_NEAR(mbps(8'000'000, msec(10)), 800.0, 1e-9);
    EXPECT_DOUBLE_EQ(mbps(123, 0), 0.0);
}

TEST(Rng, DeterministicStreams)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());

    Rng named1(42, "disk"), named2(42, "disk"), other(42, "cpu");
    EXPECT_EQ(named1.next(), named2.next());
    EXPECT_NE(named1.next(), other.next());
}

TEST(Rng, UniformBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        auto v = rng.uniformInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, GeometricMeanConverges)
{
    Rng rng(123);
    for (double mean : {1.0, 2.4, 3.0, 5.0}) {
        double acc = 0;
        const int n = 40000;
        for (int i = 0; i < n; ++i)
            acc += static_cast<double>(rng.geometric(mean));
        double sample_mean = acc / n;
        EXPECT_NEAR(sample_mean, mean, mean * 0.05)
            << "target mean " << mean;
    }
}

TEST(Rng, GeometricMinimumIsOne)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.geometric(1.5), 1);
}

TEST(Rng, ExponentialMeanConverges)
{
    Rng rng(99);
    double acc = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        acc += rng.exponential(250.0);
    EXPECT_NEAR(acc / n, 250.0, 10.0);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(1234);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(17);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    rng.shuffle(10, [&](std::int64_t i, std::int64_t j) {
        std::swap(v[i], v[j]);
    });
    std::sort(v.begin(), v.end());
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(v[i], i);
}

TEST(Samples, BasicSummary)
{
    Samples s;
    EXPECT_EQ(s.count(), 0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
}

TEST(Samples, Geomean)
{
    Samples s;
    s.add(1.0);
    s.add(4.0);
    s.add(16.0);
    EXPECT_NEAR(s.geomean(), 4.0, 1e-9);
}

TEST(Samples, PaperGeomeanSpeedup)
{
    // The paper's "3.7x average" is the geometric mean of per-function
    // speedups; sanity-check our helper reproduces it from the Fig. 8
    // numbers.
    Samples s;
    const double base[] = {232, 437, 309, 594, 535, 647, 1424, 503,
                           8057, 2642};
    const double reap[] = {60, 97, 55, 207, 127, 66, 237, 82, 6090, 2540};
    for (int i = 0; i < 10; ++i)
        s.add(base[i] / reap[i]);
    EXPECT_NEAR(s.geomean(), 3.7, 0.15);
}

TEST(Samples, Percentiles)
{
    Samples s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(99), 99.01, 0.2);
}

TEST(Samples, PercentileSingleValue)
{
    Samples s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 42.0);
}

TEST(Table, AlignsColumns)
{
    Table t({"function", "cold_ms", "warm_ms"});
    t.row().cell("helloworld").cell(232.0, 0).cell(1.0, 0);
    t.row().cell("cnn_serving").cell(1424.0, 0).cell(192.0, 0);
    std::string out = t.str();
    EXPECT_NE(out.find("function"), std::string::npos);
    EXPECT_NE(out.find("helloworld"), std::string::npos);
    EXPECT_NE(out.find("1424"), std::string::npos);
    // Header and rule plus two rows -> at least 4 lines.
    EXPECT_GE(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, IntegerCells)
{
    Table t({"a", "b"});
    t.row().cell(static_cast<std::int64_t>(7)).cell("x");
    EXPECT_NE(t.str().find("7"), std::string::npos);
}

TEST(PageSet, EmptyAndSinglePages)
{
    PageSet s;
    EXPECT_EQ(s.size(), 0);
    EXPECT_FALSE(s.contains(0));
    EXPECT_FALSE(s.contains(1 << 30)); // never grown: not a member
    EXPECT_FALSE(s.intersects(0, 1000));
    EXPECT_TRUE(s.insert(63));
    EXPECT_FALSE(s.insert(63));
    EXPECT_TRUE(s.insert(64));
    EXPECT_EQ(s.size(), 2);
    EXPECT_TRUE(s.intersects(60, 4));
    EXPECT_FALSE(s.intersects(0, 63));
    EXPECT_FALSE(s.intersects(65, 0));
    // A full word and runs spanning word boundaries.
    EXPECT_EQ(s.insertRange(128, 64), 64);
    EXPECT_EQ(s.insertRange(60, 10), 8);
    EXPECT_EQ(s.size(), 74);
    EXPECT_TRUE(s.contains(191));
    EXPECT_FALSE(s.contains(192));
    // Run ends: inside a word, across words, capped by the limit, and
    // past the storage (all non-members).
    EXPECT_EQ(s.runEnd(60, 1000), 70);
    EXPECT_EQ(s.runEnd(70, 1000), 128);
    EXPECT_EQ(s.runEnd(128, 1000), 192);
    EXPECT_EQ(s.runEnd(130, 150), 150);
    EXPECT_EQ(s.runEnd(192, 1 << 20), 1 << 20);
    EXPECT_EQ(s.runEnd(5000, 5001), 5001);
    s.clear();
    EXPECT_EQ(s.size(), 0);
    EXPECT_FALSE(s.contains(191));
    EXPECT_EQ(s.runEnd(0, 300), 300);
    PageSet one_word(64);
    one_word.insertRange(60, 4); // members up to the storage's end
    EXPECT_EQ(one_word.runEnd(60, 100), 64);
    EXPECT_EQ(one_word.runEnd(61, 63), 63);
}

/**
 * Property: random single inserts and runs, started inside the initial
 * size and far past it (growth), answer contains/intersects/size and
 * report newly added pages exactly as a std::set does. runEnd finds
 * the same run ends as a page-by-page scan, for runs that straddle
 * 64-page words and the end of the storage, and clear() empties both.
 */
TEST(PageSet, MatchesStdSet)
{
    Rng rng(5, "page-set");
    for (int iter = 0; iter < 200; ++iter) {
        PageSet bits(iter % 2 ? 256 : 0);
        std::set<std::int64_t> ref;
        for (int op = 0; op < 60; ++op) {
            std::int64_t limit = rng.uniformInt(0, 3) == 0 ? 40000 : 600;
            std::int64_t page = rng.uniformInt(0, limit);
            std::int64_t len = rng.uniformInt(0, 150);
            std::int64_t fresh = 0;
            bool hit = false;
            for (std::int64_t p = page; p < page + len; ++p) {
                hit = hit || ref.count(p);
                fresh += ref.insert(p).second ? 1 : 0;
            }
            EXPECT_EQ(bits.intersects(page, len), hit);
            EXPECT_EQ(bits.insertRange(page, len), fresh);
            std::int64_t probe = rng.uniformInt(0, 2 * limit);
            EXPECT_EQ(bits.contains(probe), ref.count(probe) == 1);

            std::int64_t from = rng.uniformInt(0, limit + 200);
            std::int64_t to = from + rng.uniformInt(1, 300);
            std::int64_t run_end = from + 1;
            while (run_end < to &&
                   ref.count(run_end) == ref.count(from))
                ++run_end;
            EXPECT_EQ(bits.runEnd(from, to), run_end)
                << from << ".." << to;
            if (rng.uniformInt(0, 40) == 0) {
                bits.clear();
                ref.clear();
                EXPECT_EQ(bits.size(), 0);
                EXPECT_FALSE(bits.intersects(0, 2 * limit));
            }
        }
        EXPECT_EQ(bits.size(), static_cast<std::int64_t>(ref.size()));
        for (std::int64_t p : ref)
            ASSERT_TRUE(bits.contains(p)) << p;
    }
}

/**
 * Property: random inserts and erases, mostly word-aligned or
 * word-straddling runs, several growths deep, keep the set equal to a
 * std::vector<bool> model: each op's return count, contains() on every
 * page, intersects() and runEnd() at random probes, size(), and
 * clear(). Erases reach past the storage, which must neither grow it
 * nor change membership.
 */
TEST(PageSet, MatchesVectorBoolUnderInsertAndErase)
{
    for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
        Rng rng(seed, "page-set-erase");
        PageSet bits;
        std::vector<bool> ref;
        std::int64_t members = 0;
        auto member = [&ref](std::int64_t p) {
            return p < static_cast<std::int64_t>(ref.size()) &&
                   ref[static_cast<size_t>(p)];
        };
        // Runs start on, just before or just after a word boundary
        // half the time, and cover a whole word now and then.
        auto draw_start = [&rng](std::int64_t limit) {
            std::int64_t p = rng.uniformInt(0, limit);
            if (rng.uniformInt(0, 1) == 0)
                p = p / 64 * 64 + rng.uniformInt(-1, 1);
            return std::max<std::int64_t>(p, 0);
        };
        auto draw_len = [&rng] {
            switch (rng.uniformInt(0, 3)) {
              case 0:
                return rng.uniformInt(0, 3);
              case 1:
                return std::int64_t{64};
              default:
                return rng.uniformInt(0, 300);
            }
        };
        // The universe widens every 100 ops: the set grows in steps.
        for (int op = 0; op < 1200; ++op) {
            const std::int64_t limit = 200 + 400 * (op / 100);
            const std::int64_t page = draw_start(limit);
            const std::int64_t len = draw_len();
            std::int64_t changed = 0;
            if (rng.uniformInt(0, 2) != 0) {
                if (static_cast<std::int64_t>(ref.size()) < page + len)
                    ref.resize(static_cast<size_t>(page + len), false);
                for (std::int64_t p = page; p < page + len; ++p) {
                    changed += ref[static_cast<size_t>(p)] ? 0 : 1;
                    ref[static_cast<size_t>(p)] = true;
                }
                members += changed;
                ASSERT_EQ(bits.insertRange(page, len), changed)
                    << "seed " << seed << " op " << op;
            } else {
                for (std::int64_t p = page; p < page + len; ++p) {
                    if (member(p)) {
                        ++changed;
                        ref[static_cast<size_t>(p)] = false;
                    }
                }
                members -= changed;
                ASSERT_EQ(bits.eraseRange(page, len), changed)
                    << "seed " << seed << " op " << op;
            }
            ASSERT_EQ(bits.size(), members) << "op " << op;

            const std::int64_t probe = draw_start(limit + 300);
            const std::int64_t n = draw_len();
            bool hit = false;
            for (std::int64_t p = probe; p < probe + n; ++p)
                hit = hit || member(p);
            ASSERT_EQ(bits.intersects(probe, n), hit)
                << probe << "+" << n;
            const std::int64_t to = probe + 1 + n;
            std::int64_t run_end = probe + 1;
            while (run_end < to && member(run_end) == member(probe))
                ++run_end;
            ASSERT_EQ(bits.runEnd(probe, to), run_end)
                << probe << ".." << to;

            if (op % 100 == 99) {
                for (std::int64_t p = 0; p < limit + 300; ++p)
                    ASSERT_EQ(bits.contains(p), member(p)) << p;
            }
            if (rng.uniformInt(0, 150) == 0) {
                bits.clear();
                std::fill(ref.begin(), ref.end(), false);
                members = 0;
                ASSERT_EQ(bits.size(), 0);
                ASSERT_FALSE(bits.intersects(0, limit + 300));
            }
        }
        EXPECT_GT(members, 0) << "seed " << seed;
    }
    // Erasing from an empty set, or past its storage, removes nothing.
    PageSet empty;
    EXPECT_EQ(empty.eraseRange(0, 1000), 0);
    EXPECT_EQ(empty.runEnd(0, 100), 100);
    PageSet one_word(64);
    one_word.insertRange(0, 64);
    EXPECT_EQ(one_word.eraseRange(60, 1 << 20), 4);
    EXPECT_EQ(one_word.size(), 60);
    EXPECT_EQ(one_word.runEnd(0, 1000), 60);
}

} // namespace
} // namespace vhive
