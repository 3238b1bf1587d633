/**
 * @file
 * Dense set of page numbers: one bit per page, grown on insert.
 *
 * Trace synthesis, per-cold-start working-set accounting, guest page
 * presence and the host page cache test and mark pages by the
 * thousand on every invocation. Pages are small dense integers (a 256
 * MiB VM has 65536), so a bitmap answers membership with one load and
 * marks or scans a contiguous run a word at a time, where an ordered
 * tree or a sorted vector pays a node allocation or a binary search
 * per page. A set that is never inserted into holds no storage.
 */

#ifndef VHIVE_UTIL_PAGE_SET_HH
#define VHIVE_UTIL_PAGE_SET_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace vhive {

class PageSet
{
  public:
    PageSet() = default;

    /** Empty set pre-sized for pages [0, @p pages); grows past it. */
    explicit PageSet(std::int64_t pages) { reserve(pages); }

    /** Whether page @p p is a member (false for pages never grown to). */
    bool
    contains(std::int64_t p) const
    {
        VHIVE_ASSERT(p >= 0);
        size_t w = wordOf(p);
        return w < words.size() && (words[w] >> bitOf(p)) & 1;
    }

    /** Whether any page of [@p page, @p page + @p n) is a member. */
    bool
    intersects(std::int64_t page, std::int64_t n) const
    {
        VHIVE_ASSERT(page >= 0 && n >= 0);
        std::int64_t end =
            std::min(page + n, static_cast<std::int64_t>(words.size()) *
                                   kWordBits);
        for (std::int64_t p = page; p < end;) {
            std::int64_t stop = std::min(end, (p | (kWordBits - 1)) + 1);
            if (words[wordOf(p)] & maskOf(p, stop))
                return true;
            p = stop;
        }
        return false;
    }

    /** Add page @p p; true when it was not yet a member. */
    bool insert(std::int64_t p) { return insertRange(p, 1) == 1; }

    /**
     * Add pages [@p page, @p page + @p n); returns how many of them
     * were not yet members.
     */
    std::int64_t
    insertRange(std::int64_t page, std::int64_t n)
    {
        VHIVE_ASSERT(page >= 0 && n >= 0);
        const std::int64_t end = page + n;
        reserve(end);
        std::int64_t added = 0;
        for (std::int64_t p = page; p < end;) {
            std::int64_t stop = std::min(end, (p | (kWordBits - 1)) + 1);
            std::uint64_t mask = maskOf(p, stop);
            std::uint64_t &w = words[wordOf(p)];
            // Runs mostly land on all-new or all-old pages: count those
            // without a popcount, a library call on baseline x86-64.
            std::uint64_t fresh = mask & ~w;
            added += fresh == mask ? stop - p
                     : fresh == 0  ? 0
                                   : std::popcount(fresh);
            w |= mask;
            p = stop;
        }
        members += added;
        return added;
    }

    /**
     * Remove pages [@p page, @p page + @p n); returns how many of them
     * were members. Pages past the storage are non-members already, so
     * erasing never grows it.
     */
    std::int64_t
    eraseRange(std::int64_t page, std::int64_t n)
    {
        VHIVE_ASSERT(page >= 0 && n >= 0);
        const std::int64_t end =
            std::min(page + n, static_cast<std::int64_t>(words.size()) *
                                   kWordBits);
        std::int64_t removed = 0;
        for (std::int64_t p = page; p < end;) {
            std::int64_t stop = std::min(end, (p | (kWordBits - 1)) + 1);
            std::uint64_t &w = words[wordOf(p)];
            std::uint64_t gone = w & maskOf(p, stop);
            removed += std::popcount(gone);
            w &= ~gone;
            p = stop;
        }
        members -= removed;
        return removed;
    }

    /**
     * End of the run of equal membership that starts at @p page: the
     * first page in (@p page, @p limit) whose membership differs from
     * @p page's, else @p limit. Scans a word at a time.
     */
    std::int64_t
    runEnd(std::int64_t page, std::int64_t limit) const
    {
        VHIVE_ASSERT(page >= 0 && page < limit);
        const bool member = contains(page);
        const std::int64_t stored =
            static_cast<std::int64_t>(words.size()) * kWordBits;
        for (std::int64_t p = page; p < std::min(limit, stored);) {
            std::uint64_t rest = words[wordOf(p)] >> bitOf(p);
            std::int64_t avail = kWordBits - bitOf(p);
            std::int64_t same = member ? std::countr_one(rest)
                                       : std::countr_zero(rest);
            if (same < avail)
                return std::min(limit, p + same);
            p += avail;
        }
        // Pages past the storage are non-members.
        return member ? std::min(limit, stored) : limit;
    }

    /** Remove every page; keeps the storage. */
    void
    clear()
    {
        std::fill(words.begin(), words.end(), 0);
        members = 0;
    }

    /** Number of member pages. */
    std::int64_t size() const { return members; }

  private:
    static constexpr std::int64_t kWordBits = 64;

    static size_t wordOf(std::int64_t p)
    {
        return static_cast<size_t>(p / kWordBits);
    }

    static unsigned bitOf(std::int64_t p)
    {
        return static_cast<unsigned>(p % kWordBits);
    }

    /** Bits of pages [p, stop) within p's word; stop <= word end. */
    static std::uint64_t
    maskOf(std::int64_t p, std::int64_t stop)
    {
        std::int64_t len = stop - p;
        std::uint64_t run =
            len == kWordBits ? ~0ull : (1ull << len) - 1;
        return run << bitOf(p);
    }

    /** Grow (doubling) so pages [0, @p pages) have storage. */
    void
    reserve(std::int64_t pages)
    {
        size_t need = static_cast<size_t>(
            (pages + kWordBits - 1) / kWordBits);
        if (need > words.size())
            words.resize(std::max(need, 2 * words.size()), 0);
    }

    std::vector<std::uint64_t> words;
    std::int64_t members = 0;
};

} // namespace vhive

#endif // VHIVE_UTIL_PAGE_SET_HH
