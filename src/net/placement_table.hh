/**
 * @file
 * Content hash -> shard table for chunk placements.
 *
 * The fleet store and every parallel-fleet worker each keep one, filled
 * with tens of thousands of chunk placements per run and never erased
 * from: a placement is decided once (the first store wins) and is only
 * read after that. A flat power-of-two array with linear probing
 * inserts and finds with one multiply and a probe or two in one cache
 * line, and grows by rehashing into a doubled array; a node-based map
 * pays an allocation per entry and a pointer chase per lookup.
 */

#ifndef VHIVE_NET_PLACEMENT_TABLE_HH
#define VHIVE_NET_PLACEMENT_TABLE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace vhive::net {

class PlacementTable
{
  public:
    /** Shard recorded for @p content, or -1 when it has none. */
    int
    find(std::uint64_t content) const
    {
        if (slots.empty())
            return -1;
        for (std::size_t i = indexOf(content);; i = (i + 1) & mask()) {
            const Slot &s = slots[i];
            if (s.shard < 0 || s.content == content)
                return s.shard;
        }
    }

    /**
     * Record @p content -> @p shard unless @p content already has a
     * shard (insert-if-absent: the first value wins). True when the
     * entry was added.
     */
    bool
    insert(std::uint64_t content, int shard)
    {
        VHIVE_ASSERT(shard >= 0);
        reserve(count + 1);
        for (std::size_t i = indexOf(content);; i = (i + 1) & mask()) {
            Slot &s = slots[i];
            if (s.shard < 0) {
                s = Slot{content, shard};
                ++count;
                return true;
            }
            if (s.content == content)
                return false;
        }
    }

    /** Size the table for @p entries without further growth. */
    void
    reserve(std::size_t entries)
    {
        std::size_t cap = slots.empty() ? kMinSlots : slots.size();
        while (entries * 4 > cap * 3)
            cap *= 2;
        if (cap != slots.size())
            rehash(cap);
    }

    /** Entries recorded. */
    std::size_t size() const { return count; }

  private:
    struct Slot {
        std::uint64_t content = 0;
        int shard = -1; ///< -1 marks an empty slot
    };

    static constexpr std::size_t kMinSlots = 16;

    std::size_t mask() const { return slots.size() - 1; }

    /** Fibonacci hashing: the top bits of content * 2^64/phi. */
    std::size_t
    indexOf(std::uint64_t content) const
    {
        return static_cast<std::size_t>(
            (content * 0x9e3779b97f4a7c15ull) >> shift);
    }

    void
    rehash(std::size_t cap)
    {
        std::vector<Slot> old(cap);
        old.swap(slots);
        shift = 64 - static_cast<unsigned>(std::countr_zero(cap));
        for (const Slot &s : old) {
            if (s.shard < 0)
                continue;
            std::size_t i = indexOf(s.content);
            while (slots[i].shard >= 0)
                i = (i + 1) & mask();
            slots[i] = s;
        }
    }

    std::vector<Slot> slots;
    unsigned shift = 64;
    std::size_t count = 0;
};

} // namespace vhive::net

#endif // VHIVE_NET_PLACEMENT_TABLE_HH
