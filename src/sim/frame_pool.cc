#include "sim/frame_pool.hh"

#include <array>
#include <mutex>
#include <new>
#include <vector>

// Recycling frames through free lists would mask use-after-free on
// stale coroutine handles (the freed block goes straight to the next
// spawn instead of staying poisoned), so under AddressSanitizer every
// frame bypasses the pool and takes the instrumented system heap.
#if defined(__SANITIZE_ADDRESS__)
#define VHIVE_FRAME_POOL_BYPASS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VHIVE_FRAME_POOL_BYPASS 1
#endif
#endif
#ifndef VHIVE_FRAME_POOL_BYPASS
#define VHIVE_FRAME_POOL_BYPASS 0
#endif

namespace vhive::sim {

namespace {

struct FreeBlock {
    FreeBlock *next;
    /** In the head block of a depot batch: the next full batch. */
    FreeBlock *nextBatch;
};
static_assert(sizeof(FreeBlock) <= FramePool::kGranule);

constexpr std::size_t kClasses =
    FramePool::kMaxPooled / FramePool::kGranule;

constexpr std::size_t
blockBytes(std::size_t cls)
{
    return (cls + 1) * FramePool::kGranule;
}

/** Blocks per slab of each class: the size of one full batch. */
constexpr std::array<std::uint32_t, kClasses> kBatch = [] {
    std::array<std::uint32_t, kClasses> b{};
    for (std::size_t c = 0; c < kClasses; ++c)
        b[c] = static_cast<std::uint32_t>(FramePool::kSlabBytes /
                                          blockBytes(c));
    return b;
}();

constexpr std::size_t
classOf(std::size_t n)
{
    return (n + FramePool::kGranule - 1) / FramePool::kGranule - 1;
}

/** A LIFO chain of free blocks of one class, with its length. */
struct FreeList {
    FreeBlock *head = nullptr;
    std::uint32_t count = 0;

    void
    push(FreeBlock *b)
    {
        b->next = head;
        head = b;
        ++count;
    }

    FreeBlock *
    pop()
    {
        FreeBlock *b = head;
        head = b->next;
        --count;
        return b;
    }
};

/**
 * Process-wide owner of every slab and of the free blocks no thread
 * caches. Threads trade whole batches with it under its mutex.
 */
struct Depot {
    std::mutex mu;
    struct Class {
        /** Full batches of kBatch[cls] blocks, chained by nextBatch. */
        FreeBlock *full = nullptr;
        FreeList loose; ///< one partial batch

        void
        pushFull(FreeList list)
        {
            list.head->nextBatch = full;
            full = list.head;
        }

        FreeList
        popFull(std::size_t cls)
        {
            FreeList list{full, kBatch[cls]};
            full = full->nextBatch;
            return list;
        }
    };
    std::array<Class, kClasses> classes;
    // Slab base pointers: keeps every slab reachable for
    // LeakSanitizer (free-list chains are interior pointers once
    // block 0 is handed out).
    std::vector<void *> slabs;
    std::uint64_t slabBytes = 0;

    /** Carves a fresh slab of class @p cls into one full batch. */
    FreeList
    carve(std::size_t cls, FramePool::Stats &st)
    {
        std::size_t block = blockBytes(cls);
        std::uint32_t blocks = kBatch[cls];
        char *slab = static_cast<char *>(::operator new(blocks * block));
        slabs.push_back(slab);
        slabBytes += blocks * block;
        FreeList list;
        for (std::size_t i = blocks; i-- > 0;)
            list.push(reinterpret_cast<FreeBlock *>(slab + i * block));
        st.slabBytes += blocks * block;
        st.carvedBlocks += blocks;
        return list;
    }

    /** One batch for a cache that ran dry: full, else partial, else new. */
    FreeList
    take(std::size_t cls, FramePool::Stats &st)
    {
        std::lock_guard<std::mutex> lock(mu);
        return takeLocked(cls, st);
    }

    FreeList
    takeLocked(std::size_t cls, FramePool::Stats &st)
    {
        Class &c = classes[cls];
        if (c.full)
            return c.popFull(cls);
        if (c.loose.head) {
            FreeList list = c.loose;
            c.loose = {};
            return list;
        }
        return carve(cls, st);
    }

    /** Takes back a batch of @p cls, splicing a partial one into loose. */
    void
    give(std::size_t cls, FreeList list)
    {
        if (!list.head)
            return;
        std::lock_guard<std::mutex> lock(mu);
        Class &c = classes[cls];
        if (list.count == kBatch[cls]) {
            c.pushFull(list);
            return;
        }
        while (list.head) {
            c.loose.push(list.pop());
            if (c.loose.count == kBatch[cls]) {
                c.pushFull(c.loose);
                c.loose = {};
            }
        }
    }

    /** One block, for a thread whose cache is gone (teardown). */
    FreeBlock *
    takeOne(std::size_t cls, FramePool::Stats &st)
    {
        std::lock_guard<std::mutex> lock(mu);
        Class &c = classes[cls];
        if (!c.loose.head)
            c.loose = takeLocked(cls, st);
        return c.loose.pop();
    }
};

Depot &
depot()
{
    // Never freed, and reachable from this static for the life of the
    // process: a frame may be released during static or thread-local
    // teardown in any order, so the depot must outlive every frame,
    // and LeakSanitizer sees every slab as live. The OS reclaims the
    // slabs at process exit.
    static Depot *d = new Depot;
    return *d;
}

/**
 * A thread's free blocks: per class, the list allocations pop from
 * and at most one full spare batch. Holds at most two batches per
 * class; the rest of a thread's frees go back to the depot, where
 * any thread can reuse them.
 */
struct Cache {
    struct Class {
        FreeList cur;
        FreeList spare; ///< empty or one full batch
    };
    std::array<Class, kClasses> classes;

    ~Cache();
};

// Trivially destructible, so readable during any teardown order.
thread_local Cache *tlsCache = nullptr;
thread_local bool tlsCacheGone = false;
thread_local FramePool::Stats tlsStats;

Cache::~Cache()
{
    // Every block goes to the depot before the thread's storage does;
    // frames this thread frees after this point bypass the cache.
    tlsCache = nullptr;
    tlsCacheGone = true;
    Depot &d = depot();
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
        d.give(cls, classes[cls].spare);
        d.give(cls, classes[cls].cur);
    }
}

/** The calling thread's cache; null once the thread tears it down. */
Cache *
cache()
{
    if (Cache *c = tlsCache)
        return c;
    if (tlsCacheGone)
        return nullptr;
    static thread_local Cache own;
    tlsCache = &own;
    return &own;
}

} // namespace

void *
FramePool::allocate(std::size_t n)
{
    if (n == 0)
        n = 1;
    if (VHIVE_FRAME_POOL_BYPASS || n > kMaxPooled)
        return ::operator new(n);
    std::size_t cls = classOf(n);
    Cache *c = cache();
    FreeBlock *b;
    if (!c) {
        b = depot().takeOne(cls, tlsStats);
    } else {
        Cache::Class &cc = c->classes[cls];
        if (!cc.cur.head) {
            if (cc.spare.head) {
                cc.cur = cc.spare;
                cc.spare = {};
            } else {
                cc.cur = depot().take(cls, tlsStats);
            }
        }
        b = cc.cur.pop();
    }
    ++tlsStats.poolAllocs;
    return b;
}

void
FramePool::deallocate(void *p, std::size_t n) noexcept
{
    if (!p)
        return;
    if (n == 0)
        n = 1;
    if (VHIVE_FRAME_POOL_BYPASS || n > kMaxPooled) {
        ::operator delete(p);
        return;
    }
    std::size_t cls = classOf(n);
    auto *b = static_cast<FreeBlock *>(p);
    ++tlsStats.poolFrees;
    Cache *c = cache();
    if (!c) {
        FreeList one;
        one.push(b);
        depot().give(cls, one);
        return;
    }
    Cache::Class &cc = c->classes[cls];
    if (cc.cur.count == kBatch[cls]) {
        // The full list becomes the spare; a full spare it replaces
        // goes to the depot.
        depot().give(cls, cc.spare);
        cc.spare = cc.cur;
        cc.cur = {};
    }
    cc.cur.push(b);
}

FramePool::Stats
FramePool::stats()
{
    return tlsStats;
}

std::uint64_t
FramePool::processSlabBytes()
{
    Depot &d = depot();
    std::lock_guard<std::mutex> lock(d.mu);
    return d.slabBytes;
}

bool
FramePool::pooling()
{
    return !VHIVE_FRAME_POOL_BYPASS;
}

std::int64_t
FramePool::liveFrames()
{
    return static_cast<std::int64_t>(tlsStats.poolAllocs) -
           static_cast<std::int64_t>(tlsStats.poolFrees);
}

} // namespace vhive::sim
