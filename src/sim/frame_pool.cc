#include "sim/frame_pool.hh"

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
};

constexpr std::size_t kClasses =
    FramePool::kMaxPooled / FramePool::kGranule;

struct Arena {
    FreeBlock *freeLists[kClasses] = {};
    // Slab base pointers: keeps every slab reachable for
    // LeakSanitizer (free-list chains are interior pointers once
    // block 0 is handed out).
    std::vector<void *> slabs;
    FramePool::Stats stats;
};

/** Every arena ever created, guarded by its own mutex. */
struct ArenaList {
    std::mutex mu;
    std::vector<Arena *> arenas;
};

Arena *
newArena()
{
    // Never freed, and reachable from this static for the life of the
    // process: a pool thread's arena stays listed after the thread
    // exits, so LeakSanitizer sees it (and its slabs) as live.
    static ArenaList *list = new ArenaList;
    auto *a = new Arena;
    std::lock_guard<std::mutex> lock(list->mu);
    list->arenas.push_back(a);
    return a;
}

Arena &
arena()
{
    // Never freed: a frame allocated here may be released during
    // static or thread-local teardown in any order, so the arena must
    // outlive every frame. One arena per thread; the OS reclaims them
    // at process exit.
    static thread_local Arena *a = newArena();
    return *a;
}

constexpr std::size_t
classOf(std::size_t n)
{
    return (n + FramePool::kGranule - 1) / FramePool::kGranule - 1;
}

} // namespace

void *
FramePool::allocate(std::size_t n)
{
    if (n == 0)
        n = 1;
    Arena &a = arena();
    if (VHIVE_FRAME_POOL_BYPASS || n > kMaxPooled) {
        ++a.stats.oversized;
        return ::operator new(n);
    }
    std::size_t cls = classOf(n);
    FreeBlock *&head = a.freeLists[cls];
    if (!head) {
        std::size_t block = (cls + 1) * kGranule;
        std::size_t blocks = kSlabBytes / block;
        char *slab = static_cast<char *>(::operator new(blocks * block));
        a.slabs.push_back(slab);
        for (std::size_t i = blocks; i-- > 0;) {
            auto *b = reinterpret_cast<FreeBlock *>(slab + i * block);
            b->next = head;
            head = b;
        }
        ++a.stats.slabCarves;
        a.stats.slabBytes += blocks * block;
        a.stats.carvedBlocks += blocks;
    }
    FreeBlock *b = head;
    head = b->next;
    ++a.stats.poolAllocs;
    return b;
}

void
FramePool::deallocate(void *p, std::size_t n) noexcept
{
    if (!p)
        return;
    if (n == 0)
        n = 1;
    Arena &a = arena();
    if (VHIVE_FRAME_POOL_BYPASS || n > kMaxPooled) {
        ::operator delete(p);
        return;
    }
    std::size_t cls = classOf(n);
    auto *b = static_cast<FreeBlock *>(p);
    b->next = a.freeLists[cls];
    a.freeLists[cls] = b;
    ++a.stats.poolFrees;
}

FramePool::Stats
FramePool::stats()
{
    return arena().stats;
}

bool
FramePool::pooling()
{
    return !VHIVE_FRAME_POOL_BYPASS;
}

std::int64_t
FramePool::liveFrames()
{
    const Stats &s = arena().stats;
    return static_cast<std::int64_t>(s.poolAllocs) -
           static_cast<std::int64_t>(s.poolFrees);
}

} // namespace vhive::sim
