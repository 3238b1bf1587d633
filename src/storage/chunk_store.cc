#include "storage/chunk_store.hh"

#include <algorithm>

#include "util/logging.hh"

namespace vhive::storage {

// ----------------------------------------------------- ChunkManifest

Bytes
ChunkManifest::rawBytes() const
{
    Bytes total = 0;
    for (const ChunkRef &c : chunks)
        total += c.rawBytes;
    return total;
}

Bytes
ChunkManifest::storedBytes() const
{
    Bytes total = 0;
    for (const ChunkRef &c : chunks)
        total += c.storedBytes;
    return total;
}

std::pair<size_t, size_t>
ChunkManifest::chunkSpan(Bytes offset, Bytes len) const
{
    VHIVE_ASSERT(chunkBytes > 0 && !chunks.empty());
    VHIVE_ASSERT(offset >= 0 && len > 0);
    VHIVE_ASSERT(offset + len <= rawBytes());
    size_t first = static_cast<size_t>(offset / chunkBytes);
    size_t last = static_cast<size_t>((offset + len - 1) / chunkBytes);
    VHIVE_ASSERT(last < chunks.size());
    return {first, last};
}

// --------------------------------------------------------- ChunkStore

bool
ChunkStore::contains(ChunkHash hash) const
{
    return chunks.find(hash) != chunks.end();
}

void
ChunkStore::setBudget(Bytes budget, EvictionPolicyKind kind,
                      bool refcount_protected)
{
    VHIVE_ASSERT(budget >= 0);
    _budget = budget;
    refcountProtected = refcount_protected;
    policy = budget > 0 ? &evictionPolicyFor(kind) : nullptr;
}

void
ChunkStore::erase(std::unordered_map<ChunkHash, Slot>::iterator it)
{
    _storedBytes -= it->second.storedBytes;
    _rawBytes -= it->second.rawBytes;
    chunks.erase(it);
}

bool
ChunkStore::addRef(const ChunkRef &ref, Time now)
{
    VHIVE_ASSERT(ref.rawBytes > 0 && ref.storedBytes > 0);
    _stats.logicalRawBytes += ref.rawBytes;
    auto it = chunks.find(ref.hash);
    if (it != chunks.end()) {
        // Content identity implies size identity: equal hashes must
        // describe the same bytes.
        VHIVE_ASSERT(it->second.rawBytes == ref.rawBytes &&
                     it->second.storedBytes == ref.storedBytes);
        ++it->second.refs;
        it->second.lruSeq = ++lruCounter;
        ++_stats.dedupHits;
        _stats.dedupSavedBytes += ref.storedBytes;
        return false;
    }
    Slot slot{ref.rawBytes, ref.storedBytes, 1};
    slot.lruSeq = ++lruCounter;
    auto ins = chunks.emplace(ref.hash, slot).first;
    _storedBytes += ref.storedBytes;
    _rawBytes += ref.rawBytes;
    ++_stats.inserts;
    _stats.peakStoredBytes =
        std::max(_stats.peakStoredBytes, _storedBytes);
    _stats.peakRawBytes = std::max(_stats.peakRawBytes, _rawBytes);
    // The admission itself must never evict the chunk being admitted
    // (the caller is about to use it); shield it for the enforcement.
    ++ins->second.pins;
    enforceBudget(now);
    --ins->second.pins;
    return true;
}

bool
ChunkStore::release(ChunkHash hash)
{
    auto it = chunks.find(hash);
    if (it == chunks.end())
        return false;
    VHIVE_ASSERT(it->second.refs > 0);
    if (--it->second.refs > 0)
        return false;
    if (_budget > 0 && refcountProtected) {
        // Budgeted staged index: the last reference dropping makes
        // the chunk *evictable*, not gone — a later re-stage of the
        // same content is a dedup hit instead of an upload, and the
        // budget decides when the bytes are actually reclaimed.
        return false;
    }
    erase(it);
    ++_stats.evictions;
    return true;
}

void
ChunkStore::touch(ChunkHash hash)
{
    auto it = chunks.find(hash);
    if (it == chunks.end())
        return;
    ++it->second.uses;
    it->second.lruSeq = ++lruCounter;
}

void
ChunkStore::pin(ChunkHash hash)
{
    auto it = chunks.find(hash);
    if (it != chunks.end())
        ++it->second.pins;
}

void
ChunkStore::unpin(ChunkHash hash)
{
    auto it = chunks.find(hash);
    if (it == chunks.end())
        return;
    VHIVE_ASSERT(it->second.pins > 0);
    --it->second.pins;
}

std::int64_t
ChunkStore::pinCount(ChunkHash hash) const
{
    auto it = chunks.find(hash);
    return it == chunks.end() ? 0 : it->second.pins;
}

void
ChunkStore::pinUntil(ChunkHash hash, Time until)
{
    auto it = chunks.find(hash);
    if (it != chunks.end())
        it->second.pinnedUntil =
            std::max(it->second.pinnedUntil, until);
}

void
ChunkStore::enforceBudget(Time now)
{
    if (_budget <= 0 || _storedBytes <= _budget)
        return;
    // Snapshot the evictable set once (pins cannot change mid-call —
    // nothing here suspends) and let the policy pick victims from the
    // shrinking list until the cap holds or nothing is reclaimable.
    // Policies are deterministic argmins with full tie-breaks, so the
    // map's iteration order never leaks into victim choice.
    std::vector<EvictionCandidate> cands;
    cands.reserve(chunks.size());
    for (const auto &[hash, slot] : chunks) {
        if (slot.pins > 0)
            continue;
        if (refcountProtected && slot.refs > 0)
            continue;
        EvictionCandidate c;
        c.key = hash;
        c.bytes = slot.storedBytes;
        c.lruSeq = slot.lruSeq;
        c.shares = slot.refs + slot.uses;
        c.pinnedUntil = slot.pinnedUntil;
        cands.push_back(c);
    }
    while (_storedBytes > _budget && !cands.empty()) {
        std::ptrdiff_t v = policy->pickVictim(cands, now);
        VHIVE_ASSERT(v >= 0);
        auto vi = static_cast<std::size_t>(v);
        auto it = chunks.find(cands[vi].key);
        VHIVE_ASSERT(it != chunks.end());
        ++_stats.budgetEvictions;
        _stats.budgetEvictedBytes += it->second.storedBytes;
        erase(it);
        cands[vi] = cands.back();
        cands.pop_back();
    }
}

std::int64_t
ChunkStore::refCount(ChunkHash hash) const
{
    auto it = chunks.find(hash);
    return it == chunks.end() ? 0 : it->second.refs;
}

void
ChunkStore::orphan(ChunkHash hash)
{
    auto it = chunks.find(hash);
    if (it != chunks.end())
        it->second.orphaned = true;
}

bool
ChunkStore::claimOrphan(ChunkHash hash)
{
    auto it = chunks.find(hash);
    if (it == chunks.end() || !it->second.orphaned)
        return false;
    it->second.orphaned = false;
    return true;
}

std::int64_t
ChunkStore::residentChunks(const ChunkManifest &m) const
{
    std::int64_t n = 0;
    for (const ChunkRef &c : m.chunks)
        n += contains(c.hash) ? 1 : 0;
    return n;
}

double
ChunkStore::residentFraction(const ChunkManifest &m) const
{
    if (m.chunks.empty())
        return 0.0;
    return static_cast<double>(residentChunks(m)) /
           static_cast<double>(m.chunkCount());
}

Bytes
ChunkStore::addManifest(const ChunkManifest &m)
{
    Bytes uploaded = 0;
    for (const ChunkRef &c : m.chunks)
        if (addRef(c))
            uploaded += c.storedBytes;
    return uploaded;
}

void
ChunkStore::releaseManifest(const ChunkManifest &m)
{
    for (const ChunkRef &c : m.chunks)
        release(c.hash);
}

} // namespace vhive::storage
