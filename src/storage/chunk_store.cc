#include "storage/chunk_store.hh"

#include <algorithm>
#include <array>

#include "util/logging.hh"

namespace vhive::storage {

namespace {

constexpr std::array<std::uint8_t, 8> kMagic = {'V', 'H', 'C', 'M',
                                                'N', 'F', 'S', '1'};

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

size_t
varintSize(std::uint64_t v)
{
    size_t n = 1;
    while (v >= 0x80) {
        v >>= 7;
        ++n;
    }
    return n;
}

bool
getVarint(const std::vector<std::uint8_t> &in, size_t &pos,
          std::uint64_t &out)
{
    out = 0;
    int shift = 0;
    while (pos < in.size() && shift < 64) {
        std::uint8_t b = in[pos++];
        out |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return true;
        shift += 7;
    }
    return false;
}

/** CRC32 (IEEE, reflected) — same polynomial as the trace codec. */
std::uint32_t
manifestCrc(const std::uint8_t *data, size_t len)
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = 0xffffffffu;
    for (size_t i = 0; i < len; ++i)
        c = table[(c ^ data[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

} // namespace

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

// ----------------------------------------------------- ManifestCodec

Bytes
ManifestCodec::encodedSize(const ChunkManifest &m)
{
    size_t size = kMagic.size();
    size += varintSize(m.artifact.size()) + m.artifact.size();
    size += varintSize(static_cast<std::uint64_t>(m.chunkBytes));
    size += varintSize(m.chunks.size());
    for (const ChunkRef &c : m.chunks) {
        size += varintSize(c.hash);
        size += varintSize(static_cast<std::uint64_t>(c.rawBytes));
        size += varintSize(static_cast<std::uint64_t>(c.storedBytes));
    }
    size += 4; // crc
    return static_cast<Bytes>(size);
}

std::vector<std::uint8_t>
ManifestCodec::encode(const ChunkManifest &m)
{
    std::vector<std::uint8_t> out;
    out.reserve(static_cast<size_t>(encodedSize(m)));
    for (std::uint8_t b : kMagic)
        out.push_back(b);
    putVarint(out, m.artifact.size());
    for (char ch : m.artifact)
        out.push_back(static_cast<std::uint8_t>(ch));
    putVarint(out, static_cast<std::uint64_t>(m.chunkBytes));
    putVarint(out, m.chunks.size());
    for (const ChunkRef &c : m.chunks) {
        putVarint(out, c.hash);
        putVarint(out, static_cast<std::uint64_t>(c.rawBytes));
        putVarint(out, static_cast<std::uint64_t>(c.storedBytes));
    }
    std::uint32_t crc = manifestCrc(out.data(), out.size());
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    return out;
}

std::optional<ChunkManifest>
ManifestCodec::decode(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < kMagic.size() + 4)
        return std::nullopt;
    if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin()))
        return std::nullopt;

    std::uint32_t stored = 0;
    for (int i = 0; i < 4; ++i)
        stored |= static_cast<std::uint32_t>(
                      bytes[bytes.size() - 4 + static_cast<size_t>(i)])
                  << (8 * i);
    if (manifestCrc(bytes.data(), bytes.size() - 4) != stored)
        return std::nullopt;

    size_t pos = kMagic.size();
    std::uint64_t name_len = 0;
    if (!getVarint(bytes, pos, name_len) ||
        pos + name_len > bytes.size() - 4)
        return std::nullopt;
    ChunkManifest m;
    m.artifact.assign(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                      bytes.begin() +
                          static_cast<std::ptrdiff_t>(pos + name_len));
    pos += name_len;

    std::uint64_t chunk_bytes = 0, count = 0;
    if (!getVarint(bytes, pos, chunk_bytes) ||
        !getVarint(bytes, pos, count))
        return std::nullopt;
    m.chunkBytes = static_cast<Bytes>(chunk_bytes);
    if (m.chunkBytes <= 0)
        return std::nullopt;
    m.chunks.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t hash = 0, raw = 0, comp = 0;
        if (!getVarint(bytes, pos, hash) ||
            !getVarint(bytes, pos, raw) || !getVarint(bytes, pos, comp))
            return std::nullopt;
        ChunkRef ref{hash, static_cast<Bytes>(raw),
                     static_cast<Bytes>(comp)};
        // Sizing invariants: every chunk but the last is exactly the
        // nominal size, none is empty or larger than its raw form
        // claims to fit, and stored bytes are positive.
        if (ref.rawBytes <= 0 || ref.storedBytes <= 0 ||
            ref.rawBytes > m.chunkBytes)
            return std::nullopt;
        if (i + 1 < count && ref.rawBytes != m.chunkBytes)
            return std::nullopt;
        m.chunks.push_back(ref);
    }
    if (pos != bytes.size() - 4)
        return std::nullopt;
    return m;
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
