#include "vmm/snapshot.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/rng.hh"

namespace vhive::vmm {

namespace {

/** Uniform double in [0, 1) from a hash. */
double
unit(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/**
 * Deterministic per-chunk compressed size. Must be a pure function of
 * (hash, rawBytes, model): equal content hashes must always price to
 * the same stored size, or the ChunkStore's identity invariant breaks.
 */
Bytes
storedSize(std::uint64_t hash, Bytes raw, const ChunkingModel &model)
{
    if (!model.compression)
        return raw;
    // Content entropy varies chunk to chunk: +-15% around the mean.
    double ratio = model.compressRatio +
                   0.3 * (unit(mix64(hash ^ 0xc0dec0deULL)) - 0.5) *
                       model.compressRatio;
    ratio = std::clamp(ratio, 0.05, 1.0);
    return std::max<Bytes>(
        1, static_cast<Bytes>(std::llround(
               static_cast<double>(raw) * ratio)));
}

/** Tag bits keeping shared-pool and unique hash spaces disjoint. */
constexpr std::uint64_t kSharedTag = 1ULL << 63;

} // namespace

storage::ChunkManifest
chunkArtifact(const std::string &artifact, Bytes raw_bytes,
              const ChunkingModel &model)
{
    VHIVE_ASSERT(model.chunkBytes > 0 && raw_bytes > 0);
    VHIVE_ASSERT(model.crossFunctionDupRatio >= 0.0 &&
                 model.crossFunctionDupRatio <= 1.0);
    VHIVE_ASSERT(model.sharedPoolBytes > 0);
    std::int64_t pool_chunks = std::max<std::int64_t>(
        1, model.sharedPoolBytes / model.chunkBytes);

    storage::ChunkManifest m;
    m.chunkBytes = model.chunkBytes;
    std::int64_t count =
        (raw_bytes + model.chunkBytes - 1) / model.chunkBytes;
    m.chunks.reserve(static_cast<size_t>(count));

    std::uint64_t seed = hashName(artifact);
    for (std::int64_t i = 0; i < count; ++i) {
        Bytes raw = std::min<Bytes>(model.chunkBytes,
                                    raw_bytes - i * model.chunkBytes);
        std::uint64_t draw =
            mix64(seed ^ mix64(static_cast<std::uint64_t>(i)));
        bool shared = raw == model.chunkBytes &&
                      unit(draw) < model.crossFunctionDupRatio;
        std::uint64_t hash;
        if (shared) {
            // Which runtime page run this chunk duplicates. Draws are
            // quadratically skewed toward the pool head — the hot
            // kernel/runtime pages every function touches — so
            // distinct functions overlap heavily. The hash depends
            // only on (pool id, chunk size), never on the artifact,
            // so every function's manifest that draws the same pool
            // entry emits the identical ChunkRef.
            double u = unit(mix64(draw));
            std::uint64_t pool_id = static_cast<std::uint64_t>(
                u * u * static_cast<double>(pool_chunks));
            if (pool_id >= static_cast<std::uint64_t>(pool_chunks))
                pool_id = static_cast<std::uint64_t>(pool_chunks) - 1;
            hash = (mix64(0x5eedc0deULL ^ pool_id ^
                          static_cast<std::uint64_t>(
                              model.chunkBytes)) |
                    kSharedTag);
        } else {
            hash = mix64(draw ^ 0xa11c0a7ULL) & ~kSharedTag;
            // Delta re-record churn: a unique chunk's content identity
            // is set by the *last* version that rewrote it, so two
            // consecutive versions share exactly the chunks no
            // intervening re-record touched. The loop is empty for
            // version <= 1 — bit-identical to the unversioned model.
            std::uint64_t salt = 0;
            for (std::int64_t v = 2; v <= model.recordVersion; ++v) {
                std::uint64_t ev = mix64(
                    draw ^ mix64(static_cast<std::uint64_t>(v)) ^
                    0xde17a5ULL);
                if (unit(ev) < model.rerecordChurn)
                    salt = ev;
            }
            if (salt != 0)
                hash = mix64(hash ^ salt) & ~kSharedTag;
        }
        m.chunks.push_back(storage::ChunkRef{
            hash, raw, storedSize(hash, raw, model)});
    }
    return m;
}

SnapshotManifests
buildSnapshotManifests(const std::string &function,
                       Bytes vmm_state_bytes, Bytes ws_bytes,
                       const ChunkingModel &model)
{
    SnapshotManifests out;
    out.vmmState =
        chunkArtifact(function + "/vmm_state", vmm_state_bytes, model);
    out.ws = chunkArtifact(function + "/ws", ws_bytes, model);
    return out;
}

} // namespace vhive::vmm
