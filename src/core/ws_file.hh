/**
 * @file
 * REAP's on-disk artifacts (Sec. 5.1): the *trace file* holds the
 * guest-memory file offsets of the recorded working-set pages; the
 * *WS file* holds a compact contiguous copy of those pages so a
 * subsequent cold start can fetch the whole set with one read.
 *
 * The trace codec is a real binary format (magic, version,
 * delta-varint page numbers, CRC32) — the simulator mirrors its
 * content in memory and sizes the simulated files from the encoding.
 */

#ifndef VHIVE_CORE_WS_FILE_HH
#define VHIVE_CORE_WS_FILE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "util/page_set.hh"
#include "util/units.hh"

namespace vhive::core {

/**
 * The recorded working set of one function: guest page numbers in
 * first-fault order (the order REAP writes them into the WS file).
 */
struct WorkingSetRecord
{
    std::vector<std::int64_t> pages;

    /** Number of recorded pages. */
    std::int64_t pageCount() const
    {
        return static_cast<std::int64_t>(pages.size());
    }

    /** Size of the WS file (one 4 KiB page per entry). */
    Bytes wsFileBytes() const { return pageCount() * kPageSize; }

    /**
     * Record entries (duplicates included) missing from @p touched:
     * the prefetched-but-unused "mispredictions" of Sec. 7.1.
     */
    std::int64_t wastedAgainst(const PageSet &touched) const;
};

/** Binary trace-file codec. */
class TraceFileCodec
{
  public:
    /** Serialized size of @p record without building the buffer. */
    static Bytes encodedSize(const WorkingSetRecord &record);

    /** Encode to the on-disk byte layout. */
    static std::vector<std::uint8_t> encode(const WorkingSetRecord &r);

    /**
     * Decode; std::nullopt on corruption (bad magic/version/CRC or
     * truncation).
     */
    static std::optional<WorkingSetRecord>
    decode(const std::vector<std::uint8_t> &bytes);
};

/** CRC32 (IEEE, reflected) over a byte buffer. */
std::uint32_t crc32(const std::uint8_t *data, size_t len);

} // namespace vhive::core

#endif // VHIVE_CORE_WS_FILE_HH
