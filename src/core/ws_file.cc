#include "core/ws_file.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/logging.hh"

namespace vhive::core {

namespace {

constexpr std::array<std::uint8_t, 8> kMagic = {'R', 'E', 'A', 'P',
                                                'T', 'R', 'C', '1'};

/** Zigzag-encode a signed delta so small negatives stay small. */
std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

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

const std::array<std::uint32_t, 256> &
crcTable()
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
    return table;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, size_t len)
{
    const auto &table = crcTable();
    std::uint32_t c = 0xffffffffu;
    for (size_t i = 0; i < len; ++i)
        c = table[(c ^ data[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::int64_t
WorkingSetRecord::wastedAgainst(const PageSet &touched) const
{
    std::int64_t wasted = 0;
    for (std::int64_t p : pages)
        if (!touched.contains(p))
            ++wasted;
    return wasted;
}

Bytes
TraceFileCodec::encodedSize(const WorkingSetRecord &record)
{
    size_t size = kMagic.size();
    size += varintSize(static_cast<std::uint64_t>(record.pages.size()));
    std::int64_t prev = 0;
    for (std::int64_t p : record.pages) {
        size += varintSize(zigzag(p - prev));
        prev = p;
    }
    size += 4; // crc
    return static_cast<Bytes>(size);
}

std::vector<std::uint8_t>
TraceFileCodec::encode(const WorkingSetRecord &record)
{
    std::vector<std::uint8_t> out;
    out.reserve(static_cast<size_t>(encodedSize(record)));
    out.insert(out.end(), kMagic.begin(), kMagic.end());
    putVarint(out, static_cast<std::uint64_t>(record.pages.size()));
    std::int64_t prev = 0;
    for (std::int64_t p : record.pages) {
        putVarint(out, zigzag(p - prev));
        prev = p;
    }
    std::uint32_t crc = crc32(out.data(), out.size());
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    return out;
}

std::optional<WorkingSetRecord>
TraceFileCodec::decode(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < kMagic.size() + 4)
        return std::nullopt;
    if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin()))
        return std::nullopt;

    std::uint32_t stored = 0;
    for (int i = 0; i < 4; ++i)
        stored |= static_cast<std::uint32_t>(bytes[bytes.size() - 4 +
                                                   static_cast<size_t>(
                                                       i)])
                  << (8 * i);
    if (crc32(bytes.data(), bytes.size() - 4) != stored)
        return std::nullopt;

    size_t pos = kMagic.size();
    std::uint64_t count = 0;
    if (!getVarint(bytes, pos, count))
        return std::nullopt;
    WorkingSetRecord record;
    record.pages.reserve(count);
    std::int64_t prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t raw = 0;
        if (!getVarint(bytes, pos, raw))
            return std::nullopt;
        prev += unzigzag(raw);
        if (prev < 0)
            return std::nullopt;
        record.pages.push_back(prev);
    }
    if (pos != bytes.size() - 4)
        return std::nullopt;
    return record;
}

} // namespace vhive::core
