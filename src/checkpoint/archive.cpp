#include "checkpoint/archive.hpp"

#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace stonne {

namespace {

constexpr char kMagic[8] = {'S', 'T', 'N', 'E', 'C', 'K', 'P', 'T'};

/**
 * CRC-32 (reflected polynomial 0xEDB88320) tables for slicing-by-8:
 * row 0 is the bytewise table, and row k advances a byte's CRC through
 * k further zero bytes, so eight rows fold eight input bytes at once.
 */
constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}();

/** Four bytes as a little-endian word, whatever the host's order. */
std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
        static_cast<std::uint32_t>(p[1]) << 8 |
        static_cast<std::uint32_t>(p[2]) << 16 |
        static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    const auto &t = kCrcTables;
    std::uint32_t c = 0xFFFFFFFFu;
    for (; size >= 8; data += 8, size -= 8) {
        const std::uint32_t lo = c ^ loadLe32(data);
        const std::uint32_t hi = loadLe32(data + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// --- ArchiveWriter ------------------------------------------------------

void
ArchiveWriter::putU8(std::uint8_t v)
{
    buf_.push_back(v);
}

void
ArchiveWriter::putU32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
ArchiveWriter::putU64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
ArchiveWriter::putI64(std::int64_t v)
{
    putU64(static_cast<std::uint64_t>(v));
}

void
ArchiveWriter::putDouble(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
ArchiveWriter::putFloat(float v)
{
    std::uint32_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "float must be 32-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    putU32(bits);
}

void
ArchiveWriter::putString(const std::string &s)
{
    putU64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
ArchiveWriter::putCounts(const std::vector<count_t> &v)
{
    putU64(v.size());
    for (count_t x : v)
        putU64(x);
}

void
ArchiveWriter::putIndices(const std::vector<index_t> &v)
{
    putU64(v.size());
    for (index_t x : v)
        putI64(x);
}

void
ArchiveWriter::putFloats(const float *data, std::size_t n)
{
    putU64(n);
    for (std::size_t i = 0; i < n; ++i)
        putFloat(data[i]);
}

void
ArchiveWriter::putFloats(const std::vector<float> &v)
{
    putFloats(v.data(), v.size());
}

void
ArchiveWriter::beginSection(const std::string &name)
{
    putString(name);
    open_sections_.push_back(buf_.size());
    putU64(0); // length, patched by endSection()
}

void
ArchiveWriter::endSection()
{
    if (open_sections_.empty())
        throw CheckpointError("endSection() with no open section");
    const std::size_t at = open_sections_.back();
    open_sections_.pop_back();
    const std::uint64_t len =
        static_cast<std::uint64_t>(buf_.size() - (at + 8));
    for (int i = 0; i < 8; ++i)
        buf_[at + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(len >> (8 * i));
}

void
ArchiveWriter::writeFile(const std::string &path) const
{
    if (!open_sections_.empty())
        throw CheckpointError("writeFile('" + path +
                              "') with an unclosed section");

    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            throw CheckpointError("cannot open '" + tmp +
                                  "' for writing");
        os.write(kMagic, sizeof(kMagic));
        ArchiveWriter frame;
        frame.putU32(kVersion);
        frame.putU64(buf_.size());
        os.write(reinterpret_cast<const char *>(frame.buf_.data()),
                 static_cast<std::streamsize>(frame.buf_.size()));
        if (!buf_.empty())
            os.write(reinterpret_cast<const char *>(buf_.data()),
                     static_cast<std::streamsize>(buf_.size()));
        ArchiveWriter tail;
        tail.putU32(crc32(buf_.data(), buf_.size()));
        os.write(reinterpret_cast<const char *>(tail.buf_.data()),
                 static_cast<std::streamsize>(tail.buf_.size()));
        os.flush();
        if (!os)
            throw CheckpointError("short write to '" + tmp + "'");
    }

    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        throw CheckpointError("cannot rename '" + tmp + "' over '" +
                              path + "': " + ec.message());
}

// --- ArchiveReader ------------------------------------------------------

ArchiveReader::ArchiveReader(const std::string &path) : origin_(path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw CheckpointError("cannot open '" + path + "' for reading");
    std::vector<std::uint8_t> raw(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());

    const std::size_t header = sizeof(kMagic) + 4 + 8;
    if (raw.size() < header + 4)
        throw CheckpointError("'" + path + "' is truncated: " +
                              std::to_string(raw.size()) +
                              " bytes is smaller than the minimal frame");
    if (std::memcmp(raw.data(), kMagic, sizeof(kMagic)) != 0)
        throw CheckpointError("'" + path +
                              "' is not a STONNE checkpoint (bad magic)");

    auto rd_u32 = [&raw](std::size_t at) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(raw[at + i]) << (8 * i);
        return v;
    };
    auto rd_u64 = [&raw](std::size_t at) {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(raw[at + i]) << (8 * i);
        return v;
    };

    const std::uint32_t version = rd_u32(sizeof(kMagic));
    if (version != ArchiveWriter::kVersion)
        throw CheckpointError(
            "'" + path + "' has format version " +
            std::to_string(version) + ", this build reads version " +
            std::to_string(ArchiveWriter::kVersion));

    const std::uint64_t payload_size = rd_u64(sizeof(kMagic) + 4);
    if (raw.size() != header + payload_size + 4)
        throw CheckpointError(
            "'" + path + "' is truncated or padded: header promises " +
            std::to_string(payload_size) + " payload bytes, file holds " +
            std::to_string(raw.size() - header - 4));

    const std::uint32_t stored_crc =
        rd_u32(header + static_cast<std::size_t>(payload_size));
    const std::uint32_t actual_crc =
        crc32(raw.data() + header, static_cast<std::size_t>(payload_size));
    if (stored_crc != actual_crc)
        throw CheckpointError("'" + path + "' payload CRC mismatch: "
                              "the snapshot is corrupted");

    buf_.assign(raw.begin() + static_cast<std::ptrdiff_t>(header),
                raw.end() - 4);
}

ArchiveReader::ArchiveReader(std::vector<std::uint8_t> payload,
                             std::string origin)
    : buf_(std::move(payload)), origin_(std::move(origin))
{
}

void
ArchiveReader::fail(const std::string &msg) const
{
    std::string where = "'" + origin_ + "' at offset " +
                        std::to_string(pos_);
    if (!open_sections_.empty())
        where += " in section '" + open_sections_.back().first + "'";
    throw CheckpointError(where + ": " + msg);
}

void
ArchiveReader::need(std::size_t n, const char *what)
{
    if (pos_ + n > buf_.size())
        fail(std::string("payload ends mid-") + what + " (need " +
             std::to_string(n) + " bytes, " +
             std::to_string(buf_.size() - pos_) + " left)");
}

std::uint8_t
ArchiveReader::getU8()
{
    need(1, "u8");
    return buf_[pos_++];
}

std::uint32_t
ArchiveReader::getU32()
{
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
}

std::uint64_t
ArchiveReader::getU64()
{
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
}

std::int64_t
ArchiveReader::getI64()
{
    return static_cast<std::int64_t>(getU64());
}

double
ArchiveReader::getDouble()
{
    const std::uint64_t bits = getU64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

float
ArchiveReader::getFloat()
{
    const std::uint32_t bits = getU32();
    float v = 0.0f;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
ArchiveReader::getString()
{
    const std::uint64_t n = getU64();
    need(static_cast<std::size_t>(n), "string");
    std::string s(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += static_cast<std::size_t>(n);
    return s;
}

std::vector<count_t>
ArchiveReader::getCounts()
{
    const std::uint64_t n = getU64();
    need(static_cast<std::size_t>(n) * 8, "count vector");
    std::vector<count_t> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = getU64();
    return v;
}

std::vector<index_t>
ArchiveReader::getIndices()
{
    const std::uint64_t n = getU64();
    need(static_cast<std::size_t>(n) * 8, "index vector");
    std::vector<index_t> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = getI64();
    return v;
}

std::vector<float>
ArchiveReader::getFloats()
{
    const std::uint64_t n = getU64();
    need(static_cast<std::size_t>(n) * 4, "float vector");
    std::vector<float> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = getFloat();
    return v;
}

void
ArchiveReader::enterSection(const std::string &name)
{
    const std::string found = getString();
    if (found != name)
        fail("expected section '" + name + "', found '" + found + "'");
    const std::uint64_t len = getU64();
    need(static_cast<std::size_t>(len), "section");
    open_sections_.emplace_back(name,
                                pos_ + static_cast<std::size_t>(len));
}

void
ArchiveReader::leaveSection()
{
    if (open_sections_.empty())
        fail("leaveSection() with no open section");
    const auto [name, end] = open_sections_.back();
    if (pos_ != end)
        fail("section '" + name + "' size mismatch: " +
             (pos_ < end ? std::to_string(end - pos_) + " bytes unread"
                         : "read past its end"));
    open_sections_.pop_back();
}

void
ArchiveReader::abandonSection()
{
    if (open_sections_.empty())
        fail("abandonSection() with no open section");
    pos_ = open_sections_.back().second;
    open_sections_.pop_back();
}

} // namespace stonne
