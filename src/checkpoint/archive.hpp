/**
 * @file
 * Versioned, CRC-guarded binary archive for simulation checkpoints.
 *
 * A checkpoint file is a single framed payload:
 *
 *   magic "STNECKPT" (8 bytes)
 *   u32 format version
 *   u64 payload size in bytes
 *   payload
 *   u32 CRC-32 of the payload
 *
 * The payload is a flat sequence of little-endian primitives grouped
 * into named, length-prefixed *sections* (one per checkpointable unit),
 * so a reader can verify it is consuming exactly the state the writer
 * produced: a section-name mismatch, a section over/under-read, a
 * truncated file and a corrupted payload all fail with a CheckpointError
 * naming the file, offset and section instead of silently misparsing.
 *
 * Writers accumulate the payload in memory and publish it atomically:
 * writeFile() writes `<path>.tmp` and renames it over `path`, so a crash
 * mid-checkpoint never corrupts the last good snapshot.
 */

#ifndef STONNE_CHECKPOINT_ARCHIVE_HPP
#define STONNE_CHECKPOINT_ARCHIVE_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace stonne {

/** Thrown on any checkpoint save/load failure (I/O, format, mismatch). */
class CheckpointError : public std::runtime_error
{
  public:
    explicit CheckpointError(const std::string &msg)
        : std::runtime_error("checkpoint: " + msg)
    {
    }
};

/** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a byte range. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

/** Serializes typed primitives into a framed checkpoint payload. */
class ArchiveWriter
{
  public:
    /** Archive format version emitted by this writer. Version 2 added
     *  the accelerator's "engine" section (event-engine wakeup
     *  bookkeeping); version 3 added the multi-core run's quarantine
     *  cursor (layers_done / migrations / benched set) and the per-core
     *  section liveness flag; version 4 dropped the per-span counter
     *  deltas of trace events (only fast-forward spans carried them);
     *  version 5 added the in-flight pipeline stage's clock to the
     *  model run's cursor; version 6 dropped the search summary from
     *  every simulation result and stores a tuned layer's report as
     *  text on its model-run record; version 7 dropped the "engine"
     *  section and the tree DN's range list. Older archives are
     *  rejected with a version diagnostic rather than misparsed. */
    static constexpr std::uint32_t kVersion = 7;

    void putU8(std::uint8_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putI64(std::int64_t v);
    void putBool(bool v) { putU8(v ? 1 : 0); }
    void putDouble(double v);
    void putFloat(float v);

    /** Length-prefixed byte string (may contain embedded NULs). */
    void putString(const std::string &s);

    void putCounts(const std::vector<count_t> &v);
    void putIndices(const std::vector<index_t> &v);
    void putFloats(const std::vector<float> &v);
    void putFloats(const float *data, std::size_t n);

    /** Open a named, length-prefixed section. Sections may nest. */
    void beginSection(const std::string &name);

    /** Close the innermost open section, patching its length. */
    void endSection();

    /** Payload bytes accumulated so far. */
    const std::vector<std::uint8_t> &payload() const { return buf_; }

    /**
     * Frame the payload (magic, version, size, CRC) and publish it
     * atomically: the bytes go to `<path>.tmp`, which is renamed over
     * `path` only after a successful write. Throws CheckpointError on
     * I/O failure or an unclosed section.
     */
    void writeFile(const std::string &path) const;

  private:
    std::vector<std::uint8_t> buf_;
    std::vector<std::size_t> open_sections_; //!< length-field offsets
};

/** Validates and deserializes a checkpoint payload. */
class ArchiveReader
{
  public:
    /**
     * Load `path`, verifying magic, version, payload size and CRC.
     * Throws CheckpointError naming the file and the defect (missing,
     * truncated, bad magic, version mismatch, CRC mismatch).
     */
    explicit ArchiveReader(const std::string &path);

    /** Wrap an in-memory payload (tests; no framing checks). */
    ArchiveReader(std::vector<std::uint8_t> payload, std::string origin);

    std::uint8_t getU8();
    std::uint32_t getU32();
    std::uint64_t getU64();
    std::int64_t getI64();
    bool getBool() { return getU8() != 0; }
    double getDouble();
    float getFloat();
    std::string getString();
    std::vector<count_t> getCounts();
    std::vector<index_t> getIndices();
    std::vector<float> getFloats();

    /**
     * Enter the next section, which must be named `name`; a different
     * name means writer and reader disagree about the state layout.
     */
    void enterSection(const std::string &name);

    /**
     * Leave the innermost section, verifying every byte of it was
     * consumed (an under/over-read means a serialization bug, not
     * just garbage data — fail loudly).
     */
    void leaveSection();

    /**
     * Abandon the innermost section after a failed restore: skip the
     * read cursor to the section's end and pop it without the byte-
     * consumption check, so the caller can keep reading the sections
     * that follow. The section framing (name + length prefix) makes
     * this safe even when the abandoned payload is garbage.
     */
    void abandonSection();

    /** Number of sections currently open (see abandonSection: a
     *  failed nested restore leaves inner sections open; the caller
     *  unwinds to its own recorded depth). */
    std::size_t sectionDepth() const { return open_sections_.size(); }

    /** Whether the whole payload has been consumed. */
    bool atEnd() const { return pos_ >= buf_.size(); }

    /** Current read offset into the payload (error context). */
    std::size_t offset() const { return pos_; }

    /** The file path (or origin label) this archive came from. */
    const std::string &origin() const { return origin_; }

    /** Throw a CheckpointError carrying file/offset/section context. */
    [[noreturn]] void fail(const std::string &msg) const;

  private:
    void need(std::size_t n, const char *what);

    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    std::string origin_;
    //!< (name, end offset) of each open section, innermost last.
    std::vector<std::pair<std::string, std::size_t>> open_sections_;
};

} // namespace stonne

#endif // STONNE_CHECKPOINT_ARCHIVE_HPP
