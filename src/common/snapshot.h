// Crash-consistent binary snapshot format: the durability substrate of the
// checkpoint/restore subsystem (spot-preemption-tolerant serving and
// resumable simulation in src/cloud).
//
// A snapshot is a framed container of named sections:
//
//   header : "CCSN" magic, u32 format version, u32 app tag, u32 section
//            count, u32 CRC32 of the header fields
//   section: u16 name length, name bytes, u64 payload size, u32 CRC32 of
//            the frame fields + payload, payload bytes
//   footer : "SNEN" magic
//
// Every multi-byte field is little-endian; doubles are stored as their raw
// IEEE-754 bit pattern so a restored state is *bitwise* identical to the
// captured one. Fields and whole vectors are copied in host byte order, so
// the library builds only on little-endian hosts (a static_assert in
// snapshot.cpp enforces it). The reader validates magic, version, app tag,
// bounds and per-section CRCs and throws CheckError on any violation — a
// corrupted or truncated snapshot can never restore garbage state.
//
// The CRC is IEEE 802.3 CRC-32 (reflected polynomial 0xEDB88320, the
// zlib/PNG checksum), computed slice-by-16: sixteen 256-entry tables fold
// 16 input bytes per step, giving the same value as the bytewise loop.
// SSE4.2 `crc32` is not used: it computes CRC-32C, a different checksum.
// A section's CRC is extended from its frame fields into its payload, so
// neither side builds a frame + payload copy.
//
// WriteSnapshotFileAtomic writes to "<path>.tmp" and renames over <path>,
// so a crash mid-checkpoint leaves the previous good snapshot intact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ccperf {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `size` bytes.
std::uint32_t Crc32(const void* data, std::size_t size);
std::uint32_t Crc32(const std::string& bytes);
/// CRC-32 of the concatenation A + B, given `crc` = Crc32(A) and B's
/// bytes: Crc32Extend(Crc32(a), b) == Crc32(a + b), and Crc32Extend(0, ...)
/// == Crc32(...). The zlib `crc32(crc, buf, len)` convention.
std::uint32_t Crc32Extend(std::uint32_t crc, const void* data,
                          std::size_t size);

/// Structural integrity verdict for snapshot bytes of ANY app tag: magic,
/// version, header CRC, framing bounds, every section CRC and the footer.
/// Returns false instead of throwing — integrity scrubs (e.g.
/// SnapshotVault::VerifyAllSections) want a verdict per copy, not an
/// exception on the first corrupted mirror. Does not validate section
/// *contents*; that stays with the app-level Restore path.
[[nodiscard]] bool SnapshotIntact(const std::string& bytes);

/// Appends typed values to one section's payload.
class SnapshotSectionWriter {
 public:
  void PutU8(std::uint8_t v) { PutPod(v); }
  void PutU32(std::uint32_t v) { PutPod(v); }
  void PutU64(std::uint64_t v) { PutPod(v); }
  void PutI64(std::int64_t v) { PutPod(v); }
  void PutBool(bool v) { PutPod(static_cast<std::uint8_t>(v ? 1 : 0)); }
  /// Raw bit pattern — round-trips NaN/inf/-0.0 exactly.
  void PutF64(double v);
  void PutString(const std::string& s);
  /// u64 element count, then the elements as one block of raw bits.
  void PutF64Vector(const std::vector<double>& v);
  void PutI64Vector(const std::vector<std::int64_t>& v);
  /// Raw bytes, no length prefix: the reader must know the size.
  void PutBytes(const void* data, std::size_t size);

  [[nodiscard]] const std::string& Bytes() const { return bytes_; }

 private:
  template <typename T>
  void PutPod(T v);

  std::string bytes_;
};

/// Accumulates named sections and serializes the framed container.
class SnapshotWriter {
 public:
  /// `app_tag` names the snapshot's producer (e.g. 'FSRV'); readers reject
  /// snapshots written by a different subsystem.
  explicit SnapshotWriter(std::uint32_t app_tag);

  /// Start a new section; names must be unique within one snapshot.
  SnapshotSectionWriter& AddSection(const std::string& name);

  /// Serialize the container (header + CRC'd sections + footer).
  [[nodiscard]] std::string Serialize() const;

 private:
  std::uint32_t app_tag_ = 0;
  std::vector<std::pair<std::string, SnapshotSectionWriter>> sections_;
};

/// Atomically persist a snapshot: write "<path>.tmp", flush + fsync it,
/// rename over `path`, then fsync the containing directory so the renamed
/// entry survives a crash (POSIX; the fsyncs are no-ops elsewhere). Throws
/// CheckError on any I/O failure, naming the offending path.
void WriteSnapshotFileAtomic(const std::string& path,
                             const SnapshotWriter& snapshot);

/// Bounds-checked typed reads from one section's payload. Reading past the
/// end throws CheckError. The reader borrows the payload: it must not
/// outlive the bytes (for Section(), the SnapshotReader) it views.
class SnapshotSectionReader {
 public:
  explicit SnapshotSectionReader(std::string_view payload)
      : payload_(payload) {}

  std::uint8_t TakeU8() { return TakePod<std::uint8_t>(); }
  std::uint32_t TakeU32() { return TakePod<std::uint32_t>(); }
  std::uint64_t TakeU64() { return TakePod<std::uint64_t>(); }
  std::int64_t TakeI64() { return TakePod<std::int64_t>(); }
  bool TakeBool() { return TakePod<std::uint8_t>() != 0; }
  double TakeF64();
  std::string TakeString();
  std::vector<double> TakeF64Vector();
  std::vector<std::int64_t> TakeI64Vector();
  /// The next `size` raw bytes, as a view into the payload.
  std::string_view TakeBytes(std::size_t size);

  [[nodiscard]] std::size_t Remaining() const {
    return payload_.size() - offset_;
  }
  /// Throws unless every payload byte has been consumed — catches schema
  /// drift between writer and reader.
  void ExpectEnd() const;

 private:
  template <typename T>
  T TakePod();
  template <typename T>
  std::vector<T> TakeVector();
  void Require(std::size_t bytes) const;

  std::string_view payload_;
  std::size_t offset_ = 0;
};

/// Parses and validates a serialized snapshot. The reader owns the bytes
/// (moved in, or one copy) and hands out section views into them.
class SnapshotReader {
 public:
  /// Throws CheckError on bad magic/version/tag, truncation, or CRC
  /// mismatch in any section.
  static SnapshotReader Parse(std::string bytes, std::uint32_t app_tag);
  /// Load + parse a snapshot file; missing/unreadable paths throw
  /// CheckError naming the path.
  static SnapshotReader FromFile(const std::string& path,
                                 std::uint32_t app_tag);

  [[nodiscard]] bool Has(const std::string& name) const;
  /// Section payload by name, viewed in place; throws CheckError when
  /// absent. The returned reader must not outlive this one.
  [[nodiscard]] SnapshotSectionReader Section(const std::string& name) const;
  [[nodiscard]] std::size_t SectionCount() const { return sections_.size(); }

 private:
  /// One validated section: its name and the payload's place in bytes_.
  struct Entry {
    std::string name;
    std::size_t offset = 0;
    std::size_t size = 0;
  };
  friend bool SnapshotIntact(const std::string& bytes);
  /// Validates the whole container in place and locates every section.
  static std::vector<Entry> Frames(std::string_view bytes,
                                   std::uint32_t app_tag);

  SnapshotReader() = default;
  std::string bytes_;
  std::vector<Entry> sections_;
};

}  // namespace ccperf
