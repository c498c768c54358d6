// Snapshot container: framed round-trip fidelity (including NaN/inf bit
// patterns), CRC rejection of corruption, truncation handling at every
// prefix, app-tag/version gating, and atomic file persistence.
#include "common/snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <vector>

#include "common/check.h"

namespace ccperf {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

constexpr std::uint32_t kTag = 0x54455354u;  // 'TEST'

SnapshotWriter MakeSample() {
  SnapshotWriter writer(kTag);
  SnapshotSectionWriter& meta = writer.AddSection("meta");
  meta.PutU8(7);
  meta.PutU32(0xDEADBEEFu);
  meta.PutU64(1ull << 40);
  meta.PutI64(-42);
  meta.PutBool(true);
  meta.PutF64(3.141592653589793);
  meta.PutString("hello snapshot");
  SnapshotSectionWriter& data = writer.AddSection("data");
  data.PutF64Vector({1.0, -0.0, std::numeric_limits<double>::infinity(),
                     std::nan("0x5CA1AB1E"), 1e-308});
  data.PutI64Vector({0, -1, std::numeric_limits<std::int64_t>::max()});
  return writer;
}

TEST(Crc32Test, MatchesKnownVectors) {
  // IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string("")), 0u);
  EXPECT_NE(Crc32(std::string("a")), Crc32(std::string("b")));
}

// Bytewise reference CRC-32 (reflected 0xEDB88320), one shift-and-xor per
// bit: the definition the sliced implementation must reproduce exactly.
std::uint32_t ReferenceCrc32(const unsigned char* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(std::size_t size, std::uint64_t seed) {
  std::vector<unsigned char> bytes(size);
  std::uint64_t x = seed;
  for (unsigned char& b : bytes) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<unsigned char>(x >> 56);
  }
  return bytes;
}

TEST(Crc32Test, SlicedMatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Every length 0..1024 at start offsets 0..7 covers the bytewise head and
  // tail around each 16-byte block and unaligned word loads.
  const std::vector<unsigned char> buffer = RandomBytes(1024 + 8, 0xC3C3);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(Crc32(buffer.data() + start, len),
                ReferenceCrc32(buffer.data() + start, len))
          << "start " << start << " length " << len;
    }
  }
}

TEST(Crc32Test, ExtendAtEverySplitEqualsOneShot) {
  const std::vector<unsigned char> buffer = RandomBytes(301, 0x5EED);
  const std::uint32_t whole = Crc32(buffer.data(), buffer.size());
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    const std::uint32_t head = Crc32(buffer.data(), split);
    ASSERT_EQ(Crc32Extend(head, buffer.data() + split, buffer.size() - split),
              whole)
        << "split at " << split;
  }
  // Three-way split, and Extend from 0 is the plain CRC.
  const std::uint32_t first = Crc32(buffer.data(), 17);
  const std::uint32_t second = Crc32Extend(first, buffer.data() + 17, 100);
  EXPECT_EQ(Crc32Extend(second, buffer.data() + 117, buffer.size() - 117),
            whole);
  EXPECT_EQ(Crc32Extend(0, buffer.data(), buffer.size()), whole);
}

TEST(SnapshotTest, RoundTripsEveryFieldBitwise) {
  const std::string bytes = MakeSample().Serialize();
  const SnapshotReader reader = SnapshotReader::Parse(bytes, kTag);
  EXPECT_EQ(reader.SectionCount(), 2u);
  EXPECT_TRUE(reader.Has("meta"));
  EXPECT_TRUE(reader.Has("data"));
  EXPECT_FALSE(reader.Has("absent"));

  SnapshotSectionReader meta = reader.Section("meta");
  EXPECT_EQ(meta.TakeU8(), 7);
  EXPECT_EQ(meta.TakeU32(), 0xDEADBEEFu);
  EXPECT_EQ(meta.TakeU64(), 1ull << 40);
  EXPECT_EQ(meta.TakeI64(), -42);
  EXPECT_TRUE(meta.TakeBool());
  EXPECT_EQ(meta.TakeF64(), 3.141592653589793);
  EXPECT_EQ(meta.TakeString(), "hello snapshot");
  EXPECT_NO_THROW(meta.ExpectEnd());

  SnapshotSectionReader data = reader.Section("data");
  const std::vector<double> doubles = data.TakeF64Vector();
  ASSERT_EQ(doubles.size(), 5u);
  EXPECT_EQ(doubles[0], 1.0);
  EXPECT_EQ(doubles[1], 0.0);
  EXPECT_TRUE(std::signbit(doubles[1])) << "-0.0 must survive bitwise";
  EXPECT_TRUE(std::isinf(doubles[2]));
  EXPECT_TRUE(std::isnan(doubles[3])) << "NaN payload must survive";
  EXPECT_EQ(doubles[4], 1e-308);
  const std::vector<std::int64_t> ints = data.TakeI64Vector();
  ASSERT_EQ(ints.size(), 3u);
  EXPECT_EQ(ints[1], -1);
  EXPECT_EQ(ints[2], std::numeric_limits<std::int64_t>::max());
  EXPECT_NO_THROW(data.ExpectEnd());
}

TEST(SnapshotTest, RejectsWrongAppTagAndBadMagic) {
  const std::string bytes = MakeSample().Serialize();
  EXPECT_THROW((void)SnapshotReader::Parse(bytes, kTag + 1), CheckError);
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_THROW((void)SnapshotReader::Parse(wrong_magic, kTag), CheckError);
  EXPECT_THROW((void)SnapshotReader::Parse(std::string(), kTag), CheckError);
}

TEST(SnapshotTest, EveryByteFlipIsDetected) {
  // Any one-byte corruption must fail parsing or leave the payload intact
  // (flips inside CRC fields themselves break the CRC match).
  const std::string pristine = MakeSample().Serialize();
  int rejected = 0;
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    std::string mutated = pristine;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    try {
      (void)SnapshotReader::Parse(mutated, kTag);
      ADD_FAILURE() << "byte " << i << " flip was not detected";
    } catch (const CheckError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, static_cast<int>(pristine.size()));
}

TEST(SnapshotTest, EveryTruncationIsDetected) {
  const std::string pristine = MakeSample().Serialize();
  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    EXPECT_THROW((void)SnapshotReader::Parse(pristine.substr(0, cut), kTag),
                 CheckError)
        << "prefix of " << cut << " bytes parsed";
  }
  EXPECT_THROW((void)SnapshotReader::Parse(pristine + "x", kTag), CheckError)
      << "trailing garbage must be rejected";
}

TEST(SnapshotTest, SectionReaderBoundsChecks) {
  SnapshotWriter writer(kTag);
  writer.AddSection("s").PutU32(5);
  const SnapshotReader reader = SnapshotReader::Parse(writer.Serialize(), kTag);
  SnapshotSectionReader section = reader.Section("s");
  EXPECT_THROW(section.ExpectEnd(), CheckError) << "unread bytes remain";
  EXPECT_EQ(section.TakeU32(), 5u);
  EXPECT_THROW((void)section.TakeU32(), CheckError) << "read past end";
  EXPECT_THROW((void)reader.Section("missing"), CheckError);
}

TEST(SnapshotTest, RawBytesRoundTripAsViews) {
  SnapshotWriter writer(kTag);
  SnapshotSectionWriter& raw = writer.AddSection("raw");
  raw.PutBytes("abc", 3);
  raw.PutBytes(nullptr, 0);
  raw.PutI64Vector({});
  const SnapshotReader reader = SnapshotReader::Parse(writer.Serialize(), kTag);
  SnapshotSectionReader section = reader.Section("raw");
  EXPECT_EQ(section.TakeBytes(3), "abc");
  EXPECT_EQ(section.TakeBytes(0), "");
  EXPECT_TRUE(section.TakeI64Vector().empty());
  EXPECT_THROW((void)section.TakeBytes(1), CheckError) << "read past end";
  EXPECT_NO_THROW(section.ExpectEnd());
}

TEST(SnapshotTest, DuplicateSectionNamesAreRejected) {
  SnapshotWriter writer(kTag);
  writer.AddSection("twice");
  EXPECT_THROW((void)writer.AddSection("twice"), CheckError);
  EXPECT_THROW((void)writer.AddSection(""), CheckError);
}

TEST(SnapshotFileTest, AtomicWriteRoundTripsAndReplacesCleanly) {
  const std::string path = TempPath("snapshot_atomic.ccsn");
  WriteSnapshotFileAtomic(path, MakeSample());
  {
    const SnapshotReader reader = SnapshotReader::FromFile(path, kTag);
    EXPECT_EQ(reader.SectionCount(), 2u);
  }
  // Overwrite with a different snapshot; the reader must see the new one.
  SnapshotWriter second(kTag);
  second.AddSection("only").PutU64(99);
  WriteSnapshotFileAtomic(path, second);
  const SnapshotReader reader = SnapshotReader::FromFile(path, kTag);
  EXPECT_EQ(reader.SectionCount(), 1u);
  SnapshotSectionReader only = reader.Section("only");
  EXPECT_EQ(only.TakeU64(), 99u);
  // No tmp residue from successful writes.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, MissingAndCorruptFilesThrowWithPath) {
  EXPECT_THROW((void)SnapshotReader::FromFile("/nonexistent/snap.ccsn", kTag),
               CheckError);
  const std::string path = TempPath("snapshot_corrupt.ccsn");
  {
    std::ofstream out(path, std::ios::binary);
    out << "CCSNgarbage-that-is-not-a-snapshot";
  }
  EXPECT_THROW((void)SnapshotReader::FromFile(path, kTag), CheckError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ccperf
