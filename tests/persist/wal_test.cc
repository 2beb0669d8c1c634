// WAL framing, CRC32C, and coding-helper tests (DESIGN.md §10): the
// byte-level contracts recovery depends on — torn tails tolerated only on
// the final segment, checksum mismatches always fatal.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "persist/coding.h"
#include "persist/crc32c.h"
#include "persist/file_io.h"
#include "persist/wal.h"

namespace gsgrow::persist {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- CRC32C. ---

TEST(Crc32c, KnownVectors) {
  // Standard CRC32C check value: "123456789" -> 0xE3069283.
  const char digits[] = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xE3069283u);
  // 32 zero bytes -> 0x8A9136AA (iSCSI test vector, RFC 3720).
  const char zeros[32] = {0};
  EXPECT_EQ(Crc32c(zeros, 32), 0x8A9136AAu);
}

TEST(Crc32c, ExtendMatchesOneShot) {
  const std::string data = "write-ahead logging";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, Crc32c(data.data(), data.size())) << "split=" << split;
  }
}

TEST(Crc32c, MaskRoundTripsAndDisplaces) {
  for (const uint32_t crc : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    EXPECT_NE(MaskCrc(crc), crc);
  }
  // An all-zero region must not verify as a CRC of anything it plausibly
  // frames; in particular masked zero is nonzero.
  EXPECT_NE(MaskCrc(0), 0u);
}

// --- Coding. ---

TEST(Coding, FixedWidthRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0x01020304u);
  PutFixed64(&buf, 0x0807060504030201ull);
  PutLengthPrefixed(&buf, "abc");
  // Little-endian byte order, independent of host.
  EXPECT_EQ(static_cast<unsigned char>(buf[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(buf[3]), 0x01);
  size_t offset = 0;
  uint32_t v32 = 0;
  uint64_t v64 = 0;
  std::string_view s;
  ASSERT_TRUE(GetFixed32(buf, &offset, &v32));
  ASSERT_TRUE(GetFixed64(buf, &offset, &v64));
  ASSERT_TRUE(GetLengthPrefixed(buf, &offset, &s));
  EXPECT_EQ(v32, 0x01020304u);
  EXPECT_EQ(v64, 0x0807060504030201ull);
  EXPECT_EQ(s, "abc");
  EXPECT_EQ(offset, buf.size());
}

TEST(Coding, ArrayEncodingIsPerWordEncoding) {
  const std::vector<uint32_t> values = {0u, 1u, 0x01020304u, 0xFFFFFFFFu,
                                        0x80000000u};
  std::string per_word;
  for (const uint32_t v : values) PutFixed32(&per_word, v);
  std::string array(values.size() * 4, '\0');
  EncodeFixed32Array(values, array.data());
  EXPECT_EQ(array, per_word);
  std::string empty;
  EncodeFixed32Array({}, empty.data());
  EXPECT_TRUE(empty.empty());
}

TEST(Coding, ReadersRefuseShortBuffers) {
  std::string buf;
  PutFixed32(&buf, 7);
  uint64_t v64 = 0;
  uint32_t v32 = 0;
  std::string_view s;
  size_t offset = 0;
  EXPECT_FALSE(GetFixed64(buf, &offset, &v64));
  EXPECT_EQ(offset, 0u);  // untouched on failure
  offset = 2;
  EXPECT_FALSE(GetFixed32(buf, &offset, &v32));
  // A length prefix promising more bytes than remain must fail, not read
  // past the end.
  std::string lying;
  PutFixed32(&lying, 100);
  lying += "xy";
  offset = 0;
  EXPECT_FALSE(GetLengthPrefixed(lying, &offset, &s));
  // Offsets beyond the buffer never underflow the remaining-size math.
  offset = buf.size() + 10;
  EXPECT_FALSE(GetFixed32(buf, &offset, &v32));
}

// --- WAL framing. ---

std::string EncodeRecords(const std::vector<WalRecord>& records) {
  // Per-test scratch name: ctest runs these tests as concurrent processes.
  const std::string path = TempPath(
      std::string("gsgrow_wal_test_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".log");
  std::filesystem::remove(path);
  Result<WalWriter> writer = WalWriter::Open(path);
  EXPECT_TRUE(writer.ok());
  for (const WalRecord& r : records) {
    EXPECT_TRUE(writer->Append(r.type, r.payload).ok());
  }
  EXPECT_TRUE(writer->Close().ok());
  Result<std::string> data = ReadFileToString(path);
  EXPECT_TRUE(data.ok());
  std::filesystem::remove(path);
  return *data;
}

TEST(Wal, RoundTripThroughFile) {
  const std::string path = TempPath("gsgrow_wal_roundtrip.log");
  std::filesystem::remove(path);
  {
    Result<WalWriter> writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(1, "hello").ok());
    ASSERT_TRUE(writer->Append(2, "").ok());
    ASSERT_TRUE(writer->Append(7, std::string(100000, 'x')).ok());
    ASSERT_TRUE(writer->Sync().ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  Result<WalReadResult> read = ReadWalFile(path, /*tolerate_torn_tail=*/false);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 3u);
  EXPECT_EQ(read->records[0].type, 1);
  EXPECT_EQ(read->records[0].payload, "hello");
  EXPECT_EQ(read->records[1].type, 2);
  EXPECT_EQ(read->records[1].payload, "");
  EXPECT_EQ(read->records[2].payload.size(), 100000u);
  EXPECT_FALSE(read->torn_tail);
  Result<uint64_t> size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(read->valid_bytes, *size);
  std::filesystem::remove(path);
}

TEST(Wal, ReopenContinuesAtEnd) {
  const std::string path = TempPath("gsgrow_wal_reopen.log");
  std::filesystem::remove(path);
  {
    Result<WalWriter> writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(1, "first").ok());
  }
  {
    Result<WalWriter> writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    EXPECT_GT(writer->offset(), 0u);
    ASSERT_TRUE(writer->Append(1, "second").ok());
  }
  Result<WalReadResult> read = ReadWalFile(path, false);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[1].payload, "second");
  std::filesystem::remove(path);
}

TEST(Wal, EveryTruncationIsTornTailWhenTolerated) {
  const std::string data =
      EncodeRecords({{1, "alpha"}, {2, "beta-beta"}, {3, ""}});
  // Record boundaries: 9+5=14, then 14+9+9=32, then 32+9+0=41.
  const std::vector<size_t> boundaries = {0, 14, 32, 41};
  for (size_t cut = 0; cut < data.size(); ++cut) {
    Result<WalReadResult> read =
        DecodeWalBytes(data.substr(0, cut), true, "test");
    ASSERT_TRUE(read.ok()) << "cut=" << cut;
    // The intact prefix survives; valid_bytes names the last boundary.
    size_t expect_records = 0;
    size_t expect_valid = 0;
    for (size_t b = 1; b < boundaries.size(); ++b) {
      if (boundaries[b] <= cut) {
        expect_records = b;
        expect_valid = boundaries[b];
      }
    }
    EXPECT_EQ(read->records.size(), expect_records) << "cut=" << cut;
    EXPECT_EQ(read->valid_bytes, expect_valid) << "cut=" << cut;
    EXPECT_EQ(read->torn_tail, cut != expect_valid) << "cut=" << cut;
  }
}

TEST(Wal, TruncationIsCorruptionOnNonFinalSegments) {
  const std::string data = EncodeRecords({{1, "alpha"}, {2, "beta"}});
  const std::string cut = data.substr(0, data.size() - 2);
  Result<WalReadResult> read = DecodeWalBytes(cut, false, "test");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
}

TEST(Wal, CompleteRecordWithBadCrcIsAlwaysCorruption) {
  std::string data = EncodeRecords({{1, "alpha"}, {2, "beta"}});
  // Flip one payload byte of the FIRST record (offset 9 = first body byte):
  // the record is complete, so even the tolerant reader must refuse.
  data[9] = static_cast<char>(data[9] ^ 0x01);
  for (const bool tolerate : {false, true}) {
    Result<WalReadResult> read = DecodeWalBytes(data, tolerate, "test");
    ASSERT_FALSE(read.ok()) << "tolerate=" << tolerate;
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
  }
}

TEST(Wal, MissingFileIsNotFound) {
  Result<WalReadResult> read =
      ReadWalFile(TempPath("gsgrow_wal_never_written.log"), true);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(Wal, EmptyFileIsZeroRecords) {
  Result<WalReadResult> read = DecodeWalBytes("", false, "test");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_EQ(read->valid_bytes, 0u);
}

// --- File primitives the WAL's crash story leans on. ---

TEST(FileIo, WriteFileAtomicReplaces) {
  const std::string path = TempPath("gsgrow_atomic_test.bin");
  std::filesystem::remove(path);
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second contents").ok());
  Result<std::string> data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "second contents");
  EXPECT_FALSE(PathExists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(FileIo, TruncateCutsExactly) {
  const std::string path = TempPath("gsgrow_truncate_test.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "0123456789").ok());
  ASSERT_TRUE(TruncateFile(path, 4).ok());
  Result<std::string> data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "0123");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace gsgrow::persist
