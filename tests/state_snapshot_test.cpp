// hprng::state snapshot container tests (docs/STATE.md).
//
// Pins the format invariants the spec promises: round-trip fidelity,
// little-endian framing, CRC detection of any payload flip, hard
// rejection of truncation / bad magic / unknown format versions /
// trailing garbage, bounded SectionReader cursors that latch instead of
// aborting, and the fault hooks on both file endpoints.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "state/snapshot.hpp"
#include "util/file.hpp"

#include <gtest/gtest.h>

namespace hprng::state {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "hprng_snapshot_test_" + name;
}

constexpr std::uint32_t kTagTest = fourcc("TEST");
constexpr std::uint32_t kTagOther = fourcc("OTHR");

std::string sample_image() {
  SnapshotWriter w;
  w.begin_section(kTagTest);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_f64(1.0 / 3.0);
  w.put_str("walk state");
  w.begin_section(kTagOther, /*version=*/3);
  w.put_u64(42);
  return w.finish();
}

TEST(Crc32, MatchesKnownVectors) {
  // IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
}

// The one-byte-at-a-time CRC-32 (reflected, polynomial 0xEDB88320) that
// the sliced implementation must match bit for bit.
std::uint32_t bytewise_crc32(std::string_view data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  std::string buf(64 * 1024 + 8, '\0');
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (char& ch : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ch = static_cast<char>(x & 0xFF);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::string_view s(buf.data() + start, len);
      ASSERT_EQ(crc32(s), bytewise_crc32(s))
          << "start " << start << " len " << len;
    }
  }
  const std::string_view big(buf.data() + 3, 64 * 1024);
  EXPECT_EQ(crc32(big), bytewise_crc32(big));
}

TEST(FourCC, RoundTripsThroughTagName) {
  EXPECT_EQ(tag_name(fourcc("META")), "META");
  EXPECT_EQ(tag_name(fourcc("SHRD")), "SHRD");
  // Non-printable bytes render as '?' instead of corrupting diagnostics.
  EXPECT_EQ(tag_name(0x01020304u), "????");
}

TEST(Snapshot, RoundTripsSectionsAndScalars) {
  std::string error;
  auto snap = Snapshot::parse(sample_image(), &error);
  ASSERT_TRUE(snap.has_value()) << error;
  ASSERT_EQ(snap->sections().size(), 2u);

  const Section* test = snap->find(kTagTest);
  ASSERT_NE(test, nullptr);
  EXPECT_EQ(test->version, 1u);
  SectionReader r(*test);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.get_f64(), 1.0 / 3.0);
  EXPECT_EQ(r.get_str(), "walk state");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);

  const Section* other = snap->find(kTagOther);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->version, 3u);
  SectionReader ro(*other);
  EXPECT_EQ(ro.get_u64(), 42u);
  EXPECT_TRUE(ro.ok());
}

TEST(Snapshot, FindAllKeepsFileOrderOfRepeatedTags) {
  SnapshotWriter w;
  for (std::uint64_t i = 0; i < 3; ++i) {
    w.begin_section(kTagTest);
    w.put_u64(i);
  }
  auto snap = Snapshot::parse(w.finish());
  ASSERT_TRUE(snap.has_value());
  const auto all = snap->find_all(kTagTest);
  ASSERT_EQ(all.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    SectionReader r(*all[i]);
    EXPECT_EQ(r.get_u64(), i);
  }
  EXPECT_EQ(snap->find(kTagOther), nullptr);
  EXPECT_TRUE(snap->find_all(kTagOther).empty());
}

TEST(Snapshot, PutRawKeepsMetaPayloadGreppable) {
  SnapshotWriter w;
  w.begin_section(fourcc("META"));
  w.put_raw("{\"format\":\"hprng-snapshot\"}");
  const std::string image = w.finish();
  // Self-describing: the raw JSON (no length prefix) is visible in the
  // file bytes, so `head -c` identifies the artifact.
  EXPECT_NE(image.find("{\"format\":\"hprng-snapshot\"}"), std::string::npos);
  auto snap = Snapshot::parse(image);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->find(fourcc("META"))->payload,
            "{\"format\":\"hprng-snapshot\"}");
}

TEST(Snapshot, RejectsEveryPossibleBitFlip) {
  const std::string good = sample_image();
  ASSERT_TRUE(Snapshot::parse(good).has_value());
  int rejected = 0;
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    std::string bad = good;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x01);
    std::string error;
    if (!Snapshot::parse(std::move(bad), &error).has_value()) {
      EXPECT_FALSE(error.empty());
      ++rejected;
    }
  }
  // Every flip lands in magic, version, count, a section header, a
  // payload (CRC-covered) or a CRC — all detected.
  EXPECT_EQ(rejected, static_cast<int>(good.size()));
}

TEST(Snapshot, RejectsTruncationAtEveryLength) {
  const std::string good = sample_image();
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::string error;
    EXPECT_FALSE(Snapshot::parse(good.substr(0, len), &error).has_value())
        << "length " << len;
    EXPECT_FALSE(error.empty());
  }
}

TEST(Snapshot, RejectsBadMagicVersionGateAndTrailingBytes) {
  std::string bad_magic = sample_image();
  bad_magic[0] = 'X';
  std::string error;
  EXPECT_FALSE(Snapshot::parse(bad_magic, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos);

  std::string future = sample_image();
  future[8] = static_cast<char>(kFormatVersion + 1);
  EXPECT_FALSE(Snapshot::parse(future, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos);

  std::string trailing = sample_image() + "junk";
  EXPECT_FALSE(Snapshot::parse(trailing, &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(SectionReader, LatchesOverrunWithFirstDiagnostic) {
  SnapshotWriter w;
  w.begin_section(kTagTest);
  w.put_u32(7);
  auto snap = Snapshot::parse(w.finish());
  ASSERT_TRUE(snap.has_value());
  SectionReader r(*snap->find(kTagTest));
  EXPECT_EQ(r.get_u32(), 7u);
  EXPECT_EQ(r.get_u64(), 0u);  // past the end: zero value, latched failure
  EXPECT_FALSE(r.ok());
  const std::string first = r.error();
  EXPECT_NE(first.find("TEST"), std::string::npos);
  (void)r.get_str();
  r.fail("later failure");
  EXPECT_EQ(r.error(), first);  // the first diagnostic is kept
}

TEST(SectionReader, RejectsCorruptStringLengthPrefix) {
  SnapshotWriter w;
  w.begin_section(kTagTest);
  w.put_u64(1000);  // claims a 1000-byte string...
  w.put_raw("ab");  // ...but only two bytes follow
  auto snap = Snapshot::parse(w.finish());
  ASSERT_TRUE(snap.has_value());
  SectionReader r(*snap->find(kTagTest));
  EXPECT_EQ(r.get_str(), "");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("overruns"), std::string::npos);
}

TEST(SnapshotFile, AtomicWriteThenReadRoundTrips) {
  const std::string path = tmp_path("roundtrip.snap");
  SnapshotWriter w;
  w.begin_section(kTagTest);
  w.put_u64(123);
  std::string error;
  ASSERT_TRUE(w.write_file(path, &error)) << error;
  // The temp staging file must not linger after the rename.
  std::string probe;
  EXPECT_FALSE(util::read_file(path + ".tmp", &probe));

  auto snap = Snapshot::read_file(path, &error);
  ASSERT_TRUE(snap.has_value()) << error;
  SectionReader r(*snap->find(kTagTest));
  EXPECT_EQ(r.get_u64(), 123u);
  std::remove(path.c_str());
}

TEST(SnapshotFile, ReadOfMissingFileFailsWithDiagnostic) {
  std::string error;
  EXPECT_FALSE(
      Snapshot::read_file(tmp_path("does_not_exist.snap"), &error).has_value());
  EXPECT_NE(error.find("cannot read"), std::string::npos);
}

TEST(SnapshotFile, CheckpointWriteFaultFailsBeforeAnyBytesLand) {
  const std::string path = tmp_path("faulted.snap");
  std::remove(path.c_str());
  fault::Injector injector(
      *fault::FaultPlan::parse("checkpoint_write:*:fail:0:1"));
  SnapshotWriter w;
  w.begin_section(kTagTest);
  w.put_u64(9);
  std::string error;
  EXPECT_FALSE(w.write_file(path, &error, &injector));
  EXPECT_NE(error.find("checkpoint_write"), std::string::npos);
  std::string probe;
  EXPECT_FALSE(util::read_file(path, &probe));  // nothing was written

  // The plan's budget is one fault: the retry succeeds.
  EXPECT_TRUE(w.write_file(path, &error, &injector)) << error;
  EXPECT_TRUE(Snapshot::read_file(path, &error).has_value()) << error;
  std::remove(path.c_str());
}

TEST(SnapshotFile, RestoreReadFaultRejectsThenRetrySucceeds) {
  const std::string path = tmp_path("read_faulted.snap");
  SnapshotWriter w;
  w.begin_section(kTagTest);
  w.put_u64(5);
  ASSERT_TRUE(w.write_file(path));

  fault::Injector injector(*fault::FaultPlan::parse("restore_read:*:fail:0:1"));
  std::string error;
  EXPECT_FALSE(Snapshot::read_file(path, &error, &injector).has_value());
  EXPECT_NE(error.find("restore_read"), std::string::npos);
  EXPECT_TRUE(Snapshot::read_file(path, &error, &injector).has_value())
      << error;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hprng::state
