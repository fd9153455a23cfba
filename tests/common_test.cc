// Tests for the common substrate (Status/Result, Rng, CRC32C, clock) and
// the typed persistent-pointer layer.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/checkpoint_log.h"
#include "common/clock.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/status.h"
#include "pmem/persistent.h"

namespace arthas {
namespace {

// --- Status / Result ----------------------------------------------------------

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(OkStatus().ok());
  Status err = NotFound("missing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.ToString(), "NOT_FOUND: missing");
  EXPECT_EQ(OkStatus().ToString(), "OK");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); c++) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

Result<int> ParsePositive(int v) {
  if (v <= 0) {
    return InvalidArgument("not positive");
  }
  return v;
}

TEST(ResultTest, ValueAndError) {
  auto ok = ParsePositive(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  auto err = ParsePositive(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.value_or(42), 42);
}

Status UsesReturnIfError(int v) {
  ARTHAS_RETURN_IF_ERROR(ParsePositive(v).status());
  return OkStatus();
}

TEST(ResultTest, Macros) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_FALSE(UsesReturnIfError(-1).ok());
}

// --- Rng ------------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(9), b(9), c(10);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, BoundsRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rng.NextBelow(7), 7u);
    const int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(4);
  int heads = 0;
  for (int i = 0; i < 10000; i++) {
    heads += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(heads, 3000, 300);
}

// --- CRC32C ----------------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // CRC32C("123456789") = 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  uint8_t data[64] = {0};
  const uint32_t clean = Crc32c(data, sizeof(data));
  data[13] ^= 0x10;
  EXPECT_NE(Crc32c(data, sizeof(data)), clean);
}

TEST(Crc32Test, SeedChaining) {
  const uint32_t whole = Crc32c("abcdef", 6);
  const uint32_t chained = Crc32c("def", 3, Crc32c("abc", 3));
  EXPECT_EQ(whole, chained);
}

// Byte-by-byte, bit-at-a-time CRC32C straight from the reflected
// polynomial: the reference the sliced Crc32c must match.
uint32_t ReferenceCrc32c(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; i++) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; bit++) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBytewiseReference) {
  Rng rng(0xC5C32);
  std::vector<uint8_t> buffer(600 + 8);
  for (uint8_t& byte : buffer) {
    byte = static_cast<uint8_t>(rng.NextU64());
  }
  for (size_t size = 0; size <= 600; size++) {
    for (size_t start = 0; start < 8; start++) {
      const uint32_t seed = static_cast<uint32_t>(rng.NextU64());
      const uint8_t* data = buffer.data() + start;
      ASSERT_EQ(Crc32c(data, size, seed), ReferenceCrc32c(data, size, seed))
          << "size " << size << " start " << start << " seed " << seed;
    }
    ASSERT_EQ(Crc32c(buffer.data(), size),
              ReferenceCrc32c(buffer.data(), size, 0))
        << "size " << size;
  }
}

// --- Clock -----------------------------------------------------------------------

TEST(ClockTest, VirtualClockAdvances) {
  VirtualClock clock;
  EXPECT_EQ(clock.Now(), 0);
  clock.Advance(3 * kSecond);
  clock.Advance(500 * kMillisecond);
  EXPECT_EQ(clock.Now(), 3 * kSecond + 500 * kMillisecond);
  clock.Reset();
  EXPECT_EQ(clock.Now(), 0);
}

TEST(ClockTest, MonotonicNanosIsMonotonic) {
  const int64_t a = MonotonicNanos();
  const int64_t b = MonotonicNanos();
  EXPECT_GE(b, a);
}

TEST(ClockTest, CyclesPerNanosecondInSaneRange) {
  // Any plausible TSC runs between 10 MHz and 1 THz; the non-x86 fallback
  // is exactly 1 (CycleCount *is* MonotonicNanos there). A value outside
  // this range means the calibration window measured garbage.
  const double cpn = CyclesPerNanosecond();
  EXPECT_GT(cpn, 0.01);
  EXPECT_LT(cpn, 1000.0);
  // Calibration happens once: repeated calls return the cached ratio.
  EXPECT_EQ(CyclesPerNanosecond(), cpn);
}

// --- PersistentPtr / PersistentVar -------------------------------------------------

struct Record {
  uint64_t id;
  uint64_t score;
};

TEST(PersistentPtrTest, MakeReadWritePersist) {
  auto pool = *PmemPool::Create("pp", 128 * 1024);
  auto ptr = *PersistentPtr<Record>::Make(*pool);
  ptr.get(*pool)->id = 7;
  ptr.get(*pool)->score = 100;
  ptr.Persist(*pool);
  ASSERT_TRUE(pool->CrashAndRecover().ok());
  EXPECT_EQ(ptr.get(*pool)->id, 7u);
  EXPECT_EQ(ptr.get(*pool)->score, 100u);
}

TEST(PersistentPtrTest, PersistMemberIsGranular) {
  auto pool = *PmemPool::Create("pp", 128 * 1024);
  CheckpointLog log(*pool);
  auto ptr = *PersistentPtr<Record>::Make(*pool);
  ptr.get(*pool)->score = 55;
  ptr.PersistMember(*pool, &Record::score);
  // The checkpoint saw exactly the member's range.
  const CheckpointEntry* entry =
      log.Find(ptr.oid().off + offsetof(Record, score));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->versions.back().data.size(), sizeof(uint64_t));
}

TEST(PersistentPtrTest, FreeNullsTheHandle) {
  auto pool = *PmemPool::Create("pp", 128 * 1024);
  auto ptr = *PersistentPtr<Record>::Make(*pool);
  ASSERT_FALSE(ptr.is_null());
  ASSERT_TRUE(ptr.Free(*pool).ok());
  EXPECT_TRUE(ptr.is_null());
}

TEST(PersistentVarTest, AssignPersistsImmediately) {
  auto pool = *PmemPool::Create("pv", 128 * 1024);
  auto counter = *PersistentVar<uint64_t>::Root(*pool);
  counter = 41;
  counter.Update([](uint64_t& v) { v++; });
  ASSERT_TRUE(pool->CrashAndRecover().ok());
  auto reopened = *PersistentVar<uint64_t>::Root(*pool);
  EXPECT_EQ(reopened.value(), 42u);
}

TEST(PersistentVarTest, RootIsStable) {
  auto pool = *PmemPool::Create("pv", 128 * 1024);
  auto a = *PersistentVar<uint64_t>::Root(*pool);
  auto b = *PersistentVar<uint64_t>::Root(*pool);
  EXPECT_EQ(a.oid().off, b.oid().off);
}

// --- Device file persistence --------------------------------------------------------

TEST(DeviceFileTest, SaveAndLoadRoundTrip) {
  auto pool = *PmemPool::Create("file", 128 * 1024);
  auto var = *PersistentVar<uint64_t>::Root(*pool);
  var = 777;
  const std::string path = ::testing::TempDir() + "arthas_pool.img";
  ASSERT_TRUE(pool->device().SaveToFile(path).ok());

  auto pool2 = *PmemPool::Create("file", 128 * 1024);
  ASSERT_TRUE(pool2->device().LoadFromFile(path).ok());
  auto var2 = *PersistentVar<uint64_t>::Root(*pool2);
  EXPECT_EQ(var2.value(), 777u);
  EXPECT_FALSE(pool2->device().LoadFromFile("/nonexistent/x").ok());
}

}  // namespace
}  // namespace arthas
