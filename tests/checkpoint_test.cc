// Tests for the versioned checkpoint log: recording at durability points,
// version rings, transaction grouping, realloc linkage, reversion.

#include <algorithm>
#include <cstring>
#include <gtest/gtest.h>
#include <vector>

#include "checkpoint/checkpoint_log.h"
#include "common/rng.h"
#include "pmem/pool.h"
#include "pmem/tx.h"

namespace arthas {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = *PmemPool::Create("ckpt", 256 * 1024);
    log_ = std::make_unique<CheckpointLog>(*pool_);
  }

  void WriteAndPersist(Oid oid, uint64_t value) {
    *pool_->Direct<uint64_t>(oid) = value;
    pool_->Persist(oid, 0, 8);
  }

  uint64_t ReadBack(Oid oid) { return *pool_->Direct<uint64_t>(oid); }

  std::unique_ptr<PmemPool> pool_;
  std::unique_ptr<CheckpointLog> log_;
};

TEST_F(CheckpointTest, RecordsAtPersistGranularity) {
  Oid oid = *pool_->Zalloc(64);
  WriteAndPersist(oid, 1);
  const CheckpointEntry* entry = log_->Find(oid.off);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->versions.size(), 1u);
  EXPECT_EQ(entry->versions[0].data.size(), 8u);
  uint64_t recorded;
  std::memcpy(&recorded, entry->versions[0].data.data(), 8);
  EXPECT_EQ(recorded, 1u);
}

TEST_F(CheckpointTest, UnpersistedWritesAreNotCheckpointed) {
  Oid oid = *pool_->Zalloc(64);
  *pool_->Direct<uint64_t>(oid) = 99;  // no persist
  EXPECT_EQ(log_->Find(oid.off), nullptr);
}

TEST_F(CheckpointTest, AllocatorMetadataIsNotCheckpointed) {
  Oid oid = *pool_->Zalloc(64);
  (void)oid;
  // Only application persists create entries; Zalloc's zeroing and header
  // updates are quiet.
  EXPECT_TRUE(log_->entries().empty());
}

TEST_F(CheckpointTest, VersionRingKeepsMaxVersions) {
  Oid oid = *pool_->Zalloc(64);
  for (uint64_t v = 1; v <= 5; v++) {
    WriteAndPersist(oid, v);
  }
  const CheckpointEntry* entry = log_->Find(oid.off);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->versions.size(), 3u);  // default max_versions = 3
  uint64_t oldest;
  std::memcpy(&oldest, entry->versions[0].data.data(), 8);
  EXPECT_EQ(oldest, 3u);
  // The evicted version 2 became the pre-history.
  uint64_t original;
  std::memcpy(&original, entry->original.data(), 8);
  EXPECT_EQ(original, 2u);
}

TEST_F(CheckpointTest, RevertSeqRestoresPreviousVersion) {
  Oid oid = *pool_->Zalloc(64);
  WriteAndPersist(oid, 1);
  WriteAndPersist(oid, 2);
  const SeqNum newest = log_->NewestSeqAt(oid.off);
  ASSERT_TRUE(log_->RevertSeq(newest).ok());
  EXPECT_EQ(ReadBack(oid), 1u);
  // The reverted value is durable (survives restart).
  ASSERT_TRUE(pool_->CrashAndRecover().ok());
  EXPECT_EQ(ReadBack(oid), 1u);
}

TEST_F(CheckpointTest, RevertFirstVersionRestoresOriginal) {
  Oid oid = *pool_->Zalloc(64);
  WriteAndPersist(oid, 42);
  ASSERT_TRUE(log_->RevertSeq(log_->NewestSeqAt(oid.off)).ok());
  EXPECT_EQ(ReadBack(oid), 0u);  // the pre-update durable bytes were zero
}

TEST_F(CheckpointTest, RevertMiddleSeqDiscardsNewerVersions) {
  Oid oid = *pool_->Zalloc(64);
  WriteAndPersist(oid, 1);
  WriteAndPersist(oid, 2);
  WriteAndPersist(oid, 3);
  const CheckpointEntry* entry = log_->Find(oid.off);
  const SeqNum middle = entry->versions[1].seq_num;
  ASSERT_TRUE(log_->RevertSeq(middle).ok());
  EXPECT_EQ(ReadBack(oid), 1u);
  EXPECT_EQ(log_->Find(oid.off)->versions.size(), 1u);
}

TEST_F(CheckpointTest, RollbackToSeqRevertsEverythingAfter) {
  Oid a = *pool_->Zalloc(64);
  Oid b = *pool_->Zalloc(64);
  WriteAndPersist(a, 1);  // seq 1
  WriteAndPersist(b, 10);  // seq 2
  const SeqNum cut = log_->NewestSeqAt(b.off);
  WriteAndPersist(a, 2);  // seq 3
  WriteAndPersist(b, 20);  // seq 4

  auto discarded = log_->RollbackToSeq(cut);
  ASSERT_TRUE(discarded.ok());
  EXPECT_EQ(*discarded, 3u);  // seq 2, 3, 4
  EXPECT_EQ(ReadBack(a), 1u);
  EXPECT_EQ(ReadBack(b), 0u);
}

TEST_F(CheckpointTest, TransactionGroupsSeqs) {
  Oid a = *pool_->Zalloc(64);
  Oid b = *pool_->Zalloc(64);
  {
    PmemTx tx(*pool_);
    ASSERT_TRUE(tx.AddRange(a, 0, 8).ok());
    ASSERT_TRUE(tx.AddRange(b, 0, 8).ok());
    *pool_->Direct<uint64_t>(a) = 5;
    *pool_->Direct<uint64_t>(b) = 6;
    ASSERT_TRUE(tx.Commit().ok());
  }
  const SeqNum seq_a = log_->NewestSeqAt(a.off);
  const SeqNum seq_b = log_->NewestSeqAt(b.off);
  ASSERT_NE(seq_a, kNoSeq);
  ASSERT_NE(seq_b, kNoSeq);
  auto group = log_->SeqsInSameTx(seq_a);
  EXPECT_EQ(group.size(), 2u);
  EXPECT_TRUE(std::find(group.begin(), group.end(), seq_b) != group.end());
}

TEST_F(CheckpointTest, NonTransactionalSeqIsItsOwnGroup) {
  Oid a = *pool_->Zalloc(64);
  WriteAndPersist(a, 1);
  auto group = log_->SeqsInSameTx(log_->NewestSeqAt(a.off));
  EXPECT_EQ(group.size(), 1u);
}

TEST_F(CheckpointTest, ReallocLinksEntries) {
  Oid small = *pool_->Zalloc(32);
  WriteAndPersist(small, 7);
  Oid big = *pool_->Realloc(small, 8192);
  ASSERT_NE(big.off, small.off);
  const CheckpointEntry* fresh = log_->Find(big.off);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->old_entry, small.off);
  const CheckpointEntry* old = log_->Find(small.off);
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(old->new_entry, big.off);
}

TEST_F(CheckpointTest, UnfreedAllocationsTracksLeaks) {
  Oid kept = *pool_->Zalloc(64);
  Oid freed = *pool_->Zalloc(64);
  ASSERT_TRUE(pool_->Free(freed).ok());
  auto unfreed = log_->UnfreedAllocations();
  ASSERT_EQ(unfreed.size(), 1u);
  EXPECT_EQ(unfreed[0].offset, kept.off);
}

TEST_F(CheckpointTest, OverlappingFindsCoveringEntry) {
  Oid oid = *pool_->Zalloc(128);
  // Persist the whole object once.
  pool_->Persist(oid, 0, 128);
  // A trace address in the middle of the object must find the entry.
  auto hits = log_->Overlapping(oid.off + 50, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->address, oid.off);
}

// Overlapping answers from per-shard cache-line indexes; this checks it
// against a brute-force scan of every entry under the same extent rule,
// for entries that grew, were realloc-linked, evicted versions or span
// hundreds of lines, before and after a Serialize/Restore round trip.
class OverlappingEquivalenceTest : public ::testing::Test {
 protected:
  static size_t ExtentOf(const CheckpointEntry& entry) {
    return std::max(entry.original.size(),
                    entry.versions.empty()
                        ? size_t{0}
                        : entry.versions.back().data.size());
  }

  static std::vector<PmOffset> BruteForce(const CheckpointLog& log,
                                          PmOffset offset, size_t size) {
    std::vector<PmOffset> out;
    log.ForEachEntry([&](const CheckpointEntry& entry) {
      if (entry.address < offset + size &&
          offset < entry.address + ExtentOf(entry)) {
        out.push_back(entry.address);
      }
    });
    std::sort(out.begin(), out.end());
    return out;
  }

  static void ExpectSame(const CheckpointLog& log, PmOffset offset,
                         size_t size) {
    std::vector<PmOffset> got;
    for (const CheckpointEntry* entry : log.Overlapping(offset, size)) {
      got.push_back(entry->address);
    }
    ASSERT_EQ(got, BruteForce(log, offset, size))
        << "query [" << offset << ", +" << size << ")";
  }

  // Queries the first byte, last byte and one-past-end of every entry's
  // extent, the byte before it, a multi-line range around its start and
  // its whole extent, plus random ranges over the heap.
  static void CheckAll(const CheckpointLog& log, PmOffset lo, PmOffset hi,
                       Rng& rng) {
    std::vector<std::pair<PmOffset, size_t>> extents;
    log.ForEachEntry([&](const CheckpointEntry& entry) {
      extents.emplace_back(entry.address, ExtentOf(entry));
    });
    ASSERT_FALSE(extents.empty());
    for (const auto& [address, extent] : extents) {
      ExpectSame(log, address, 1);
      ExpectSame(log, address + extent - 1, 1);
      ExpectSame(log, address + extent, 1);
      ExpectSame(log, address - 1, 1);
      ExpectSame(log, address - 70, 200);
      ExpectSame(log, address, extent);
    }
    for (int i = 0; i < 2000; i++) {
      const PmOffset offset = lo + rng.NextU64() % (hi - lo);
      const size_t size = 1 + rng.NextU64() % (i % 4 == 0 ? 600 : 8);
      ExpectSame(log, offset, size);
    }
  }

  // Writes random bytes over [offset, offset + size) of `oid` and
  // persists them.
  void Scribble(Oid oid, size_t offset, size_t size) {
    auto* bytes = pool_->Direct<uint8_t>(oid) + offset;
    for (size_t i = 0; i < size; i++) {
      bytes[i] = static_cast<uint8_t>(rng_.NextU64());
    }
    pool_->Persist(oid, offset, size);
  }

  // Random persists over `objects`: sub-ranges at random starts (many
  // share a start, so later larger ones grow the entry) and whole-object
  // rewrites, all evicting through a two-version ring.
  void RandomPersists(const std::vector<std::pair<Oid, size_t>>& objects,
                      int count) {
    for (int i = 0; i < count; i++) {
      const auto& [oid, size] = objects[rng_.NextU64() % objects.size()];
      const size_t start = (rng_.NextU64() % 4) * 24 % size;
      const size_t len = 1 + rng_.NextU64() % (size - start);
      Scribble(oid, start, len);
    }
  }

  std::unique_ptr<PmemPool> pool_ = *PmemPool::Create("overlap", 1 << 20);
  std::unique_ptr<CheckpointLog> log_ = std::make_unique<CheckpointLog>(
      *pool_, CheckpointConfig{/*max_versions=*/2});
  Rng rng_{0x0E71A9};
};

TEST_F(OverlappingEquivalenceTest, MatchesBruteForceScan) {
  std::vector<std::pair<Oid, size_t>> objects;
  PmOffset lo = ~PmOffset{0};
  PmOffset hi = 0;
  auto track = [&](Oid oid, size_t size) {
    objects.emplace_back(oid, size);
    lo = std::min(lo, oid.off);
    hi = std::max(hi, oid.off + size);
  };
  for (int i = 0; i < 120; i++) {
    const size_t size = 16 + rng_.NextU64() % 500;
    track(*pool_->Zalloc(size), size);
  }

  // Growth at a known address: a one-line entry becomes a four-line one.
  const Oid grown = *pool_->Zalloc(256);
  track(grown, 256);
  Scribble(grown, 0, 8);
  ASSERT_EQ(log_->Find(grown.off)->original.size(), 8u);
  Scribble(grown, 0, 256);
  ASSERT_EQ(log_->Find(grown.off)->original.size(), 256u);

  // One entry of more than 32 KiB (over 500 lines).
  const size_t table_size = 40 * 1024;
  const Oid table = *pool_->Zalloc(table_size);
  track(table, table_size);
  Scribble(table, 0, table_size);
  ASSERT_EQ(log_->Find(table.off)->original.size(), table_size);

  // A realloc-created entry: its extent is the new size before any
  // persist lands there.
  const Oid moved = *pool_->Realloc(objects[1].first, 3000);
  ASSERT_NE(moved.off, objects[1].first.off);
  ASSERT_NE(log_->Find(moved.off), nullptr);
  objects.erase(objects.begin() + 1);
  track(moved, 3000);

  RandomPersists(objects, 3000);
  EXPECT_GT(log_->stats().records.load(),
            static_cast<uint64_t>(log_->entry_count()) * 2)
      << "persists should evict from the two-version rings";
  CheckAll(*log_, lo - 256, hi + 256, rng_);

  // The restored log rebuilds its indexes from the image and keeps them
  // exact as it records more: new entries, growth, evictions.
  const auto image = log_->Serialize();
  log_->Detach();
  CheckpointLog fresh(*pool_, CheckpointConfig{/*max_versions=*/2});
  ASSERT_TRUE(fresh.Restore(image).ok());
  CheckAll(fresh, lo - 256, hi + 256, rng_);
  const Oid late = *pool_->Zalloc(400);
  track(late, 400);
  Scribble(late, 0, 8);
  Scribble(late, 0, 400);
  ASSERT_EQ(fresh.Find(late.off)->original.size(), 400u);
  RandomPersists(objects, 1000);
  CheckAll(fresh, lo - 256, hi + 256, rng_);
}

TEST_F(CheckpointTest, LocateSeqFindsEntryAndVersion) {
  Oid oid = *pool_->Zalloc(64);
  WriteAndPersist(oid, 1);
  WriteAndPersist(oid, 2);
  const CheckpointEntry* entry = log_->Find(oid.off);
  auto loc = log_->LocateSeq(entry->versions[1].seq_num);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->first, oid.off);
  EXPECT_EQ(loc->second, 1);
  EXPECT_FALSE(log_->LocateSeq(9999).has_value());
}

TEST_F(CheckpointTest, SerializeRestoreRoundTrip) {
  Oid a = *pool_->Zalloc(64);
  Oid b = *pool_->Zalloc(64);
  WriteAndPersist(a, 1);
  WriteAndPersist(a, 2);
  {
    PmemTx tx(*pool_);
    ASSERT_TRUE(tx.AddRange(b, 0, 8).ok());
    *pool_->Direct<uint64_t>(b) = 9;
    ASSERT_TRUE(tx.Commit().ok());
  }
  Oid moved = *pool_->Realloc(b, 8192);
  const auto image = log_->Serialize();

  // A fresh log attached to the same pool, restored from the image, must
  // answer every query identically and revert correctly.
  CheckpointLog fresh(*pool_);
  ASSERT_TRUE(fresh.Restore(image).ok());
  EXPECT_EQ(fresh.entries().size(), log_->entries().size());
  EXPECT_EQ(fresh.LatestSeq(), log_->LatestSeq());
  EXPECT_EQ(fresh.NewestSeqAt(a.off), log_->NewestSeqAt(a.off));
  ASSERT_NE(fresh.Find(moved.off), nullptr);
  EXPECT_EQ(fresh.Find(moved.off)->old_entry, b.off);
  const SeqNum tx_seq = fresh.NewestSeqAt(b.off);
  EXPECT_EQ(fresh.SeqsInSameTx(tx_seq).size(),
            log_->SeqsInSameTx(tx_seq).size());
  log_->Detach();  // only one log may act on the pool's state now
  ASSERT_TRUE(fresh.RevertSeq(fresh.NewestSeqAt(a.off)).ok());
  EXPECT_EQ(ReadBack(a), 1u);
}

TEST_F(CheckpointTest, RestoreRejectsCorruptImages) {
  Oid a = *pool_->Zalloc(64);
  WriteAndPersist(a, 1);
  auto image = log_->Serialize();
  CheckpointLog fresh(*pool_);
  EXPECT_FALSE(fresh.Restore({}).ok());
  image[0] ^= 0xff;  // smash the magic
  EXPECT_FALSE(fresh.Restore(image).ok());
  auto truncated = log_->Serialize();
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(fresh.Restore(truncated).ok());
}

TEST_F(CheckpointTest, DetachStopsRecording) {
  Oid oid = *pool_->Zalloc(64);
  WriteAndPersist(oid, 1);
  log_->Detach();
  WriteAndPersist(oid, 2);
  EXPECT_EQ(log_->Find(oid.off)->versions.size(), 1u);
}

}  // namespace
}  // namespace arthas
