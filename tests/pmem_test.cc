// Unit tests for the simulated PM device and the pool allocator/transactions.

#include <cstdio>
#include <cstring>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "pmem/device.h"
#include "pmem/libpmem.h"
#include "pmem/pool.h"
#include "pmem/tx.h"

namespace arthas {
namespace {

TEST(PmemDeviceTest, WritesAreVisibleImmediately) {
  PmemDevice dev(4096);
  std::memcpy(dev.Live(100), "hello", 5);
  EXPECT_EQ(std::memcmp(dev.Live(100), "hello", 5), 0);
}

TEST(PmemDeviceTest, UnpersistedWritesDieAtCrash) {
  PmemDevice dev(4096);
  std::memcpy(dev.Live(100), "hello", 5);
  dev.Crash();
  EXPECT_EQ(dev.Live(100)[0], 0);
}

TEST(PmemDeviceTest, PersistedWritesSurviveCrash) {
  PmemDevice dev(4096);
  std::memcpy(dev.Live(100), "hello", 5);
  dev.Persist(100, 5);
  dev.Crash();
  EXPECT_EQ(std::memcmp(dev.Live(100), "hello", 5), 0);
}

TEST(PmemDeviceTest, PersistRoundsToCacheLines) {
  PmemDevice dev(4096);
  // Bytes sharing a cache line with a persisted byte also become durable,
  // exactly as clwb behaves.
  std::memcpy(dev.Live(64), "abcd", 4);
  dev.Persist(66, 1);
  dev.Crash();
  EXPECT_EQ(std::memcmp(dev.Live(64), "abcd", 4), 0);
}

TEST(PmemDeviceTest, FlushWithoutDrainIsNotDurable) {
  PmemDevice dev(4096);
  std::memcpy(dev.Live(0), "x", 1);
  dev.FlushLines(0, 1);
  dev.Crash();
  EXPECT_EQ(dev.Live(0)[0], 0);
}

TEST(PmemDeviceTest, FlushThenDrainIsDurable) {
  PmemDevice dev(4096);
  std::memcpy(dev.Live(0), "x", 1);
  dev.FlushLines(0, 1);
  dev.Drain();
  dev.Crash();
  EXPECT_EQ(dev.Live(0)[0], 'x');
}

TEST(PmemDeviceTest, LibpmemHelpersTranslatePointers) {
  PmemDevice dev(4096);
  char* p = reinterpret_cast<char*>(dev.Live(128));
  p[0] = 'z';
  PmemPersist(dev, p, 1);
  dev.Crash();
  EXPECT_EQ(dev.Live(128)[0], 'z');

  p[1] = 'y';
  Clwb(dev, p + 1, 1);
  Sfence(dev);
  dev.Crash();
  EXPECT_EQ(dev.Live(129)[0], 'y');
}

class RecordingObserver : public DurabilityObserver {
 public:
  void OnPersist(PmOffset offset, size_t size, const void* data) override {
    events.push_back({offset, size, std::string(static_cast<const char*>(data),
                                                std::min<size_t>(size, 16))});
  }
  struct Event {
    PmOffset offset;
    size_t size;
    std::string head;
  };
  std::vector<Event> events;
};

TEST(PmemDeviceTest, ObserversFireAtDurabilityPoints) {
  PmemDevice dev(4096);
  RecordingObserver obs;
  dev.AddObserver(&obs);
  std::memcpy(dev.Live(200), "data", 4);
  dev.Persist(200, 4);
  ASSERT_EQ(obs.events.size(), 1u);
  EXPECT_EQ(obs.events[0].offset, 200u);
  EXPECT_EQ(obs.events[0].size, 4u);
  EXPECT_EQ(obs.events[0].head, "data");
}

TEST(PmemDeviceTest, QuietPersistDoesNotNotify) {
  PmemDevice dev(4096);
  RecordingObserver obs;
  dev.AddObserver(&obs);
  dev.PersistQuiet(0, 8);
  EXPECT_TRUE(obs.events.empty());
}

TEST(PmemDeviceTest, SnapshotAndRestore) {
  PmemDevice dev(4096);
  std::memcpy(dev.Live(0), "v1", 2);
  dev.Persist(0, 2);
  auto snap = dev.SnapshotDurable();
  std::memcpy(dev.Live(0), "v2", 2);
  dev.Persist(0, 2);
  ASSERT_TRUE(dev.RestoreDurable(snap).ok());
  EXPECT_EQ(std::memcmp(dev.Live(0), "v1", 2), 0);
}

TEST(PmemDeviceTest, OffsetOfRejectsForeignPointers) {
  PmemDevice dev(4096);
  int local = 0;
  EXPECT_EQ(dev.OffsetOf(&local), kNullPmOffset);
  EXPECT_EQ(dev.OffsetOf(dev.Live(10)), 10u);
}

// --- Pool tests ------------------------------------------------------------

TEST(PmemPoolTest, CreateAndCheck) {
  auto pool = PmemPool::Create("test", 256 * 1024);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  EXPECT_TRUE((*pool)->CheckIntegrity().ok());
}

TEST(PmemPoolTest, ZallocReturnsZeroedDurableMemory) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto oid = pool->Zalloc(128);
  ASSERT_TRUE(oid.ok());
  auto* p = pool->Direct<uint8_t>(*oid);
  for (int i = 0; i < 128; i++) {
    EXPECT_EQ(p[i], 0);
  }
}

TEST(PmemPoolTest, AllocationsDoNotOverlap) {
  auto pool = *PmemPool::Create("test", 1024 * 1024);
  std::set<std::pair<PmOffset, PmOffset>> ranges;
  for (int i = 0; i < 100; i++) {
    auto oid = pool->Zalloc(64 + i);
    ASSERT_TRUE(oid.ok());
    size_t sz = *pool->UsableSize(*oid);
    for (const auto& [lo, hi] : ranges) {
      EXPECT_TRUE(oid->off >= hi || oid->off + sz <= lo);
    }
    ranges.insert({oid->off, oid->off + sz});
  }
  EXPECT_TRUE(pool->CheckIntegrity().ok());
}

TEST(PmemPoolTest, FreeAndReuse) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto a = *pool->Zalloc(100);
  ASSERT_TRUE(pool->Free(a).ok());
  auto b = *pool->Zalloc(100);
  EXPECT_EQ(a.off, b.off);  // first-fit reuses the freed block
}

TEST(PmemPoolTest, DoubleFreeIsRejected) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto a = *pool->Zalloc(100);
  ASSERT_TRUE(pool->Free(a).ok());
  EXPECT_EQ(pool->Free(a).code(), StatusCode::kFailedPrecondition);
}

TEST(PmemPoolTest, ExhaustionReturnsOutOfSpace) {
  auto pool = *PmemPool::Create("test", 128 * 1024);
  for (;;) {
    auto oid = pool->Zalloc(4096);
    if (!oid.ok()) {
      EXPECT_EQ(oid.status().code(), StatusCode::kOutOfSpace);
      break;
    }
  }
  EXPECT_TRUE(pool->CheckIntegrity().ok());
}

TEST(PmemPoolTest, CoalescingRecoversSpaceAfterFragmentation) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  std::vector<Oid> oids;
  for (;;) {
    auto oid = pool->Zalloc(1024);
    if (!oid.ok()) {
      break;
    }
    oids.push_back(*oid);
  }
  for (Oid oid : oids) {
    ASSERT_TRUE(pool->Free(oid).ok());
  }
  // A large allocation must succeed after coalescing.
  auto big = pool->Zalloc(oids.size() * 1024 / 2);
  EXPECT_TRUE(big.ok()) << big.status().ToString();
  EXPECT_TRUE(pool->CheckIntegrity().ok());
}

TEST(PmemPoolTest, RootIsStableAcrossCalls) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto r1 = *pool->Root(64);
  auto r2 = *pool->Root(64);
  EXPECT_EQ(r1.off, r2.off);
}

TEST(PmemPoolTest, RootSurvivesCrash) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto root = *pool->Root(64);
  auto* p = pool->Direct<uint64_t>(root);
  *p = 0xdeadbeef;
  pool->Persist(root, 0, 8);
  ASSERT_TRUE(pool->CrashAndRecover().ok());
  EXPECT_EQ(*pool->Direct<uint64_t>(*pool->Root(64)), 0xdeadbeefu);
}

TEST(PmemPoolTest, UnpersistedObjectDataLostOnCrash) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto root = *pool->Root(64);
  *pool->Direct<uint64_t>(root) = 42;
  // No persist.
  ASSERT_TRUE(pool->CrashAndRecover().ok());
  EXPECT_EQ(*pool->Direct<uint64_t>(root), 0u);
}

TEST(PmemPoolTest, ReallocPreservesPayload) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto oid = *pool->Zalloc(32);
  std::memcpy(pool->Direct(oid), "payload", 8);
  pool->Persist(oid, 0, 8);
  auto grown = pool->Realloc(oid, 4096);
  ASSERT_TRUE(grown.ok());
  EXPECT_NE(grown->off, oid.off);
  EXPECT_EQ(std::memcmp(pool->Direct(*grown), "payload", 8), 0);
  EXPECT_TRUE(pool->CheckIntegrity().ok());
}

TEST(PmemPoolTest, OverrunClobbersOnlyNeighborPayload) {
  // Allocator metadata is out-of-band (as in PMDK): an overrun from one
  // object damages the neighbor's *payload*, never heap metadata — the
  // failure shape of the studied overflow bugs.
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto a = *pool->Zalloc(64);
  auto b = *pool->Zalloc(64);
  auto* p = pool->Direct<uint8_t>(a);
  std::memset(p, 0xff, 128);  // run 64 bytes past `a`
  pool->PersistRange(a.off, 128);
  EXPECT_TRUE(pool->CheckIntegrity().ok());
  // The neighbor's payload took the damage.
  if (b.off == a.off + 64) {
    EXPECT_EQ(*pool->Direct<uint8_t>(b), 0xff);
  }
}

TEST(PmemPoolTest, IntegrityCheckCatchesCorruptPoolHeader) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  (void)*pool->Zalloc(64);
  ASSERT_TRUE(pool->CheckIntegrity().ok());
  // Flip a byte inside the checksummed pool header.
  pool->device().Live(16)[0] ^= 0xff;
  EXPECT_FALSE(pool->CheckIntegrity().ok());
}

// --- Transaction tests -------------------------------------------------------

TEST(PmemTxTest, CommitMakesDataDurable) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto oid = *pool->Zalloc(64);
  {
    PmemTx tx(*pool);
    ASSERT_TRUE(tx.status().ok());
    ASSERT_TRUE(tx.AddRange(oid, 0, 8).ok());
    *pool->Direct<uint64_t>(oid) = 7;
    ASSERT_TRUE(tx.Commit().ok());
  }
  ASSERT_TRUE(pool->CrashAndRecover().ok());
  EXPECT_EQ(*pool->Direct<uint64_t>(oid), 7u);
}

TEST(PmemTxTest, AbortRestoresOldData) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto oid = *pool->Zalloc(64);
  *pool->Direct<uint64_t>(oid) = 1;
  pool->Persist(oid, 0, 8);
  {
    PmemTx tx(*pool);
    ASSERT_TRUE(tx.AddRange(oid, 0, 8).ok());
    *pool->Direct<uint64_t>(oid) = 2;
    // Destructor aborts.
  }
  EXPECT_EQ(*pool->Direct<uint64_t>(oid), 1u);
}

TEST(PmemTxTest, CrashMidTransactionRollsBackOnRecovery) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto oid = *pool->Zalloc(64);
  *pool->Direct<uint64_t>(oid) = 1;
  pool->Persist(oid, 0, 8);

  ASSERT_TRUE(pool->TxBegin().ok());
  ASSERT_TRUE(pool->TxAddRange(oid, 0, 8).ok());
  *pool->Direct<uint64_t>(oid) = 2;
  // Partially persist the in-flight value, then crash before commit.
  pool->device().PersistQuiet(oid.off, 8);
  ASSERT_TRUE(pool->CrashAndRecover().ok());
  EXPECT_EQ(*pool->Direct<uint64_t>(oid), 1u);
  EXPECT_FALSE(pool->InTx());
}

TEST(PmemTxTest, NestedTxRejected) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  ASSERT_TRUE(pool->TxBegin().ok());
  EXPECT_FALSE(pool->TxBegin().ok());
  ASSERT_TRUE(pool->TxCommit().ok());
}

TEST(PmemTxTest, SlotExhaustionReturnsBusyWithoutLatchingAnything) {
  auto pool = *PmemPool::Create("test", 1024 * 1024);
  auto oid = *pool->Zalloc(1024);

  // Occupy every concurrent-transaction slot.
  std::vector<TxContext> contexts(PmemPool::kMaxConcurrentTx);
  for (int i = 0; i < PmemPool::kMaxConcurrentTx; i++) {
    ASSERT_TRUE(pool->TxBegin(contexts[i]).ok()) << "slot " << i;
    ASSERT_TRUE(
        pool->TxAddRange(contexts[i], oid, static_cast<size_t>(i) * 64, 8)
            .ok());
  }

  // One more begin must fail with a clean, retryable kBusy — not latch an
  // abort, poison the pool, or disturb the live transactions.
  TxContext overflow;
  const Status busy = pool->TxBegin(overflow);
  EXPECT_EQ(busy.code(), StatusCode::kBusy) << busy.ToString();
  EXPECT_FALSE(overflow.active);

  // Every held transaction still commits cleanly...
  for (int i = 0; i < PmemPool::kMaxConcurrentTx; i++) {
    auto* word = reinterpret_cast<uint64_t*>(pool->Direct<uint8_t>(oid) +
                                             static_cast<size_t>(i) * 64);
    *word = static_cast<uint64_t>(i) + 1;
    EXPECT_TRUE(pool->TxCommit(contexts[i]).ok()) << "slot " << i;
  }
  // ...after which a fresh begin succeeds and the pool is intact.
  EXPECT_TRUE(pool->TxBegin(overflow).ok());
  EXPECT_TRUE(pool->TxAbort(overflow).ok());
  EXPECT_TRUE(pool->CheckIntegrity().ok());
  ASSERT_TRUE(pool->CrashAndRecover().ok());
  for (int i = 0; i < PmemPool::kMaxConcurrentTx; i++) {
    const auto* word = reinterpret_cast<const uint64_t*>(
        pool->Direct<uint8_t>(oid) + static_cast<size_t>(i) * 64);
    EXPECT_EQ(*word, static_cast<uint64_t>(i) + 1);
  }
}

class PoolEventRecorder : public PoolObserver {
 public:
  void OnAlloc(PmOffset offset, size_t size) override {
    allocs.push_back({offset, size});
  }
  void OnFree(PmOffset offset, size_t size) override {
    frees.push_back({offset, size});
  }
  void OnRealloc(PmOffset old_offset, size_t, PmOffset new_offset,
                 size_t) override {
    reallocs.push_back({old_offset, new_offset});
  }
  void OnTxBegin(uint64_t id) override { tx_begins.push_back(id); }
  void OnTxCommit(uint64_t id) override { tx_commits.push_back(id); }

  std::vector<std::pair<PmOffset, size_t>> allocs, frees;
  std::vector<std::pair<PmOffset, PmOffset>> reallocs;
  std::vector<uint64_t> tx_begins, tx_commits;
};

TEST(PmemPoolTest, ObserverSeesLifecycleEvents) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  PoolEventRecorder rec;
  pool->AddObserver(&rec);
  auto a = *pool->Zalloc(100);
  auto b = *pool->Realloc(a, 5000);
  ASSERT_TRUE(pool->Free(b).ok());
  ASSERT_TRUE(pool->TxBegin().ok());
  ASSERT_TRUE(pool->TxCommit().ok());

  ASSERT_EQ(rec.allocs.size(), 1u);
  ASSERT_EQ(rec.reallocs.size(), 1u);
  EXPECT_EQ(rec.reallocs[0].first, a.off);
  EXPECT_EQ(rec.reallocs[0].second, b.off);
  ASSERT_EQ(rec.frees.size(), 1u);
  EXPECT_EQ(rec.tx_begins, rec.tx_commits);
}

// Property-style sweep: random alloc/free/crash sequences keep the pool
// metadata consistent for a range of pool sizes.
// The pool's placement rule, computed from the public API alone: the
// lowest-offset free block at least as large as the request rounded up to
// a power of two (32 B minimum). kNullPmOffset when no free block fits.
PmOffset ExpectedPlacement(const PmemPool& pool, size_t size) {
  size_t block = 32;
  while (block < size) {
    block <<= 1;
  }
  PmOffset best = kNullPmOffset;
  pool.ForEachBlock([&](PmOffset off, size_t bsize, bool used) {
    if (!used && bsize >= block && off < best) {
      best = off;
    }
  });
  return best;
}

class PoolFuzzTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PoolFuzzTest, RandomOpsPreserveIntegrity) {
  auto pool = *PmemPool::Create("fuzz", GetParam());
  uint64_t seed = GetParam() * 2654435761u;
  std::vector<Oid> live;
  // Mostly small requests, one in eight up to 8 KiB, so allocations split
  // large blocks and frees merge several levels back up.
  auto request_size = [&seed](int shift) -> size_t {
    const size_t limit = (seed >> 45) % 8 == 0 ? 8192 : 512;
    return 16 + (seed >> shift) % limit;
  };
  for (int i = 0; i < 600; i++) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t pick = (seed >> 33) % 100;
    if (pick < 55) {
      const size_t size = request_size(17);
      const PmOffset want = ExpectedPlacement(*pool, size);
      auto oid = pick < 40 ? pool->Zalloc(size) : pool->Alloc(size);
      if (want == kNullPmOffset) {
        ASSERT_EQ(oid.status().code(), StatusCode::kOutOfSpace)
            << "iteration " << i;
      } else {
        ASSERT_TRUE(oid.ok()) << "iteration " << i;
        ASSERT_EQ(oid->off, want) << "iteration " << i << " size " << size;
        live.push_back(*oid);
      }
    } else if (pick < 85 && !live.empty()) {
      size_t idx = (seed >> 7) % live.size();
      ASSERT_TRUE(pool->Free(live[idx]).ok());
      live.erase(live.begin() + idx);
    } else if (pick < 95 && !live.empty()) {
      size_t idx = (seed >> 9) % live.size();
      const size_t new_size = request_size(21);
      const size_t old_size = *pool->UsableSize(live[idx]);
      const PmOffset want = new_size <= old_size
                                ? live[idx].off
                                : ExpectedPlacement(*pool, new_size);
      auto grown = pool->Realloc(live[idx], new_size);
      if (want == kNullPmOffset) {
        ASSERT_EQ(grown.status().code(), StatusCode::kOutOfSpace)
            << "iteration " << i;
      } else {
        ASSERT_TRUE(grown.ok()) << "iteration " << i;
        ASSERT_EQ(grown->off, want) << "iteration " << i << " size "
                                    << new_size;
        live[idx] = *grown;
      }
    } else {
      ASSERT_TRUE(pool->CrashAndRecover().ok());
    }
    ASSERT_TRUE(pool->CheckIntegrity().ok()) << "iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, PoolFuzzTest,
                         ::testing::Values(128 * 1024, 256 * 1024, 512 * 1024,
                                           1024 * 1024));

// --- Image replacement beneath a live pool ------------------------------------
//
// The allocator's free-order index is volatile state derived from the
// image. These cases replace the image under a pool whose index reflects a
// different layout, then check the next allocations against the image as
// it now stands.

struct Block {
  PmOffset off;
  size_t size;
};

std::vector<Block> UsedBlocks(const PmemPool& pool) {
  std::vector<Block> used;
  pool.ForEachBlock([&](PmOffset off, size_t size, bool is_used) {
    if (is_used) {
      used.push_back({off, size});
    }
  });
  return used;
}

// Allocates a mix of sizes and checks that each lands where the image's
// state tree says it must, overlaps none of the image's live objects, and
// leaves the pool consistent.
void ExpectAllocationsRespectImage(PmemPool& pool,
                                   const std::vector<Block>& image_used) {
  for (size_t size : {64, 32, 256, 128, 1024, 32, 4096}) {
    const PmOffset want = ExpectedPlacement(pool, size);
    ASSERT_NE(want, kNullPmOffset);
    auto oid = pool.Alloc(size);
    ASSERT_TRUE(oid.ok()) << oid.status().message();
    EXPECT_EQ(oid->off, want) << "size " << size;
    const size_t block = *pool.UsableSize(*oid);
    for (const Block& b : image_used) {
      EXPECT_TRUE(oid->off + block <= b.off || b.off + b.size <= oid->off)
          << "allocation at " << oid->off << " overlaps live object at "
          << b.off;
    }
    ASSERT_TRUE(pool.CheckIntegrity().ok());
  }
}

// Allocates `count` 64-byte objects: they pack the low end of the heap.
std::vector<Oid> AllocSmall(PmemPool& pool, int count) {
  std::vector<Oid> oids;
  for (int i = 0; i < count; i++) {
    oids.push_back(*pool.Alloc(64));
  }
  return oids;
}

// Frees the low objects and fills the heap with a different layout, so an
// index left over from this state would steer the next allocations into
// blocks the earlier image holds live.
void Relayout(PmemPool& pool, const std::vector<Oid>& low) {
  for (const Oid& oid : low) {
    ASSERT_TRUE(pool.Free(oid).ok());
  }
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(pool.Alloc(2048).ok());
  }
}

TEST(PoolImageReplacementTest, DeviceCrashWithoutRecover) {
  auto pool = *PmemPool::Create("img", 128 * 1024);
  AllocSmall(*pool, 12);
  const std::vector<Block> image_used = UsedBlocks(*pool);
  pool->device().Crash();
  EXPECT_EQ(UsedBlocks(*pool).size(), image_used.size());
  ExpectAllocationsRespectImage(*pool, image_used);
}

TEST(PoolImageReplacementTest, RestoreDurableOfEarlierSnapshot) {
  auto pool = *PmemPool::Create("img", 128 * 1024);
  const std::vector<Oid> low = AllocSmall(*pool, 12);
  const std::vector<Block> image_used = UsedBlocks(*pool);
  const std::vector<uint8_t> snapshot = pool->device().SnapshotDurable();
  Relayout(*pool, low);
  ASSERT_TRUE(pool->device().RestoreDurable(snapshot).ok());
  ASSERT_EQ(UsedBlocks(*pool).size(), image_used.size());
  ExpectAllocationsRespectImage(*pool, image_used);
}

TEST(PoolImageReplacementTest, LoadFromFileIntoLivePool) {
  auto pool = *PmemPool::Create("img", 128 * 1024);
  const std::vector<Oid> low = AllocSmall(*pool, 12);
  const std::vector<Block> image_used = UsedBlocks(*pool);
  const std::string path = ::testing::TempDir() + "arthas_pool_relayout.img";
  ASSERT_TRUE(pool->device().SaveToFile(path).ok());
  Relayout(*pool, low);
  ASSERT_TRUE(pool->device().LoadFromFile(path).ok());
  std::remove(path.c_str());
  ASSERT_EQ(UsedBlocks(*pool).size(), image_used.size());
  ExpectAllocationsRespectImage(*pool, image_used);
}

TEST(PoolImageReplacementTest, CrashAndRecover) {
  auto pool = *PmemPool::Create("img", 128 * 1024);
  const std::vector<Oid> low = AllocSmall(*pool, 12);
  ASSERT_TRUE(pool->Free(low[3]).ok());
  ASSERT_TRUE(pool->Free(low[4]).ok());
  const std::vector<Block> image_used = UsedBlocks(*pool);
  ASSERT_TRUE(pool->CrashAndRecover().ok());
  EXPECT_EQ(UsedBlocks(*pool).size(), image_used.size());
  ExpectAllocationsRespectImage(*pool, image_used);
}

TEST(PmemPoolTest, IntegrityCheckCatchesDriftedIndex) {
  auto pool = *PmemPool::Create("drift", 128 * 1024);
  const Oid a = *pool->Alloc(32);
  const Oid b = *pool->Alloc(32);
  ASSERT_EQ(b.off, a.off + 32);  // buddies
  // Freeing b (its buddy stays used, so nothing merges) rewrites the pool
  // header and exactly one state byte, the highest changed metadata byte.
  const size_t meta = a.off;  // the heap starts at the first allocation
  const std::vector<uint8_t> before(pool->device().Live(0),
                                    pool->device().Live(meta));
  ASSERT_TRUE(pool->Free(b).ok());
  size_t state_byte = 0;
  for (size_t off = 0; off < meta; off++) {
    if (pool->device().Live(off)[0] != before[off]) {
      state_byte = off;
    }
  }
  ASSERT_GT(state_byte, 0u);
  ASSERT_TRUE(pool->CheckIntegrity().ok());
  // Mark b used again behind the allocator's back.
  *pool->device().Live(state_byte) = before[state_byte];
  const Status status = pool->CheckIntegrity();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(status.message(), "free-order index mismatch");
  // The allocator refuses to hand out a block the index and the state tree
  // disagree on.
  EXPECT_EQ(pool->Alloc(32).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace arthas
