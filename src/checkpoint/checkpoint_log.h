// PM-aware fine-grained checkpointing with versioning (paper Section 4.2).
//
// Unlike CRIU/Flashback-style coarse snapshots, the Arthas checkpoint log
// versions PM state *per program variable/address*, eagerly at each
// persistence point. The log entry mirrors the paper's Figure 5: the PM
// address, a ring of up to MAX_VERSIONS data versions with per-version sizes
// and logical sequence numbers, and old_entry/new_entry links created by
// reallocation.
//
// Both the granularity and timing follow the target program: the log
// subscribes to the pool's durability events, so an entry is created exactly
// for the byte range the program chose to persist, exactly when the persist
// (or transaction commit) succeeds. Updates that never reach a durability
// point are never checkpointed — they would not survive a crash anyway.
//
// In the paper the log lives in a dedicated PM region. Here it lives in the
// Arthas runtime (outside the simulated pool), which models the same thing:
// it survives target-system crashes because the reactor's process is not the
// target's process.
//
// Hot-path data layout (see DESIGN.md "Hot path"): each shard indexes its
// entries with an open-addressing flat hash table (bucket array of slot
// indices probing linearly, entries in an append-only deque so pointers stay
// stable across rehash), and copies version payloads into a per-shard
// size-classed arena instead of per-version heap vectors. One OnPersist is a
// hash probe plus two arena copies — no tree rebalancing and, in steady
// state, no allocator calls. A second flat table per shard maps each cache
// line to the entries covering it; it changes only when an entry's extent
// reaches a new line, and turns the reactor's Overlapping into a point
// lookup.
//
// Concurrency model (see DESIGN.md "Concurrency model"):
//   * The per-address entry index is sharded by offset hash with a lock per
//     shard, so OnPersist callbacks from concurrent flushers never contend
//     on one index. Sequence numbers come from one atomic counter (a global
//     total order; 1,2,3,... single-threaded) allocated under the shard
//     lock, so each shard's seq->address slice is append-ordered: the index
//     is a sorted vector, not a map.
//   * Observer callbacks (OnPersist/OnAlloc/...) are thread-safe. Lock
//     order: device stripes -> entry shard -> aux mutex (allocation and
//     transaction maps).
//   * Transaction attribution is per-thread: begin/persist/commit of one
//     transaction run on the thread executing it. seq->tx pairs are staged
//     in a per-thread buffer (a common/thread_registry.h ThreadRegistry
//     entry; no lock on the persist path) and published
//     into the global maps when the owning thread commits; queries that need
//     the maps (SeqsInSameTx, Serialize) drain every thread's buffer first,
//     which is safe because they are caller-serialized (quiesced).
//   * The reversion primitives (RevertSeq/RollbackToSeq/RevertLatestAt) and
//     Serialize/Restore are caller-serialized: the reactor quiesces worker
//     threads before reverting, as a real recovery process owns the pool
//     exclusively. They touch the device's raw-restore path, which must not
//     run under shard locks (it takes device stripes).
//   * Find/Overlapping return pointers into the log; entries are never
//     erased (only Restore replaces them), so the pointers stay valid, but
//     reading them races with concurrent flushers — reactor-side use only.
//   * PayloadRef views (CheckpointVersion::data/pre) borrow arena storage:
//     a view stays valid until its version is evicted from the ring or
//     discarded by a reversion (the span is then recycled). Snapshots from
//     entries() share the views; read them before mutating the log.

#ifndef ARTHAS_CHECKPOINT_CHECKPOINT_LOG_H_
#define ARTHAS_CHECKPOINT_CHECKPOINT_LOG_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/thread_registry.h"
#include "obs/resource/resource_accountant.h"
#include "pmem/pool.h"

namespace arthas {

// A logical timestamp ordering all checkpointed PM updates.
using SeqNum = uint64_t;
constexpr SeqNum kNoSeq = 0;

struct CheckpointConfig {
  // Maximum retained versions per entry (paper default: 3).
  int max_versions = 3;
};

// Read-only view of a version payload stored in a checkpoint arena. Same
// read surface as the const side of std::vector<uint8_t> (data/size/
// begin/end/operator[]), so existing consumers compile unchanged. Validity
// follows the version that owns it (see the concurrency notes above).
class PayloadRef {
 public:
  PayloadRef() = default;
  PayloadRef(const uint8_t* data, size_t size)
      : data_(data), size_(static_cast<uint32_t>(size)) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }
  uint8_t operator[](size_t i) const { return data_[i]; }

 private:
  const uint8_t* data_ = nullptr;
  uint32_t size_ = 0;
};

// Bump-pointer arena with power-of-two size-class recycling, one per
// checkpoint shard. Payload copies on the persist path come from here: a
// fresh span is carved off the current chunk (or popped from a free list
// once versions start getting evicted), so steady-state checkpointing does
// no general-purpose heap allocation per persist. Spans released back keep
// their class and are reused verbatim; spans larger than the chunk size get
// a dedicated chunk and are not recycled (reclaimed only by Clear).
// Externally synchronized (the owning shard's mutex, or caller-serialized).
// Byte accounting (the capacity plane, obs/resource): the arena registers
// read functions for the process-wide cells "checkpoint.arena.bytes"
// (chunk footprint), "checkpoint.arena.live.bytes" (spans held by
// versions) and "checkpoint.arena.freelist.bytes" (spans awaiting reuse)
// over its own three counters. The counters are relaxed atomics written
// only by the serialized owner, so a capacity read takes no shard lock; a
// Store/Release round-trip returns the cells to their starting values and
// a destroyed arena's bytes leave them (tests/resource_test.cc).
class PayloadArena {
 public:
  PayloadArena();

  PayloadArena(const PayloadArena&) = delete;
  PayloadArena& operator=(const PayloadArena&) = delete;

  // Copies [src, src+size) into the arena and returns a view of the copy.
  PayloadRef Store(const uint8_t* src, size_t size);

  // Recycles a span previously returned by Store on this arena. The bytes
  // may be overwritten by any later Store.
  void Release(PayloadRef ref);

  // Drops every chunk; all outstanding PayloadRefs become invalid.
  void Clear();

  size_t allocated_bytes() const {
    return allocated_bytes_.load(std::memory_order_relaxed);
  }
  // Bytes handed out by Store and not yet Released. Large spans
  // (> kMaxSmall) stay live until Clear, mirroring their lifetime.
  size_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }
  // Bytes parked on the size-class free lists, ready for reuse.
  size_t freelist_bytes() const {
    return freelist_bytes_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kChunkBytes = 64 * 1024;
  static constexpr size_t kMinClass = 16;
  static constexpr size_t kMaxSmall = kChunkBytes;
  // Classes 16, 32, ..., 65536.
  static constexpr size_t kNumClasses = 13;

  static size_t ClassOf(size_t size) {
    size_t cls = 0;
    size_t cap = kMinClass;
    while (cap < size) {
      cap <<= 1;
      cls++;
    }
    return cls;
  }
  // The span footprint Store(size) actually occupies (its class's bytes;
  // exact size for large spans).
  static size_t SpanBytes(size_t size) {
    return size > kMaxSmall ? size : kMinClass << ClassOf(size);
  }

  // Single-writer counter updates: a relaxed load and store, no
  // read-modify-write (only the serialized owner writes).
  static void Add(std::atomic<size_t>& counter, size_t bytes) {
    counter.store(counter.load(std::memory_order_relaxed) + bytes,
                  std::memory_order_relaxed);
  }
  static void Sub(std::atomic<size_t>& counter, size_t bytes) {
    counter.store(counter.load(std::memory_order_relaxed) - bytes,
                  std::memory_order_relaxed);
  }

  uint8_t* Alloc(size_t size);

  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  uint8_t* cursor_ = nullptr;  // bump pointer into chunks_.back()
  size_t remaining_ = 0;
  std::atomic<size_t> allocated_bytes_{0};
  std::atomic<size_t> live_bytes_{0};
  std::atomic<size_t> freelist_bytes_{0};
  std::array<std::vector<uint8_t*>, kNumClasses> free_;
  // Declared last so they unregister before the counters they read die.
  obs::ResourceSource chunk_source_;
  obs::ResourceSource live_source_;
  obs::ResourceSource freelist_source_;
};

// One retained version of a PM address range. Payloads are views into the
// owning shard's arena (valid until this version is evicted or reverted).
struct CheckpointVersion {
  SeqNum seq_num = kNoSeq;
  uint64_t tx_id = 0;  // 0 when the update was outside any transaction
  PayloadRef data;
  // Durable bytes of the same range captured immediately before this
  // persist: the authoritative undo data for this version. Covers writes
  // that bypassed checkpointing (allocator metadata carved inside a
  // previously-persisted range, address reuse after free, external
  // corruption), which the version chain alone cannot reconstruct.
  PayloadRef pre;
};

// Per-address log entry (paper Figure 5).
struct CheckpointEntry {
  PmOffset address = kNullPmOffset;
  // Bytes that were durable at this address before the first retained
  // version (version "-1"); reverting the oldest version restores these.
  std::vector<uint8_t> original;
  // Oldest-first ring of retained versions (newest at the back).
  std::vector<CheckpointVersion> versions;
  // Realloc linkage.
  PmOffset old_entry = kNullPmOffset;
  PmOffset new_entry = kNullPmOffset;

  // The recorded range is [address, address + extent()): the pre-history
  // or the newest version, whichever is longer.
  size_t extent() const {
    return std::max(original.size(),
                    versions.empty() ? size_t{0} : versions.back().data.size());
  }
};

// Fields are atomics so the harness can read them while flushers record.
struct CheckpointStats {
  std::atomic<uint64_t> records{0};  // persists checkpointed
  std::atomic<uint64_t> bytes_copied{0};
  std::atomic<uint64_t> reverted_updates{0};  // versions undone by reversion
};

// Tracks object lifetimes for the leak-mitigation workflow (Section 4.7).
struct AllocationRecord {
  PmOffset offset = kNullPmOffset;
  size_t size = 0;
  SeqNum alloc_seq = kNoSeq;
  bool freed = false;
};

class CheckpointLog : public DurabilityObserver, public PoolObserver {
 public:
  // Attaches to the pool's device and pool observers. Detaches in the
  // destructor.
  CheckpointLog(PmemPool& pool, CheckpointConfig config = {});
  ~CheckpointLog() override;

  CheckpointLog(const CheckpointLog&) = delete;
  CheckpointLog& operator=(const CheckpointLog&) = delete;

  // --- Observer hooks (called by the pmem layer) ---------------------------
  void OnPersist(PmOffset offset, size_t size, const void* data) override;
  void OnAlloc(PmOffset offset, size_t size) override;
  void OnFree(PmOffset offset, size_t size) override;
  void OnRealloc(PmOffset old_offset, size_t old_size, PmOffset new_offset,
                 size_t new_size) override;
  void OnTxBegin(uint64_t tx_id) override;
  void OnTxCommit(uint64_t tx_id) override;

  // --- Queries (used by the reactor) ---------------------------------------

  // Snapshot of all entries, merged across shards into address order. The
  // copies share PayloadRef views with the log — read them before mutating
  // it. Prefer ForEachEntry in loops: this materializes a full map.
  std::map<PmOffset, CheckpointEntry> entries() const;

  // Visits every entry without materializing a merged copy. Iteration is
  // shard-grouped (insertion order within a shard, not address order); each
  // shard's lock is held while its slice is visited, so the callback must
  // not call back into the log.
  void ForEachEntry(
      const std::function<void(const CheckpointEntry&)>& fn) const;

  // Number of distinct addresses with a log entry.
  size_t entry_count() const { return entry_count_.load(); }

  // Capacity accounting, maintained under the shard mutexes and readable
  // lock-free (the capacity cells and perfbench read these):
  // heap bytes held by the shard payload arenas (chunk footprint), ...
  uint64_t arena_bytes() const;
  // ... heap bytes held by the per-shard indexes (entry slots, pre-history
  // originals, hash buckets, seq index), ...
  uint64_t index_bytes() const { return index_bytes_.load(); }
  // ... and versions currently retained across all entries.
  uint64_t retained_versions() const { return retained_versions_.load(); }

  // Entry at exactly `address`, or nullptr.
  const CheckpointEntry* Find(PmOffset address) const;

  // Entries whose recorded range overlaps [offset, offset+size), in address
  // order. A point lookup: each shard's cache-line index is probed for the
  // lines of the range (see Shard::lines), so the cost is the number of
  // lines queried times kNumShards plus the hits, not the log's size. An
  // entry's range is [address, address + extent()).
  std::vector<const CheckpointEntry*> Overlapping(PmOffset offset,
                                                  size_t size) const;

  // The (entry address, version index) holding sequence number `seq`.
  std::optional<std::pair<PmOffset, int>> LocateSeq(SeqNum seq) const;

  // Sequence numbers recorded within the same transaction as `seq`
  // (including `seq` itself); just {seq} if it was not transactional.
  // Caller-serialized (drains the per-thread attribution buffers).
  std::vector<SeqNum> SeqsInSameTx(SeqNum seq) const;

  // Largest sequence number issued so far.
  SeqNum LatestSeq() const { return next_seq_.load() - 1; }

  // --- Reversion primitives (used by the reactor) ---------------------------
  //
  // Caller-serialized: quiesce concurrent flushers first (the reactor's
  // recovery process owns the pool exclusively).

  // Undoes the update with sequence number `seq`: restores the previous
  // version's bytes (or the original bytes) at the entry's address, in both
  // the live and durable images. Newer retained versions of the same entry
  // are discarded (they were built on the reverted value).
  //
  // Returns true when the *divergence rule* fired instead: the bytes at the
  // address no longer matched what this (newest) version persisted — the
  // state was corrupted outside program order (e.g. a written-back bit
  // flip) — and reverting restored the checkpointed good version itself.
  Result<bool> RevertSeq(SeqNum seq);

  // Time-ordered rollback: undoes *every* update with sequence number
  // >= `seq` (ArCkpt/rollback-mode building block). Returns the number of
  // updates discarded.
  Result<uint64_t> RollbackToSeq(SeqNum seq);

  // Sequence number of the newest retained version at `address`, or kNoSeq.
  SeqNum NewestSeqAt(PmOffset address) const;

  // Newest retained sequence number across all entries, or kNoSeq.
  SeqNum NewestRetainedSeq() const;

  // Reverts the newest retained version at `address` (the reactor's
  // "try an older version v-2 ..." step, paper Section 4.5).
  Status RevertLatestAt(PmOffset address);

  // --- Leak mitigation support ----------------------------------------------

  // All allocations never freed, oldest first.
  std::vector<AllocationRecord> UnfreedAllocations() const;

  // Sequence number at which the allocation currently covering `address`
  // was made (kNoSeq when unknown). Versions recorded before this epoch
  // belong to a *previous object* that lived at the same address; reverting
  // must not resurrect its bytes into the current object.
  SeqNum AllocationEpoch(PmOffset address) const;

  const CheckpointStats& stats() const { return stats_; }

  // Detach from the pool without destroying recorded state (used when the
  // overhead benchmarks want a vanilla run after an instrumented one).
  void Detach();

  // --- Log persistence ------------------------------------------------------
  //
  // In the paper the checkpoint log itself lives in a persistent region, so
  // a reactor restart does not lose the versioned history. These serialize
  // the log (entries, versions with undo bytes, tx groups, allocation
  // records) to a byte buffer and restore it into a freshly attached log.
  // Caller-serialized.
  std::vector<uint8_t> Serialize() const;
  Status Restore(const std::vector<uint8_t>& image);

 private:
  // One cache-line index bucket; slot == 0 marks an empty bucket.
  struct LineBucket {
    uint32_t line = 0;  // low 32 bits of offset / kCacheLineSize
    uint32_t slot = 0;  // slot index + 1 of an entry covering the line
  };

  // One lock-striped slice of the per-address entry index.
  struct Shard {
    mutable std::mutex mutex;
    // Open-addressing index: each bucket holds (slot index + 1), 0 = empty.
    // Power-of-two size, linear probing; entries are never individually
    // erased, so no tombstones. Rebuilt in place when load passes 3/4.
    std::vector<uint32_t> buckets;
    // Append-only entry storage. A deque keeps entry addresses stable, so
    // Find/Overlapping pointers survive rehashes and new inserts.
    std::deque<CheckpointEntry> slots;
    // Cache-line index for Overlapping: one bucket per (line, entry) pair
    // for every cache line an entry's extent covers (a zero-byte extent
    // claims the line holding its address). An open-addressing multimap
    // like `buckets`: power-of-two size, linear probing, load <= 3/4, no
    // erasure — an extent only grows (Restore rebuilds the whole index),
    // so maintenance appends the newly covered lines. A bucket keeps the
    // line's low 32 bits as its key; a truncated-key collision only yields
    // a candidate Overlapping's exact extent check rejects.
    std::vector<LineBucket> lines;
    size_t line_count = 0;
    // (seq, entry address) pairs in seq order — seqs are allocated under
    // the shard mutex, so plain append keeps this sorted and LocateSeq is
    // a binary search. Validated against the entry's retained versions at
    // query time since reverts discard versions. This shard's slice of the
    // global sequence order.
    std::vector<std::pair<SeqNum, PmOffset>> seq_index;
    // Version payload storage (CheckpointVersion::data/pre spans).
    PayloadArena arena;
  };
  static constexpr size_t kNumShards = 16;

  // Staged seq->tx pairs of one thread, appended without a lock on the
  // persist path and published under aux_mutex_ at commit/query time.
  struct TxBuffer {
    std::vector<std::pair<SeqNum, uint64_t>> pairs;
  };

  static size_t ShardOf(PmOffset address);
  Shard& ShardFor(PmOffset address) { return shards_[ShardOf(address)]; }
  const Shard& ShardFor(PmOffset address) const {
    return shards_[ShardOf(address)];
  }

  // Flat-hash helpers. All require `shard.mutex` (or caller-serialization).
  // Slot index + 1 of the entry at `address`, or 0.
  static uint32_t SlotOf(const Shard& shard, PmOffset address);
  static CheckpointEntry* FindSlot(Shard& shard, PmOffset address);
  static const CheckpointEntry* FindSlot(const Shard& shard,
                                         PmOffset address);
  static void InsertBucket(Shard& shard, PmOffset address, uint32_t slot);
  // Index of the cache line holding the last byte of [address, address +
  // extent), or of `address` itself for a zero-byte extent.
  static uint64_t LastLine(PmOffset address, size_t extent);
  // Adds (line, slot) for lines [first, last] to the shard's cache-line
  // index (none when first > last). Callers pass the lines an extent newly
  // covers, so no pair is indexed twice. Non-static: growth is index bytes.
  void IndexLinesLocked(Shard& shard, uint32_t slot, uint64_t first,
                        uint64_t last);
  // Non-static: rehashes account their bucket-array growth on this log.
  void RehashLocked(Shard& shard);
  // The entry at `address`, created (and its lines indexed) on first use;
  // `*slot` receives its slot index + 1.
  CheckpointEntry& GetOrCreateLocked(Shard& shard, PmOffset address,
                                     size_t size, uint32_t* slot);

  // Moves every thread's staged pairs into seq_to_tx_/tx_to_seqs_.
  // Requires aux_mutex_; races with nothing when caller-serialized.
  void PublishTxBuffersLocked() const;

  // State of the entry's extent after its first `upto` retained versions,
  // respecting the address's allocation epoch.
  std::vector<uint8_t> ReconstructState(const CheckpointEntry& entry,
                                        size_t upto) const;
  // Restore that steps around current allocator metadata in the range.
  void RestoreBytes(PmOffset address, const uint8_t* data, size_t size);
  // Index-footprint growth (entries never shrink outside destruction).
  void AddIndexBytes(size_t bytes);

  PmemPool* pool_;  // null after Detach()
  PmemDevice* device_;
  CheckpointConfig config_;
  std::array<Shard, kNumShards> shards_;
  // Guards the transaction and allocation maps (taken after a shard mutex,
  // never before one). The tx maps are lazily-published caches, so they are
  // mutable: const queries drain the staging buffers into them.
  mutable std::mutex aux_mutex_;
  mutable std::map<SeqNum, uint64_t> seq_to_tx_;
  mutable std::map<uint64_t, std::vector<SeqNum>> tx_to_seqs_;
  // Registration takes the registry's own lock; aux_mutex_ is taken first
  // when both are held.
  mutable ThreadRegistry<TxBuffer> tx_buffers_;
  std::map<PmOffset, AllocationRecord> allocations_;
  std::atomic<SeqNum> next_seq_{1};
  std::atomic<uint64_t> entry_count_{0};
  // Currently retained versions across all entries and index bytes
  // (AddIndexBytes); read by the capacity cells
  // `checkpoint.retained.versions` and `checkpoint.index.bytes`.
  std::atomic<uint64_t> retained_versions_{0};
  std::atomic<uint64_t> index_bytes_{0};
  CheckpointStats stats_;
  // Declared last so they unregister before the counters they read die.
  obs::ResourceSource index_source_;
  obs::ResourceSource versions_source_;
};

}  // namespace arthas

#endif  // ARTHAS_CHECKPOINT_CHECKPOINT_LOG_H_
