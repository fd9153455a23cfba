// Atlas-style failure-atomic sections (FASE) as a consistency substrate.
//
// Atlas (Chakrabarti et al., OOPSLA 2014) derives failure-atomic sections
// from the program's own critical sections: the region between a lock
// acquire and its release must appear all-or-nothing after a crash. Here the
// demarcation comes from PmSystemBase's request scope (RequestGuard /
// Handle), and atomicity comes from a persistent undo log kept in a
// dedicated PM region, modeled as a second PmemDevice:
//
//   section log layout (all integers host-endian, like the pool header):
//     [0..8)    magic
//     [8..16)   tail — byte offset one past the last valid record; bumping
//               it durably is the append commit point
//     [64..)    records, 8-byte aligned:
//                 RecordHeader { kind, payload_size, section_id, target_off }
//                 + payload_size undo bytes (kUndo only)
//
//   record kinds: kBegin (section opened), kUndo (pre-image of a target
//   range captured at its durability point), kCommit (section closed
//   cleanly). A section with kBegin but no kCommit at recovery time is
//   incomplete: Recover() re-applies its undo payloads newest-first,
//   stepping around current allocator metadata exactly like the checkpoint
//   log's restore, then truncates the log.
//
// Undo capture rides the device's observer protocol: OnPersist fires at the
// durability point *before* the live image is copied to the durable image,
// with the range's stripes held, so Durable(offset) still reads the bytes a
// rollback must restore. Writes outside any section (recovery code,
// maintenance) are not logged — they are not failure-atomic, same as
// lock-free writes under Atlas.
//
// Commit discipline: SectionEnd drains the device before logging kCommit,
// so a committed section has no writes still sitting in the flush staging
// bitmap (Atlas flushes a section's log and data before retiring it).
//
// Simplifications vs. real Atlas, documented for honesty: allocator
// metadata is not undo-logged (the pool's own micro-undo-log recovers it;
// an object allocated by a rolled-back section survives as garbage until a
// leak probe finds it), and rollback assumes the single-failure model —
// one crash, then recovery — so cross-section overwrite races between an
// aborted and a later committed section are out of scope.
//
// Concurrency: section hooks and OnPersist may run from many request
// threads; log appends serialize on log_mutex_ (taken after the target
// device's stripes on the OnPersist path; the log device's own stripes are
// a different device, so no cycle). Attach/Detach/Recover are
// caller-serialized.

#ifndef ARTHAS_SUBSTRATE_FASE_SUBSTRATE_H_
#define ARTHAS_SUBSTRATE_FASE_SUBSTRATE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>

#include "obs/resource/resource_accountant.h"
#include "pmem/device.h"
#include "pmem/pool.h"
#include "substrate/substrate.h"

namespace arthas {

struct FaseConfig {
  // Capacity of the dedicated section-log region. Undo appends past the
  // capacity are dropped (counted as log_overflows) — the affected
  // section's rollback then only covers the logged prefix.
  size_t log_bytes = 4u << 20;
};

class FaseSubstrate : public ConsistencySubstrate,
                      public DurabilityObserver,
                      public PoolObserver {
 public:
  explicit FaseSubstrate(FaseConfig config = {});
  ~FaseSubstrate() override;

  SubstrateKind kind() const override { return SubstrateKind::kFase; }

  Status Attach(PmemPool& pool) override;
  void Detach() override;
  bool attached() const override { return pool_ != nullptr; }

  void SectionBegin(uint64_t section_id) override;
  void SectionEnd(uint64_t section_id) override;
  void SectionAbort(uint64_t section_id) override;

  Status Recover() override;

  // Committed sections are final; there is no version history to revert.
  bool revert_capable() const override { return false; }

  SubstrateStats Stats() const override;

  // --- DurabilityObserver --------------------------------------------------
  void OnPersist(PmOffset offset, size_t size, const void* data) override;

  // --- PoolObserver --------------------------------------------------------
  // Pool transactions inside a section are subsumed by the section's
  // atomicity; the hooks only feed stats. (Runs under the pool mutex: must
  // not call back into the pool.)
  void OnAlloc(PmOffset offset, size_t size) override;
  void OnFree(PmOffset offset, size_t size) override;
  void OnRealloc(PmOffset old_offset, size_t old_size, PmOffset new_offset,
                 size_t new_size) override;
  void OnTxBegin(uint64_t tx_id) override;
  void OnTxCommit(uint64_t tx_id) override;

  // --- Introspection (tests, forensics) ------------------------------------
  size_t open_section_count() const;
  size_t log_tail() const;  // bytes of valid log, header included

 private:
  enum RecordKind : uint32_t { kBegin = 1, kUndo = 2, kCommit = 3 };

  struct LogHeader {
    uint64_t magic;
    uint64_t tail;
  };

  struct RecordHeader {
    uint32_t kind;
    uint32_t payload_size;  // undo bytes following the header (kUndo only)
    uint64_t section_id;
    uint64_t target_off;    // target-device offset of the undo range
  };

  static constexpr uint64_t kLogMagic = 0x45534146'53454341ULL;  // "FASE"...
  static constexpr uint64_t kLogStart = 64;

  // Appends one record durably; returns false (and counts an overflow) when
  // the log region is full. Requires log_mutex_.
  bool AppendLocked(RecordKind kind, uint64_t section_id, uint64_t target_off,
                    const uint8_t* payload, uint32_t payload_size);
  // Truncates the log to empty. Requires log_mutex_ and no live sections.
  void ResetLogLocked();
  // Restores `size` undo bytes at `target_off` on the target device,
  // skipping current allocator-metadata ranges (same discipline as
  // CheckpointLog's restore). Caller-serialized (recovery only).
  void RestoreAroundMetadata(PmOffset target_off, const uint8_t* data,
                             size_t size);

  FaseConfig config_;
  PmemPool* pool_ = nullptr;     // null when detached
  PmemDevice* device_ = nullptr;  // the attached pool's device
  std::unique_ptr<PmemDevice> log_device_;
  // Process-unique instance id keying the thread-local section stack, so a
  // thread interleaving requests against two FASE systems logs each persist
  // into the right substrate.
  const uint64_t instance_id_;

  mutable std::mutex log_mutex_;
  std::unordered_set<uint64_t> open_sections_;
  // Sections that latched a fault: their records must survive until
  // Recover() rolls them back, so the log cannot reset while this is
  // non-empty (the simulated process is dead but not yet restarted).
  std::unordered_set<uint64_t> aborted_sections_;

  std::atomic<uint64_t> sections_begun_{0};
  std::atomic<uint64_t> sections_committed_{0};
  std::atomic<uint64_t> sections_aborted_{0};
  std::atomic<uint64_t> sections_rolled_back_{0};
  std::atomic<uint64_t> undo_records_{0};
  std::atomic<uint64_t> undo_bytes_{0};
  std::atomic<uint64_t> log_resets_{0};
  std::atomic<uint64_t> log_overflows_{0};
  std::atomic<uint64_t> tx_begins_{0};
  std::atomic<uint64_t> tx_commits_{0};
  // `substrate.section.log.bytes` capacity cell over log_tail(), which
  // takes log_mutex_ under the accountant's mutex (see
  // obs/resource/resource_accountant.h for the lock order). Declared last
  // so it unregisters before the log and mutex it reads die.
  obs::ResourceSource log_source_;
};

}  // namespace arthas

#endif  // ARTHAS_SUBSTRATE_FASE_SUBSTRATE_H_
