// Always-on durability flight recorder (crash forensics substrate).
//
// Arthas's value proposition is *explaining* hard faults, so the timeline
// of PM lifecycle events — store/persist/flush/drain, transaction begin/
// add-range/commit/abort, checkpoint revert, fault injection, crash —
// must itself survive the crash it explains. The recorder therefore lives
// in ordinary process memory (like the checkpoint log), deliberately
// outside PmemDevice: Crash() discards unflushed PM lines but never the
// record of who wrote them.
//
// Design constraints, in order:
//   * the write path is lock-free and CAS-free: each thread owns a private
//     fixed-size ring (common/thread_registry.h ThreadRing: single-writer,
//     wraparound overwrite of the oldest records), and the only shared
//     operation is one relaxed fetch_add on the global sequence counter
//     that totally orders events across rings,
//   * memory is bounded: kRingCapacity records per thread, fixed-size POD
//     records (40 bytes), nothing allocated on the record path after the
//     first event of a thread,
//   * everything compiles out under ARTHAS_OBS_DISABLED via the
//     ARTHAS_FLIGHT_RECORD macro (same per-TU discipline as obs/obs.h);
//     the classes themselves stay linkable so tooling builds either way,
//   * Snapshot()/Clear() are quiesce-time operations (post-crash analysis,
//     between experiment cells); they are safe against concurrent writers
//     only in the sense that a racing record may or may not be included.
//
// Record() is safe to call from durability hooks that run under the
// device's stripe locks or the pool mutex: it takes no lock and never
// calls back into pmem/checkpoint code.

#ifndef ARTHAS_OBS_FLIGHT_RECORDER_H_
#define ARTHAS_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/thread_registry.h"

namespace arthas {
namespace obs {

// One PM lifecycle event kind per enumerator; `addr`/`size`/`arg` are
// interpreted per kind (documented next to each).
enum class FrType : uint8_t {
  kNone = 0,
  // Device durability. addr/size = byte range; arg = 0.
  kPersist,        // observer-visible persist (clwb+sfence of a range)
  kPersistQuiet,   // pool-internal metadata persist
  kFlush,          // FlushLines staging (clwb), not yet fenced
  kDrain,          // sfence; arg = staged words scanned
  // Crash accounting. kLineLost is emitted per discarded cache line during
  // Crash(): addr = line offset, reason says whether the line was staged
  // but unfenced (missing drain) or never flushed at all.
  kLineLost,
  kCrash,          // arg = total lines discarded
  kRestore,        // RestoreDurable / image load
  // Pool transactions. arg = tx id; kTxAddRange addr/size = undo range.
  kTxBegin,        // addr = undo slot index
  kTxAddRange,
  kTxCommit,
  kTxAbort,
  // Pool allocator. addr/size = object range.
  kAlloc,
  kFree,
  // Checkpoint reversions. addr = PM address, arg = checkpoint seq number.
  // (Taking a version emits nothing: the persist's own record and the
  // log's seq index already say it.)
  kCheckpointRevert,    // RevertSeq restored a version (reason: divergence)
  kCheckpointRollback,  // RollbackToSeq discarded newer seqs (size = count)
  // Fault lifecycle. arg = fault GUID (when known), addr = fault address.
  kFaultInjected,  // harness armed/triggered a studied bug (aux = FaultId)
  kFaultRaised,    // target system latched the failure
  kFaultObserved,  // detector classified an observation (aux = assessment)
  // Reactor candidate decisions. addr = checkpoint seq, arg = rank in plan.
  kCandidateAccept,
  kCandidateReject,
  // Consistency-substrate sections (FASE). arg = section id. An abort with
  // reason kOpenAtCrash is recovery rolling back a section left open by a
  // crash; without it, the abort happened live (fault latched mid-section).
  kSectionBegin,
  kSectionCommit,
  kSectionAbort,
};

// Why an event happened, for kinds that need a cause (lost lines, reactor
// candidate decisions, checkpoint reverts).
enum class FrReason : uint8_t {
  kNone = 0,
  kNeverFlushed,       // lost line: no clwb covered it
  kFlushedNotDrained,  // lost line: staged by clwb, missing the sfence
  kAtFaultAddress,     // candidate: version at the faulting address
  kSliceDependency,    // candidate: reached via the backward slice
  kVersionRetry,       // candidate: older-version retry round
  kVersionEvicted,     // candidate rejected: no longer in the version ring
  kRevertFailed,       // candidate rejected: reversion itself failed
  kNoCure,             // candidate rejected: reverted but symptom persisted
  kRecovered,          // candidate accepted: re-execution passed after it
  kDivergence,         // checkpoint revert took the divergence path
  kOpenAtCrash,        // section rolled back: it was open when power failed
};

const char* FrTypeName(FrType type);
const char* FrReasonName(FrReason reason);

// Fixed-size POD record. 40 bytes so a thread ring of 8192 records costs
// 320 KiB — bounded no matter how long the run is. No timestamp: the
// global seq orders events, and nothing reads wall time off a record.
struct FlightRecord {
  uint64_t seq = 0;     // global total order (1-based)
  uint64_t addr = 0;    // see FrType
  uint64_t size = 0;
  uint64_t arg = 0;
  uint32_t device_id = 0;  // PmemDevice::device_id(); 0 = not device-bound
  uint16_t tid = 0;        // ThreadOrdinal() of the recording thread
  FrType type = FrType::kNone;
  FrReason reason = FrReason::kNone;
};
static_assert(sizeof(FlightRecord) == 40, "records are fixed-size");

class FlightRecorder {
 public:
  // Per-thread ring capacity (records). Power of two; the default holds
  // the full event history of every harness cell while bounding a thread's
  // footprint at 320 KiB.
  static constexpr size_t kDefaultRingCapacity = 8192;

  explicit FlightRecorder(size_t ring_capacity = kDefaultRingCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // The process-wide recorder every hook reports into. Never destroyed, so
  // it survives any device's Crash() and is readable post-mortem.
  static FlightRecorder& Global();

  // Runtime switch (relaxed load on the record path). Used by the overhead
  // bench to measure recorder-on vs recorder-off in one binary.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Lock-free, CAS-free append to the calling thread's ring.
  void Record(FrType type, uint32_t device_id, uint64_t addr, uint64_t size,
              uint64_t arg, FrReason reason = FrReason::kNone);

  // Merged view of every thread ring, sorted by global seq (total order).
  // Quiesce-time: concurrent writers may or may not land in the snapshot.
  std::vector<FlightRecord> Snapshot() const { return rings_.Snapshot(); }

  // Events recorded since construction/Clear, including ones the rings
  // have since overwritten.
  uint64_t total_recorded() const { return rings_.total(); }
  // Records lost to ring wraparound (total_recorded - records retained).
  uint64_t dropped() const { return rings_.dropped(); }

  // Resets every ring (threads keep their rings; quiesce-time only).
  void Clear() { rings_.Clear(); }

  size_t ring_capacity() const { return rings_.capacity(); }

 private:
  std::atomic<bool> enabled_{true};
  ThreadRing<FlightRecord> rings_;
};

}  // namespace obs
}  // namespace arthas

// Instrumentation macro: compiles to nothing under ARTHAS_OBS_DISABLED,
// same per-TU discipline as the metric macros in obs/obs.h.
#ifndef ARTHAS_OBS_DISABLED
#define ARTHAS_FLIGHT_RECORD(...) \
  ::arthas::obs::FlightRecorder::Global().Record(__VA_ARGS__)
#else
#define ARTHAS_FLIGHT_RECORD(...) \
  do {                            \
  } while (0)
#endif

#endif  // ARTHAS_OBS_FLIGHT_RECORDER_H_
