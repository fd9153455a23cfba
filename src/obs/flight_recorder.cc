#include "obs/flight_recorder.h"

namespace arthas {
namespace obs {

const char* FrTypeName(FrType type) {
  switch (type) {
    case FrType::kNone: return "none";
    case FrType::kPersist: return "persist";
    case FrType::kPersistQuiet: return "persist_quiet";
    case FrType::kFlush: return "flush";
    case FrType::kDrain: return "drain";
    case FrType::kLineLost: return "line_lost";
    case FrType::kCrash: return "crash";
    case FrType::kRestore: return "restore";
    case FrType::kTxBegin: return "tx_begin";
    case FrType::kTxAddRange: return "tx_add_range";
    case FrType::kTxCommit: return "tx_commit";
    case FrType::kTxAbort: return "tx_abort";
    case FrType::kAlloc: return "alloc";
    case FrType::kFree: return "free";
    case FrType::kCheckpointRevert: return "checkpoint_revert";
    case FrType::kCheckpointRollback: return "checkpoint_rollback";
    case FrType::kFaultInjected: return "fault_injected";
    case FrType::kFaultRaised: return "fault_raised";
    case FrType::kFaultObserved: return "fault_observed";
    case FrType::kCandidateAccept: return "candidate_accept";
    case FrType::kCandidateReject: return "candidate_reject";
    case FrType::kSectionBegin: return "section_begin";
    case FrType::kSectionCommit: return "section_commit";
    case FrType::kSectionAbort: return "section_abort";
  }
  return "unknown";
}

const char* FrReasonName(FrReason reason) {
  switch (reason) {
    case FrReason::kNone: return "none";
    case FrReason::kNeverFlushed: return "never_flushed";
    case FrReason::kFlushedNotDrained: return "flushed_not_drained";
    case FrReason::kAtFaultAddress: return "at_fault_address";
    case FrReason::kSliceDependency: return "slice_dependency";
    case FrReason::kVersionRetry: return "version_retry";
    case FrReason::kVersionEvicted: return "version_evicted";
    case FrReason::kRevertFailed: return "revert_failed";
    case FrReason::kNoCure: return "no_cure";
    case FrReason::kRecovered: return "recovered";
    case FrReason::kDivergence: return "divergence";
    case FrReason::kOpenAtCrash: return "open_at_crash";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t ring_capacity) : rings_(ring_capacity) {}

FlightRecorder& FlightRecorder::Global() {
  // Leaked: post-crash forensics must outlive every device and even main()
  // teardown order (ObsArtifactWriter destructors read it).
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Record(FrType type, uint32_t device_id, uint64_t addr,
                            uint64_t size, uint64_t arg, FrReason reason) {
  if (!enabled()) {
    return;
  }
  rings_.Append([&](FlightRecord& r) {
    r.addr = addr;
    r.size = size;
    r.arg = arg;
    r.device_id = device_id;
    r.type = type;
    r.reason = reason;
  });
}

}  // namespace obs
}  // namespace arthas
