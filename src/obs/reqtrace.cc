#include "obs/reqtrace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "obs/chrome_trace.h"
#include "obs/metrics.h"

namespace arthas {
namespace obs {

namespace {

// A command being executed right now on this thread (stage accumulation
// happens here, lock-free, before the trace is ever shared).
struct PendingCommand {
  RequestTrace trace;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int64_t section_accum_ns = 0;
  int64_t section_start_ns = 0;
  int section_depth = 0;
};

// Executed but unreplied: EndBatch parked it here, FlushReplies finalizes.
struct AwaitingTrace {
  RequestTrace trace;
  int64_t close_done_ns = 0;
};

// All per-thread lifecycle state. Bound to one plane at a time (rebinding
// only happens in tests that build local planes).
struct ThreadState {
  uint64_t plane_id = 0;
  bool batch_active = false;
  int64_t batch_received_ns = 0;
  std::vector<PendingCommand> batch;
  int active = -1;  // index into `batch` of the executing command
  std::vector<AwaitingTrace> awaiting;
};
thread_local ThreadState tls_state;

// Default op rendering; the net layer installs NetOpName at startup.
const char* NumericOpName(uint8_t op) {
  static thread_local char buf[8];
  std::snprintf(buf, sizeof(buf), "op%u", op);
  return buf;
}
std::atomic<const char* (*)(uint8_t)> g_op_namer{&NumericOpName};

const char* OpName(uint8_t op) {
  return g_op_namer.load(std::memory_order_relaxed)(op);
}

void AppendUs(std::ostringstream& out, const char* label, int64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%.1fus", label,
                static_cast<double>(ns) / 1000.0);
  out << buf;
}

}  // namespace

const char* ReqStageName(ReqStage stage) {
  switch (stage) {
    case ReqStage::kClientWait: return "client_wait";
    case ReqStage::kBatchWait: return "batch_wait";
    case ReqStage::kLockWait: return "lock_wait";
    case ReqStage::kSection: return "section";
    case ReqStage::kFlush: return "flush";
    case ReqStage::kDrain: return "drain";
    case ReqStage::kReplyWrite: return "reply_write";
    case ReqStage::kDetector: return "detector";
    case ReqStage::kReactor: return "reactor";
  }
  return "unknown";
}

int64_t RequestTrace::StageSumNs() const {
  int64_t sum = 0;
  for (size_t i = 0; i < kReqStageCount; i++) {
    sum += stage_ns[i];
  }
  return sum;
}

void RequestTracePlane::InstallOpNamer(const char* (*namer)(uint8_t)) {
  g_op_namer.store(namer != nullptr ? namer : &NumericOpName,
                   std::memory_order_relaxed);
}

RequestTracePlane::RequestTracePlane(size_t ring_capacity)
    : rings_(ring_capacity) {
  reservoir_.reserve(kReservoirCapacity);
}

RequestTracePlane& RequestTracePlane::Global() {
  // Leaked: TRACE autopsies and artifact writers must survive any teardown
  // order, exactly like the flight recorder.
  static RequestTracePlane* plane = new RequestTracePlane();
  return *plane;
}

void RequestTracePlane::BeginBatch(int64_t received_ns) {
  ThreadState& st = tls_state;
  if (!enabled()) {
    st.batch_active = false;
    return;
  }
  if (st.plane_id != rings_.id()) {
    // First batch on this thread for this plane (or a test rebound the
    // thread to a fresh local plane): drop state owed to the old one.
    st.batch.clear();
    st.awaiting.clear();
    st.active = -1;
    st.plane_id = rings_.id();
  }
  st.batch_active = true;
  st.batch_received_ns = received_ns;
  st.batch.clear();
  st.active = -1;
}

void RequestTracePlane::BeginCommand(uint64_t trace_id, int64_t origin_ns,
                                     uint8_t op, int64_t now_ns) {
  ThreadState& st = tls_state;
  if (!st.batch_active) {
    return;
  }
  PendingCommand cmd;
  cmd.trace.trace_id = trace_id != 0 ? trace_id : NextServerTraceId();
  cmd.trace.origin_ns = origin_ns;
  cmd.trace.op = op;
  cmd.begin_ns = now_ns;
  st.batch.push_back(std::move(cmd));
  st.active = static_cast<int>(st.batch.size()) - 1;
}

void RequestTracePlane::EndCommand(int64_t now_ns, bool faulted) {
  ThreadState& st = tls_state;
  if (!st.batch_active || st.active < 0) {
    return;
  }
  PendingCommand& cmd = st.batch[static_cast<size_t>(st.active)];
  cmd.end_ns = now_ns;
  cmd.trace.faulted = faulted;
  if (cmd.section_depth > 0) {
    // A fault unwound past the section exit; close the span here.
    cmd.section_accum_ns += now_ns - cmd.section_start_ns;
    cmd.section_depth = 0;
  }
  st.active = -1;
}

void RequestTracePlane::EndBatch(int64_t lock_start_ns, int64_t lock_end_ns,
                                 int64_t exec_done_ns, int64_t close_done_ns) {
  ThreadState& st = tls_state;
  if (!st.batch_active) {
    return;
  }
  // Every command of the batch waited for the one lock acquisition and for
  // the one batch-close drain/commit — both are genuinely part of each
  // request's wall time, so each is charged in full, not amortized.
  const int64_t lock_wait = std::max<int64_t>(0, lock_end_ns - lock_start_ns);
  const int64_t close_window =
      std::max<int64_t>(0, close_done_ns - exec_done_ns);
  for (PendingCommand& cmd : st.batch) {
    RequestTrace& t = cmd.trace;
    t.start_ns = st.batch_received_ns;
    if (t.origin_ns > 0 && t.origin_ns <= t.start_ns) {
      t.stage_ns[static_cast<size_t>(ReqStage::kClientWait)] =
          t.start_ns - t.origin_ns;
    } else if (t.origin_ns > t.start_ns) {
      t.origin_ns = 0;  // client clock ahead of receipt: fall back to server span
    }
    t.stage_ns[static_cast<size_t>(ReqStage::kLockWait)] += lock_wait;
    const int64_t handle = std::max<int64_t>(0, cmd.end_ns - cmd.begin_ns);
    // The section span is the handle span when no substrate section hook
    // fired (the net path runs one batch-level section, entered before any
    // command is active); flush/drain recorded by the device hooks are
    // carved out so the three stages stay disjoint.
    const int64_t basis = cmd.section_accum_ns > 0
                              ? std::min(cmd.section_accum_ns, handle)
                              : handle;
    const int64_t carved =
        t.stage_ns[static_cast<size_t>(ReqStage::kFlush)] +
        t.stage_ns[static_cast<size_t>(ReqStage::kDrain)];
    t.stage_ns[static_cast<size_t>(ReqStage::kSection)] +=
        std::max<int64_t>(0, basis - carved);
    t.stage_ns[static_cast<size_t>(ReqStage::kDrain)] += close_window;
    st.awaiting.push_back(AwaitingTrace{t, close_done_ns});
  }
  st.batch.clear();
  st.active = -1;
  st.batch_active = false;
}

void RequestTracePlane::FlushReplies(int64_t now_ns) {
  ThreadState& st = tls_state;
  if (st.plane_id != rings_.id() || st.awaiting.empty()) {
    return;
  }
  for (AwaitingTrace& a : st.awaiting) {
    RequestTrace& t = a.trace;
    t.end_ns = now_ns;
    t.stage_ns[static_cast<size_t>(ReqStage::kReplyWrite)] +=
        std::max<int64_t>(0, now_ns - a.close_done_ns);
    // Batch wait is the residual of the server span over every stage that
    // was measured directly, so the breakdown closes exactly: parse time,
    // time queued behind batchmates in the same read(), and any clock
    // jitter all land here instead of silently leaking.
    int64_t known = 0;
    for (size_t i = 0; i < kReqStageCount; i++) {
      if (i != static_cast<size_t>(ReqStage::kClientWait) &&
          i != static_cast<size_t>(ReqStage::kBatchWait)) {
        known += t.stage_ns[i];
      }
    }
    t.stage_ns[static_cast<size_t>(ReqStage::kBatchWait)] =
        std::max<int64_t>(0, t.TotalNs() - known);
    ApplyMitigationSpans(t);
    Commit(t);
  }
  st.awaiting.clear();
}

void RequestTracePlane::AddActiveStage(ReqStage stage, int64_t dur_ns) {
  ThreadState& st = tls_state;
  if (!st.batch_active || st.active < 0 || dur_ns <= 0) {
    return;
  }
  st.batch[static_cast<size_t>(st.active)]
      .trace.stage_ns[static_cast<size_t>(stage)] += dur_ns;
}

bool RequestTracePlane::HasActiveCommand() {
  const ThreadState& st = tls_state;
  return st.batch_active && st.active >= 0;
}

void RequestTracePlane::SectionEnter(int64_t now_ns) {
  ThreadState& st = tls_state;
  if (!st.batch_active || st.active < 0) {
    return;
  }
  PendingCommand& cmd = st.batch[static_cast<size_t>(st.active)];
  if (cmd.section_depth++ == 0) {
    cmd.section_start_ns = now_ns;
  }
}

void RequestTracePlane::SectionExit(int64_t now_ns) {
  ThreadState& st = tls_state;
  if (!st.batch_active || st.active < 0) {
    return;
  }
  PendingCommand& cmd = st.batch[static_cast<size_t>(st.active)];
  if (cmd.section_depth > 0 && --cmd.section_depth == 0) {
    cmd.section_accum_ns += now_ns - cmd.section_start_ns;
  }
}

void RequestTracePlane::MarkMitigationBegin(int64_t now_ns) {
  mitigation_begin_ns_.store(now_ns, std::memory_order_relaxed);
  detector_fired_ns_.store(0, std::memory_order_relaxed);
  mitigation_end_ns_.store(0, std::memory_order_relaxed);
}

void RequestTracePlane::MarkDetectorFired(int64_t now_ns) {
  detector_fired_ns_.store(now_ns, std::memory_order_relaxed);
}

void RequestTracePlane::MarkMitigationEnd(int64_t now_ns) {
  mitigation_end_ns_.store(now_ns, std::memory_order_relaxed);
}

void RequestTracePlane::ApplyMitigationSpans(RequestTrace& t) const {
  const int64_t mb = mitigation_begin_ns_.load(std::memory_order_relaxed);
  const int64_t me = mitigation_end_ns_.load(std::memory_order_relaxed);
  if (mb <= 0 || me < mb) {
    return;  // no completed mitigation window yet
  }
  int64_t md = detector_fired_ns_.load(std::memory_order_relaxed);
  if (md < mb || md > me) {
    md = me;  // detector instant unmarked: the whole window is confirmation
  }
  const auto overlap = [&](int64_t lo, int64_t hi) {
    return std::max<int64_t>(
        0, std::min(hi, t.end_ns) - std::max(lo, t.start_ns));
  };
  const int64_t det_overlap = overlap(mb, md);
  const int64_t rea_overlap = overlap(md, me);
  if (det_overlap == 0 && rea_overlap == 0) {
    return;
  }
  // Reassign queue-ish time (never measured execution) into the mitigation
  // stages, preserving the stage sum. Shave lock wait first (queued batches
  // spend the window there), then batch wait, then reply write (the
  // faulting batch itself waits out mitigation after its close).
  constexpr ReqStage kBudgetStages[] = {ReqStage::kLockWait,
                                        ReqStage::kBatchWait,
                                        ReqStage::kReplyWrite};
  int64_t budget = 0;
  for (const ReqStage s : kBudgetStages) {
    budget += t.stage_ns[static_cast<size_t>(s)];
  }
  int64_t take_det = std::min(det_overlap, budget);
  int64_t take_rea = std::min(rea_overlap, budget - take_det);
  int64_t to_shave = take_det + take_rea;
  if (to_shave == 0) {
    return;
  }
  for (const ReqStage s : kBudgetStages) {
    int64_t& ns = t.stage_ns[static_cast<size_t>(s)];
    const int64_t cut = std::min(ns, to_shave);
    ns -= cut;
    to_shave -= cut;
    if (to_shave == 0) {
      break;
    }
  }
  t.stage_ns[static_cast<size_t>(ReqStage::kDetector)] += take_det;
  t.stage_ns[static_cast<size_t>(ReqStage::kReactor)] += take_rea;
}

void RequestTracePlane::Commit(const RequestTrace& trace) {
  // Append stamps seq and tid on the stored copy.
  const RequestTrace& t =
      rings_.Append([&trace](RequestTrace& slot) { slot = trace; });
  OfferReservoir(t);
#ifndef ARTHAS_OBS_DISABLED
  static Histogram& server_hist =
      MetricsRegistry::Global().GetHistogram("net.req.server_ns");
  server_hist.RecordWithExemplar(
      static_cast<uint64_t>(std::max<int64_t>(0, t.TotalNs())), t.trace_id);
  if (t.origin_ns > 0) {
    static Histogram& e2e_hist =
        MetricsRegistry::Global().GetHistogram("net.req.e2e_ns");
    e2e_hist.RecordWithExemplar(
        static_cast<uint64_t>(std::max<int64_t>(0, t.EndToEndNs())),
        t.trace_id);
  }
#endif
}

void RequestTracePlane::OfferReservoir(const RequestTrace& t) {
  const int64_t key = t.EndToEndNs();
  const int64_t threshold =
      reservoir_threshold_ns_.load(std::memory_order_relaxed);
  if (threshold >= 0 && key <= threshold) {
    return;  // reservoir full of slower requests; no lock taken
  }
  const auto slower = [](const RequestTrace& a, const RequestTrace& b) {
    return a.EndToEndNs() > b.EndToEndNs();  // min-heap on e2e
  };
  std::lock_guard<std::mutex> lock(reservoir_mutex_);
  if (reservoir_.size() < kReservoirCapacity) {
    reservoir_.push_back(t);
    std::push_heap(reservoir_.begin(), reservoir_.end(), slower);
    if (reservoir_.size() == kReservoirCapacity) {
      reservoir_threshold_ns_.store(reservoir_.front().EndToEndNs(),
                                    std::memory_order_relaxed);
    }
    return;
  }
  if (key <= reservoir_.front().EndToEndNs()) {
    return;
  }
  std::pop_heap(reservoir_.begin(), reservoir_.end(), slower);
  reservoir_.back() = t;
  std::push_heap(reservoir_.begin(), reservoir_.end(), slower);
  reservoir_threshold_ns_.store(reservoir_.front().EndToEndNs(),
                                std::memory_order_relaxed);
}

std::vector<RequestTrace> RequestTracePlane::SlowestRequests(
    size_t limit) const {
  std::vector<RequestTrace> out;
  {
    std::lock_guard<std::mutex> lock(reservoir_mutex_);
    out = reservoir_;
  }
  std::sort(out.begin(), out.end(),
            [](const RequestTrace& a, const RequestTrace& b) {
              return a.EndToEndNs() > b.EndToEndNs();
            });
  if (limit != 0 && out.size() > limit) {
    out.resize(limit);
  }
  return out;
}

bool RequestTracePlane::FindTrace(uint64_t trace_id, RequestTrace* out) const {
  {
    std::lock_guard<std::mutex> lock(reservoir_mutex_);
    for (const RequestTrace& t : reservoir_) {
      if (t.trace_id == trace_id) {
        *out = t;
        return true;
      }
    }
  }
  // Newest first: a reused client id should answer with its latest trip.
  return rings_.FindNewest(
      [trace_id](const RequestTrace& t) { return t.trace_id == trace_id; },
      out);
}

void RequestTracePlane::Clear() {
  rings_.Clear();
  {
    std::lock_guard<std::mutex> lock(reservoir_mutex_);
    reservoir_.clear();
    reservoir_threshold_ns_.store(-1, std::memory_order_relaxed);
  }
  mitigation_begin_ns_.store(0, std::memory_order_relaxed);
  detector_fired_ns_.store(0, std::memory_order_relaxed);
  mitigation_end_ns_.store(0, std::memory_order_relaxed);
}

std::string RequestTracePlane::Autopsy(const RequestTrace& t) {
  std::ostringstream out;
  char head[160];
  std::snprintf(head, sizeof(head),
                "trace %" PRIu64 " op=%s faulted=%s total=%.1fus e2e=%.1fus",
                t.trace_id, OpName(t.op), t.faulted ? "yes" : "no",
                static_cast<double>(t.TotalNs()) / 1000.0,
                static_cast<double>(t.EndToEndNs()) / 1000.0);
  out << head << "\nstages:";
  for (size_t i = 0; i < kReqStageCount; i++) {
    AppendUs(out, ReqStageName(static_cast<ReqStage>(i)), t.stage_ns[i]);
  }
  return out.str();
}

JsonValue RequestTracePlane::TraceJson(const RequestTrace& t) {
  JsonValue v = JsonValue::Object();
  v.Set("trace_id", JsonValue(t.trace_id));
  v.Set("seq", JsonValue(t.seq));
  v.Set("op", JsonValue(OpName(t.op)));
  v.Set("faulted", JsonValue(t.faulted));
  v.Set("origin_ns", JsonValue(t.origin_ns));
  v.Set("start_ns", JsonValue(t.start_ns));
  v.Set("end_ns", JsonValue(t.end_ns));
  v.Set("total_ns", JsonValue(t.TotalNs()));
  v.Set("e2e_ns", JsonValue(t.EndToEndNs()));
  JsonValue stages = JsonValue::Object();
  for (size_t i = 0; i < kReqStageCount; i++) {
    stages.Set(ReqStageName(static_cast<ReqStage>(i)),
               JsonValue(t.stage_ns[i]));
  }
  v.Set("stages", std::move(stages));
  return v;
}

JsonValue RequestTracePlane::ChromeTraceJson(
    const std::vector<RequestTrace>& traces) {
  ChromeTraceWriter writer;
  for (size_t row = 0; row < traces.size(); row++) {
    const RequestTrace& t = traces[row];
    const int64_t tid = static_cast<int64_t>(row);
    char label[64];
    std::snprintf(label, sizeof(label), "trace %" PRIu64 " (%s)", t.trace_id,
                  OpName(t.op));
    writer.ThreadName(tid, label);
    // Stages rendered back to back from the request's first instant; the
    // enum order matches their real sequence closely enough to read.
    double cursor_us =
        static_cast<double>(t.origin_ns > 0 ? t.origin_ns : t.start_ns) /
        1000.0;
    for (size_t i = 0; i < kReqStageCount; i++) {
      if (t.stage_ns[i] <= 0) {
        continue;
      }
      const double dur_us = static_cast<double>(t.stage_ns[i]) / 1000.0;
      JsonValue args = JsonValue::Object();
      args.Set("trace_id", JsonValue(t.trace_id));
      writer.Complete(ReqStageName(static_cast<ReqStage>(i)), "reqtrace", tid,
                      cursor_us, dur_us, std::move(args));
      cursor_us += dur_us;
    }
  }
  return writer.Finish();
}

}  // namespace obs
}  // namespace arthas
