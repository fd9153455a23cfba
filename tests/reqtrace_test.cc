// Request-trace plane invariants: exact stage-sum closure on synthetic
// timestamps, id assignment, ring wraparound accounting, slowest-request
// reservoir ordering, mitigation-window reassignment, thread numbering
// shared with the flight recorder, and a multi-thread commit/snapshot race
// (the TSan job runs this file).

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/reqtrace.h"

namespace arthas {
namespace obs {
namespace {

constexpr size_t kS = kReqStageCount;

int64_t Stage(const RequestTrace& t, ReqStage s) {
  return t.stage_ns[static_cast<size_t>(s)];
}

// Full single-command lifecycle with no stage scopes: the whole server span
// collapses into section/drain/reply_write/batch_wait residuals.
void CommitTrace(RequestTracePlane& plane, uint64_t id, int64_t origin_ns,
                 int64_t start_ns, int64_t end_ns) {
  plane.BeginBatch(start_ns);
  plane.BeginCommand(id, origin_ns, /*op=*/1, start_ns);
  plane.EndCommand(start_ns, /*faulted=*/false);
  plane.EndBatch(start_ns, start_ns, start_ns, start_ns);
  plane.FlushReplies(end_ns);
}

TEST(ReqTraceTest, ExactClosureOnSyntheticTimestamps) {
  RequestTracePlane plane(16);
  plane.BeginBatch(/*received_ns=*/1000);
  plane.BeginCommand(/*trace_id=*/7, /*origin_ns=*/400, /*op=*/2,
                     /*now_ns=*/1100);
  RequestTracePlane::SectionEnter(1200);
  RequestTracePlane::AddActiveStage(ReqStage::kFlush, 40);
  RequestTracePlane::AddActiveStage(ReqStage::kDrain, 60);
  RequestTracePlane::SectionExit(1500);
  plane.EndCommand(1600, /*faulted=*/false);
  plane.EndBatch(/*lock_start_ns=*/1000, /*lock_end_ns=*/1050,
                 /*exec_done_ns=*/1700, /*close_done_ns=*/1800);
  plane.FlushReplies(/*now_ns=*/2000);

  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_EQ(traces.size(), 1u);
  const RequestTrace& t = traces[0];
  EXPECT_EQ(t.trace_id, 7u);
  EXPECT_EQ(t.origin_ns, 400);
  EXPECT_EQ(t.start_ns, 1000);
  EXPECT_EQ(t.end_ns, 2000);
  EXPECT_EQ(t.TotalNs(), 1000);
  EXPECT_EQ(t.EndToEndNs(), 1600);

  EXPECT_EQ(Stage(t, ReqStage::kClientWait), 600);  // start - origin
  EXPECT_EQ(Stage(t, ReqStage::kLockWait), 50);
  // Section span 300, minus the 100 ns the flush/drain device hooks carved
  // out of it — the three stages must stay disjoint.
  EXPECT_EQ(Stage(t, ReqStage::kSection), 200);
  EXPECT_EQ(Stage(t, ReqStage::kFlush), 40);
  // 60 ns measured in-section plus the 100 ns batch-close window.
  EXPECT_EQ(Stage(t, ReqStage::kDrain), 160);
  EXPECT_EQ(Stage(t, ReqStage::kReplyWrite), 200);  // flush - close_done
  // Residual: everything the direct stages did not measure.
  EXPECT_EQ(Stage(t, ReqStage::kBatchWait), 350);
  // Closure is exact by construction: stage sum == end-to-end time.
  EXPECT_EQ(t.StageSumNs(), t.EndToEndNs());
}

TEST(ReqTraceTest, ServerIdsAssignedAboveBase) {
  RequestTracePlane plane(16);
  CommitTrace(plane, /*id=*/0, /*origin=*/0, 100, 200);
  CommitTrace(plane, /*id=*/0, /*origin=*/0, 300, 400);
  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_GE(traces[0].trace_id, RequestTracePlane::kServerIdBase);
  EXPECT_EQ(traces[1].trace_id, traces[0].trace_id + 1);
}

TEST(ReqTraceTest, FutureOriginFallsBackToServerSpan) {
  // A propagated origin *after* receipt means the client clock ran ahead;
  // the trace keeps the id but drops the origin instead of inventing a
  // negative client wait.
  RequestTracePlane plane(16);
  CommitTrace(plane, /*id=*/9, /*origin=*/5000, /*start=*/1000,
              /*end=*/2000);
  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].trace_id, 9u);
  EXPECT_EQ(traces[0].origin_ns, 0);
  EXPECT_EQ(Stage(traces[0], ReqStage::kClientWait), 0);
  EXPECT_EQ(traces[0].EndToEndNs(), traces[0].TotalNs());
  EXPECT_EQ(traces[0].StageSumNs(), traces[0].EndToEndNs());
}

TEST(ReqTraceTest, RingWraparoundCountsDropped) {
  RequestTracePlane plane(4);
  ASSERT_EQ(plane.ring_capacity(), 4u);
  for (uint64_t i = 1; i <= 6; i++) {
    CommitTrace(plane, i, /*origin=*/0, 1000 * static_cast<int64_t>(i),
                1000 * static_cast<int64_t>(i) + 100);
  }
  EXPECT_EQ(plane.total_traced(), 6u);
  EXPECT_EQ(plane.dropped(), 2u);
  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_EQ(traces.size(), 4u);
  // Only the newest four survive, in commit order.
  EXPECT_EQ(traces.front().trace_id, 3u);
  EXPECT_EQ(traces.back().trace_id, 6u);

  // A thread alternating between two planes keeps one ring in each, so its
  // footprint stays bounded: a switch must not register a fresh ring.
  RequestTracePlane a(4);
  RequestTracePlane b(4);
  for (uint64_t i = 1; i <= 10; i++) {
    const int64_t start = 1000 * static_cast<int64_t>(i);
    CommitTrace(a, i, /*origin=*/0, start, start + 100);
    CommitTrace(b, i, /*origin=*/0, start, start + 100);
  }
  for (const RequestTracePlane* p : {&a, &b}) {
    EXPECT_EQ(p->SnapshotRings().size(), 4u);
    EXPECT_EQ(p->dropped(), 6u);
  }
}

TEST(ReqTraceTest, ReservoirKeepsSlowestAcrossWraparound) {
  // The slowest request (id 1) wraps out of the ring but must stay
  // findable: the reservoir is what makes a late TRACE autopsy work.
  RequestTracePlane plane(4);
  CommitTrace(plane, 1, /*origin=*/100, /*start=*/1000, /*end=*/90000);
  for (uint64_t i = 2; i <= 8; i++) {
    const int64_t start = 1000 * static_cast<int64_t>(i);
    CommitTrace(plane, i, start - 50, start, start + 100);
  }
  EXPECT_GT(plane.dropped(), 0u);

  const std::vector<RequestTrace> slowest = plane.SlowestRequests();
  ASSERT_GE(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].trace_id, 1u);
  for (size_t i = 1; i < slowest.size(); i++) {
    EXPECT_GE(slowest[i - 1].EndToEndNs(), slowest[i].EndToEndNs());
  }

  RequestTrace found;
  ASSERT_TRUE(plane.FindTrace(1, &found));
  EXPECT_EQ(found.EndToEndNs(), 90000 - 100);
  EXPECT_FALSE(plane.FindTrace(999, &found));
}

TEST(ReqTraceTest, MitigationWindowReassignsQueueTime) {
  RequestTracePlane plane(16);
  plane.MarkMitigationBegin(2000);
  plane.MarkDetectorFired(5000);
  plane.MarkMitigationEnd(9000);
  // One request received at 1000 whose reply only flushes at 11000: the
  // 10000 ns it spent waiting overlaps the whole mitigation window.
  CommitTrace(plane, 42, /*origin=*/0, /*start=*/1000, /*end=*/11000);

  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_EQ(traces.size(), 1u);
  const RequestTrace& t = traces[0];
  // [begin, detector] overlap is 3000, [detector, end] overlap is 4000;
  // both come out of the reply-write wait, sum-preserving.
  EXPECT_EQ(Stage(t, ReqStage::kDetector), 3000);
  EXPECT_EQ(Stage(t, ReqStage::kReactor), 4000);
  EXPECT_EQ(Stage(t, ReqStage::kReplyWrite), 3000);
  EXPECT_EQ(t.StageSumNs(), t.EndToEndNs());

  // A request entirely before the window is untouched.
  plane.Clear();
  plane.MarkMitigationBegin(500000);
  plane.MarkDetectorFired(500100);
  plane.MarkMitigationEnd(500200);
  CommitTrace(plane, 43, /*origin=*/0, /*start=*/1000, /*end=*/2000);
  const std::vector<RequestTrace> before = plane.SnapshotRings();
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(Stage(before[0], ReqStage::kDetector), 0);
  EXPECT_EQ(Stage(before[0], ReqStage::kReactor), 0);
}

TEST(ReqTraceTest, DisabledPlaneTracesNothing) {
  RequestTracePlane plane(16);
  plane.set_enabled(false);
  CommitTrace(plane, 5, /*origin=*/0, 1000, 2000);
  EXPECT_EQ(plane.total_traced(), 0u);
  EXPECT_TRUE(plane.SnapshotRings().empty());
  plane.set_enabled(true);
  CommitTrace(plane, 5, /*origin=*/0, 1000, 2000);
  EXPECT_EQ(plane.total_traced(), 1u);
}

TEST(ReqTraceTest, FourThreadCommitSnapshotRace) {
  // Four committer threads race SnapshotRings/SlowestRequests/FindTrace
  // readers; TSan (tests are in the tsan CI job) checks the release/acquire
  // pairing on ring heads, and the seq order must come out total.
  RequestTracePlane plane(1024);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 200;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    RequestTrace found;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)plane.SnapshotRings();
      (void)plane.SlowestRequests(8);
      (void)plane.FindTrace(1, &found);
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; w++) {
    writers.emplace_back([&plane, w] {
      for (uint64_t i = 0; i < kPerThread; i++) {
        const uint64_t id = static_cast<uint64_t>(w) * kPerThread + i + 1;
        const int64_t start = static_cast<int64_t>(id) * 10;
        CommitTrace(plane, id, start - 5, start, start + 7);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(plane.total_traced(), kThreads * kPerThread);
  EXPECT_EQ(plane.dropped(), 0u);
  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_EQ(traces.size(), kThreads * kPerThread);
  for (size_t i = 1; i < traces.size(); i++) {
    EXPECT_LT(traces[i - 1].seq, traces[i].seq);
  }
  for (const RequestTrace& t : traces) {
    EXPECT_EQ(t.StageSumNs(), t.EndToEndNs());
  }
}

TEST(ReqTraceTest, SharesThreadNumberingWithFlightRecorder) {
  // RequestTrace::tid and FlightRecord::tid are one numbering, so a trace
  // joins the flight-recorder events of the thread that served it.
  FlightRecorder recorder(16);
  RequestTracePlane plane(16);
  std::thread([&] {
    recorder.Record(FrType::kPersist, 1, 0, 64, 0);
    CommitTrace(plane, 1, /*origin=*/0, 100, 200);
  }).join();
  const std::vector<FlightRecord> records = recorder.Snapshot();
  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_NE(traces[0].tid, 0u);
  EXPECT_EQ(traces[0].tid, records[0].tid);
}

TEST(ReqTraceTest, AutopsyAndJsonExports) {
  RequestTracePlane plane(16);
  CommitTrace(plane, 7, /*origin=*/400, /*start=*/1000, /*end=*/2000);
  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_EQ(traces.size(), 1u);

  const std::string autopsy = RequestTracePlane::Autopsy(traces[0]);
  EXPECT_NE(autopsy.find("trace 7"), std::string::npos);
  for (size_t i = 0; i < kS; i++) {
    EXPECT_NE(autopsy.find(ReqStageName(static_cast<ReqStage>(i))),
              std::string::npos);
  }

  const std::string json = RequestTracePlane::TraceJson(traces[0]).Dump();
  EXPECT_NE(json.find("\"trace_id\""), std::string::npos);
  EXPECT_NE(json.find("\"client_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"e2e_ns\""), std::string::npos);

  const std::string chrome =
      RequestTracePlane::ChromeTraceJson(traces).Dump();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"reqtrace\""), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace arthas
