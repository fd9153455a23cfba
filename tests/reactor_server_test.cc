// Tests for the client-server reactor split (paper Section 5) and the
// realloc-chain candidate expansion (technical report).

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "checkpoint/checkpoint_log.h"
#include "harness/mt_driver.h"
#include "obs/timeseries.h"
#include "reactor/reactor_server.h"
#include "substrate/substrate.h"
#include "systems/memcached_mini.h"
#include "systems/redis_mini.h"

namespace arthas {
namespace {

Request Put(const std::string& k, const std::string& v) {
  Request r;
  r.op = Request::Op::kPut;
  r.key = k;
  r.value = v;
  return r;
}
Request ListPush(const std::string& k, const std::string& v) {
  Request r;
  r.op = Request::Op::kListPush;
  r.key = k;
  r.value = v;
  return r;
}

TEST(ReactorServerTest, RequestAndResponseRoundTrip) {
  MitigationRequest request;
  request.fault.kind = FailureKind::kHang;
  request.fault.fault_guid = 1107;
  request.fault.fault_address = 4242;
  request.fault.exit_code = 0;
  auto parsed = MitigationRequest::Parse(request.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->fault.kind, FailureKind::kHang);
  EXPECT_EQ(parsed->fault.fault_guid, 1107u);
  EXPECT_EQ(parsed->fault.fault_address, 4242u);

  PlanResponse response;
  response.candidates = {9, 5, 2};
  response.slicing_ns = 777;
  auto plan = PlanResponse::Parse(response.Serialize());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->candidates, (std::vector<SeqNum>{9, 5, 2}));
  EXPECT_FALSE(plan->empty_plan);
  EXPECT_EQ(plan->slicing_ns, 777);

  EXPECT_FALSE(MitigationRequest::Parse("garbage").ok());
  EXPECT_FALSE(PlanResponse::Parse("").ok());
}

TEST(ReactorServerTest, ServesPlansFromIngestedTrace) {
  MemcachedMini mc;
  CheckpointLog log(mc.pool());
  mc.ArmFault(FaultId::kF2FlushAllLogic);
  ASSERT_TRUE(mc.Handle(Put("a", "1")).status.ok());
  Request flush;
  flush.op = Request::Op::kFlushAll;
  flush.int_arg = 600;
  ASSERT_TRUE(mc.Handle(flush).status.ok());
  Request get = {};
  get.op = Request::Op::kGet;
  get.key = "a";
  get.must_exist = true;
  mc.Handle(get);
  ASSERT_TRUE(mc.last_fault().has_value());

  // The server learned the addresses from the serialized trace file, not
  // from the live tracer.
  ReactorServer server(mc.ir_model(), mc.guid_registry());
  ASSERT_TRUE(server.IngestTrace(mc.tracer().Serialize()).ok());

  MitigationRequest request;
  request.fault = *mc.last_fault();
  PlanResponse plan = server.ComputePlan(request, log);
  ASSERT_FALSE(plan.empty_plan);
  // The flush_before store must lead the plan (fault-address hint).
  const PmOffset flush_addr = request.fault.fault_address;
  auto located = log.LocateSeq(plan.candidates.front());
  ASSERT_TRUE(located.has_value());
  EXPECT_EQ(located->first, flush_addr);
  EXPECT_EQ(server.requests_served(), 1);
}

TEST(ReactorServerTest, ExplainListsEveryCandidateWithReason) {
  MemcachedMini mc;
  CheckpointLog log(mc.pool());
  mc.ArmFault(FaultId::kF2FlushAllLogic);
  ASSERT_TRUE(mc.Handle(Put("a", "1")).status.ok());
  Request flush;
  flush.op = Request::Op::kFlushAll;
  flush.int_arg = 600;
  ASSERT_TRUE(mc.Handle(flush).status.ok());
  Request get = {};
  get.op = Request::Op::kGet;
  get.key = "a";
  get.must_exist = true;
  mc.Handle(get);
  ASSERT_TRUE(mc.last_fault().has_value());

  ReactorServer server(mc.ir_model(), mc.guid_registry());
  ASSERT_TRUE(server.IngestTrace(mc.tracer().Serialize()).ok());
  MitigationRequest request;
  request.fault = *mc.last_fault();

  ExplainResponse explain = server.Explain(request, log);
  ASSERT_FALSE(explain.candidates.empty());
  for (size_t i = 0; i < explain.candidates.size(); i++) {
    const CandidateDecision& d = explain.candidates[i];
    EXPECT_EQ(d.rank, i);
    EXPECT_FALSE(d.reason.empty());
    // At plan time a candidate is accepted iff its version is still
    // locatable in the checkpoint ring.
    EXPECT_EQ(d.accepted, log.LocateSeq(d.seq).has_value());
  }
  // The top candidate sits at the fault address and says so.
  auto located = log.LocateSeq(explain.candidates.front().seq);
  ASSERT_TRUE(located.has_value());
  EXPECT_EQ(located->first, request.fault.fault_address);
  EXPECT_EQ(explain.candidates.front().reason, "at_fault_address");

  // Wire round-trip preserves every decision.
  auto parsed = ExplainResponse::Parse(explain.Serialize());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->candidates.size(), explain.candidates.size());
  for (size_t i = 0; i < explain.candidates.size(); i++) {
    EXPECT_EQ(parsed->candidates[i].seq, explain.candidates[i].seq);
    EXPECT_EQ(parsed->candidates[i].rank, explain.candidates[i].rank);
    EXPECT_EQ(parsed->candidates[i].accepted, explain.candidates[i].accepted);
    EXPECT_EQ(parsed->candidates[i].reason, explain.candidates[i].reason);
  }
  EXPECT_FALSE(ExplainResponse::Parse("one two").ok());
}

TEST(ReactorServerTest, SubstrateAwareExplainDelegatesAndRefuses) {
  MemcachedMini mc;
  mc.ArmFault(FaultId::kF2FlushAllLogic);
  ASSERT_TRUE(mc.Handle(Put("a", "1")).status.ok());
  Request flush;
  flush.op = Request::Op::kFlushAll;
  flush.int_arg = 600;
  ASSERT_TRUE(mc.Handle(flush).status.ok());
  Request get = {};
  get.op = Request::Op::kGet;
  get.key = "a";
  get.must_exist = true;
  mc.Handle(get);
  ASSERT_TRUE(mc.last_fault().has_value());

  ReactorServer server(mc.ir_model(), mc.guid_registry());
  ASSERT_TRUE(server.IngestTrace(mc.tracer().Serialize()).ok());
  MitigationRequest request;
  request.fault = *mc.last_fault();

  // A revert-capable substrate delegates to its checkpoint log and the
  // answer carries the substrate token.
  auto arckpt = MakeSubstrate(SubstrateKind::kArthasCheckpoint);
  ASSERT_TRUE(arckpt->Attach(mc.pool()).ok());
  ExplainResponse explain = server.Explain(request, *arckpt);
  EXPECT_EQ(explain.substrate, "arthas");
  EXPECT_TRUE(explain.revert_capable);
  EXPECT_EQ(explain.refusal_reason, "-");
  arckpt->Detach();

  // FASE cannot revert committed updates: the answer is an explicit clean
  // refusal with an empty plan, and it survives the wire round-trip.
  auto fase = MakeSubstrate(SubstrateKind::kFase);
  ASSERT_TRUE(fase->Attach(mc.pool()).ok());
  ExplainResponse refusal = server.Explain(request, *fase);
  EXPECT_EQ(refusal.substrate, "fase");
  EXPECT_FALSE(refusal.revert_capable);
  EXPECT_EQ(refusal.refusal_reason, "substrate_not_revert_capable");
  EXPECT_TRUE(refusal.candidates.empty());
  auto parsed = ExplainResponse::Parse(refusal.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->substrate, "fase");
  EXPECT_FALSE(parsed->revert_capable);
  EXPECT_EQ(parsed->refusal_reason, "substrate_not_revert_capable");
  EXPECT_TRUE(parsed->candidates.empty());
  fase->Detach();
}

TEST(ReactorServerTest, PdgIsReusedAcrossRequests) {
  MemcachedMini mc;
  CheckpointLog log(mc.pool());
  ReactorServer server(mc.ir_model(), mc.guid_registry());
  const int64_t analysis_ns = server.timings().static_analysis_ns;
  MitigationRequest request;
  request.fault.kind = FailureKind::kCrash;
  request.fault.fault_guid = kGuidMcAssocFind;
  for (int i = 0; i < 5; i++) {
    (void)server.ComputePlan(request, log);
  }
  EXPECT_EQ(server.requests_served(), 5);
  // The static analysis ran exactly once, at server start.
  EXPECT_EQ(server.timings().static_analysis_ns, analysis_ns);
}

TEST(ReactorServerTest, StatsAndHealthWireRoundTrip) {
  StatsRequest stats_request;
  stats_request.prefix = "";
  stats_request.tail_points = 5;
  // Empty prefix travels as the "-" sentinel and must come back empty.
  auto parsed_stats_request = StatsRequest::Parse(stats_request.Serialize());
  ASSERT_TRUE(parsed_stats_request.ok());
  EXPECT_EQ(parsed_stats_request->prefix, "");
  EXPECT_EQ(parsed_stats_request->tail_points, 5u);
  stats_request.prefix = "driver.";
  parsed_stats_request = StatsRequest::Parse(stats_request.Serialize());
  ASSERT_TRUE(parsed_stats_request.ok());
  EXPECT_EQ(parsed_stats_request->prefix, "driver.");

  StatsResponse stats_response;
  stats_response.requests_served = 3;
  stats_response.sampler_running = true;
  stats_response.samples_taken = 9;
  obs::SeriesSnapshot series;
  series.name = "driver.live.ops";
  series.kind = "probe";
  series.total_points = 4;
  series.points = {{100, 1.5}, {200, 2.5}};
  stats_response.series.push_back(series);
  auto parsed_stats = StatsResponse::Parse(stats_response.Serialize());
  ASSERT_TRUE(parsed_stats.ok());
  EXPECT_EQ(parsed_stats->requests_served, 3);
  EXPECT_TRUE(parsed_stats->sampler_running);
  EXPECT_EQ(parsed_stats->samples_taken, 9u);
  ASSERT_EQ(parsed_stats->series.size(), 1u);
  EXPECT_EQ(parsed_stats->series[0].name, "driver.live.ops");
  EXPECT_EQ(parsed_stats->series[0].kind, "probe");
  EXPECT_EQ(parsed_stats->series[0].total_points, 4u);
  ASSERT_EQ(parsed_stats->series[0].points.size(), 2u);
  EXPECT_EQ(parsed_stats->series[0].points[1].t_ns, 200);
  EXPECT_DOUBLE_EQ(parsed_stats->series[0].points[1].value, 2.5);

  HealthRequest health_request;
  health_request.throughput_series = "driver.live.ops";
  auto parsed_health_request = HealthRequest::Parse(health_request.Serialize());
  ASSERT_TRUE(parsed_health_request.ok());
  EXPECT_EQ(parsed_health_request->throughput_series, "driver.live.ops");

  HealthResponse health_response;
  health_response.verdict = HealthVerdict::kRecovering;
  health_response.sampler_running = true;
  health_response.has_fault = true;
  health_response.time_to_detect_ns = 1234;
  health_response.time_to_recover_ns = -1;
  health_response.pre_fault_rate_ops_per_sec = 98765.5;
  health_response.substrate = "fase";
  auto parsed_health = HealthResponse::Parse(health_response.Serialize());
  ASSERT_TRUE(parsed_health.ok());
  EXPECT_EQ(parsed_health->verdict, HealthVerdict::kRecovering);
  EXPECT_TRUE(parsed_health->sampler_running);
  EXPECT_TRUE(parsed_health->has_fault);
  EXPECT_EQ(parsed_health->time_to_detect_ns, 1234);
  EXPECT_EQ(parsed_health->time_to_recover_ns, -1);
  EXPECT_DOUBLE_EQ(parsed_health->pre_fault_rate_ops_per_sec, 98765.5);
  EXPECT_EQ(parsed_health->substrate, "fase");

  // Older peers omit the trailing substrate token; parse stays lenient.
  auto old_health = HealthResponse::Parse("1 1 1 1234 -1 98765.5");
  ASSERT_TRUE(old_health.ok());
  EXPECT_EQ(old_health->substrate, "-");

  EXPECT_FALSE(StatsRequest::Parse("").ok());
  EXPECT_FALSE(StatsResponse::Parse("not numbers").ok());
  EXPECT_FALSE(HealthRequest::Parse("").ok());
  EXPECT_FALSE(HealthResponse::Parse("0 garbage").ok());
}

TEST(ReactorServerTest, StatsAndHealthServeWhileWorkloadRuns) {
#ifdef ARTHAS_OBS_DISABLED
  GTEST_SKIP() << "driver probes compile out under ARTHAS_OBS_DISABLED";
#endif
  obs::TelemetrySampler& sampler = obs::TelemetrySampler::Global();
  sampler.Stop();
  sampler.Reset();
  obs::SamplerOptions options;
  options.interval_ns = 100 * 1000;  // 100 us: many ticks inside the run
  sampler.Configure(options);
  ASSERT_TRUE(sampler.Start());

  MemcachedMini mc;
  ReactorServer server(mc.ir_model(), mc.guid_registry());

  MtDriverConfig config;
  config.threads = 2;
  config.ops_per_thread = 20000;
  std::thread workload([&mc, config]() mutable {
    MultiThreadedDriver driver(mc, config);
    (void)driver.Run();
  });

  // Query while the driver runs. The driver registers its live probes at
  // Run() start; their ring data persists after unregistration, so the
  // poll below succeeds even if the workload finishes first.
  StatsRequest stats_request;
  stats_request.prefix = "driver.";
  stats_request.tail_points = 8;
  StatsResponse stats;
  bool saw_ops_series = false;
  for (int i = 0; i < 2000 && !saw_ops_series; i++) {
    auto parsed = StatsResponse::Parse(server.Stats(stats_request).Serialize());
    ASSERT_TRUE(parsed.ok());
    stats = *parsed;
    for (const obs::SeriesSnapshot& s : stats.series) {
      if (s.name == "driver.live.ops" && !s.points.empty()) {
        saw_ops_series = true;
      }
    }
    if (!saw_ops_series) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(saw_ops_series);
  EXPECT_TRUE(stats.sampler_running);
  EXPECT_GT(stats.samples_taken, 0u);
  for (const obs::SeriesSnapshot& s : stats.series) {
    EXPECT_EQ(s.name.rfind("driver.", 0), 0u) << s.name;
    EXPECT_LE(s.points.size(), stats_request.tail_points);
  }

  // No fault was injected, so a live health probe must say healthy.
  HealthRequest health_request;
  health_request.throughput_series = "driver.live.ops";
  auto health = HealthResponse::Parse(server.Health(health_request).Serialize());
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->verdict, HealthVerdict::kHealthy);
  EXPECT_FALSE(health->has_fault);
  EXPECT_EQ(health->time_to_detect_ns, -1);
  EXPECT_EQ(health->time_to_recover_ns, -1);

  workload.join();
  // Stats/Health are served by the reactor server, so they count as
  // requests like ComputePlan/Explain.
  EXPECT_GE(server.requests_served(), 2);
  sampler.Stop();
  sampler.Reset();
}

TEST(ReactorServerTest, ServeLineRoundTripOverSocketpair) {
  // The network plane talks to the reactor through ServeLine's newline-
  // framed text transport. Drive that transport over a real socketpair:
  // one thread owns the server end (read line -> ServeLine -> write reply),
  // the test plays the remote operator.
  MemcachedMini mc;
  ReactorServer server(mc.ir_model(), mc.guid_registry());

  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  constexpr int kRequests = 3;

  std::thread server_thread([&server, fd = fds[1]]() {
    std::string inbuf;
    int served = 0;
    char buf[4096];
    while (served < kRequests) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) {
        break;
      }
      inbuf.append(buf, static_cast<size_t>(n));
      size_t newline;
      while (served < kRequests &&
             (newline = inbuf.find('\n')) != std::string::npos) {
        const std::string line = inbuf.substr(0, newline);
        inbuf.erase(0, newline + 1);
        Result<std::string> reply = server.ServeLine(line);
        // Transport errors stay on the transport: a bad verb answers an
        // ERR line instead of tearing the stream down.
        const std::string out =
            (reply.ok() ? *reply : "ERR " + reply.status().message()) + "\n";
        ASSERT_EQ(::write(fd, out.data(), out.size()),
                  static_cast<ssize_t>(out.size()));
        served++;
      }
    }
    ::close(fd);
  });

  auto request_line = [&fds](const std::string& line) {
    const std::string framed = line + "\n";
    EXPECT_EQ(::write(fds[0], framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
    std::string reply;
    char buf[4096];
    while (reply.find('\n') == std::string::npos) {
      const ssize_t n = ::read(fds[0], buf, sizeof(buf));
      if (n <= 0) {
        break;
      }
      reply.append(buf, static_cast<size_t>(n));
    }
    return reply.substr(0, reply.find('\n'));
  };

  // Stats and health answers must parse as the typed wire formats.
  auto stats = StatsResponse::Parse(request_line("stats - 8"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->requests_served, 1);

  auto health = HealthResponse::Parse(request_line("health harness.op.count"));
  ASSERT_TRUE(health.ok());
  EXPECT_FALSE(health->has_fault);
  // No substrate was set on this server.
  EXPECT_EQ(health->substrate, "-");

  // Unknown verbs surface as ERR lines and leave the stream usable (the
  // server thread keeps serving until its request quota).
  const std::string err = request_line("frobnicate 1 2 3");
  EXPECT_EQ(err.rfind("ERR ", 0), 0u) << err;

  server_thread.join();
  ::close(fds[0]);
  EXPECT_GE(server.requests_served(), 2);
}

TEST(ReallocChainTest, PlanReachesPreResizeHistory) {
  // Grow a listpack through a reallocation, then ask for a plan at the
  // fault site: candidates must include updates recorded at the listpack's
  // *previous* address (followed via the old_entry link).
  RedisMini rd;
  CheckpointLog log(rd.pool());
  // Fill enough that at least one realloc occurred (initial capacity 256).
  for (int i = 0; i < 12; i++) {
    ASSERT_TRUE(rd.Handle(ListPush("list", std::string(40, 'x'))).status.ok());
  }
  // Find the current listpack entry and verify a chain exists.
  bool found_link = false;
  PmOffset old_addr = kNullPmOffset;
  for (const auto& [addr, entry] : log.entries()) {
    if (entry.old_entry != kNullPmOffset) {
      found_link = true;
      old_addr = entry.old_entry;
    }
  }
  ASSERT_TRUE(found_link) << "no reallocation was recorded";

  Reactor reactor(rd.ir_model(), rd.guid_registry());
  FaultInfo fault;
  fault.kind = FailureKind::kCrash;
  fault.fault_guid = kGuidRdLpRead;
  ReactorConfig config;
  auto plan =
      reactor.ComputeReversionPlan(fault, rd.tracer(), log, config);
  ASSERT_FALSE(plan.empty());
  // Some candidate must resolve to the pre-resize address.
  bool reaches_old = false;
  for (const SeqNum seq : plan) {
    auto located = log.LocateSeq(seq);
    if (located.has_value() && located->first == old_addr) {
      reaches_old = true;
    }
  }
  EXPECT_TRUE(reaches_old);
}

}  // namespace
}  // namespace arthas
