// Open-loop latency-vs-offered-load curves over the real network plane
// (ROADMAP item 1; the methodology gate for every later perf claim).
//
// The closed-loop MultiThreadedDriver measures its own think time: each
// client waits for its reply before sending again, so offered load politely
// collapses with the server and queueing delay never appears —
// BENCH_overhead.json pinned every system at ~7.1k ops/s per thread with
// perfectly flat scaling. This bench severs that feedback: an epoll server
// (src/net) serves the mini KV systems over real sockets with request
// pipelining and per-batch persist amortization, while the open-loop
// generator (net/load_gen.h) offers Poisson arrivals at a fixed target rate
// and measures every latency from the request's *scheduled arrival*, so
// time spent queued behind a saturated server counts. Sweeping the target
// rate yields the hockey-stick curve, a defensible saturation throughput,
// and p50/p95/p99/p999 tails per offered-load point.
//
// Sections of BENCH_netplane.json:
//   sweeps            {Memcached, Redis} x {arthas, fase}: per-point
//                     offered/achieved QPS + latency quantiles, and the
//                     sweep's saturation (max achieved) vs the closed-loop
//                     per-thread ceiling
//   high_connections  one point driven over >= 1000 concurrent connections
//   batch_ab          achieved QPS with per-batch persist amortization
//                     (one drain per pipelined batch) vs one drain per store
//   fault_timeline    the paper's Fig. 7 under real traffic: a mid-run f4
//                     hard fault injected over the wire, detector confirm +
//                     reactor reversion in the serving path, and the
//                     TimelineAnalyzer's time-to-detect / time-to-recover
//                     derived from the live "net.ops.ok" series
//
// Tail-attribution mode (--tailtrace-json <path>): instead of the sections
// above, answers *where p999 time goes*. For every {system} x {substrate}
// cell a saturation probe sizes the grid, then points below/at/above
// saturation run with client trace-context propagation on, and the request
// trace plane's per-stage breakdown of the slowest (>= p999) requests is
// decomposed — client wait, batch wait, lock wait, section, flush, drain,
// reply write — with per-trace closure (stage sum over end-to-end span,
// ~1.0 by construction). A fault-under-load cell re-runs the f4 scenario
// with tracing on, so the tail during mitigation is attributed to the
// detector and reactor spans rather than generic lock wait. The result is
// BENCH_tailtrace.json (schema-checked by `check_artifacts.py tailtrace`);
// --tailtrace-chrome <path> additionally exports the slowest requests as a
// Chrome trace-event file for chrome://tracing.
//
// Flags: --quick (CI smoke: full system x substrate grid, short points),
// --skip-fault, --skip-sweep, --out <path>, --tailtrace-json <path>,
// --tailtrace-chrome <path>, plus the common ObsArtifactWriter flags. Run
// from the repo root so BENCH_netplane.json lands next to the other
// committed artifacts.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/clock.h"
#include "detector/detector.h"
#include "faults/fault_ids.h"
#include "harness/artifacts.h"
#include "net/dispatcher.h"
#include "net/load_gen.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/reqtrace.h"
#include "obs/timeseries.h"
#include "reactor/reactor_server.h"
#include "substrate/substrate.h"
#include "systems/memcached_mini.h"
#include "systems/redis_mini.h"
#include "workload/zipfian.h"

namespace arthas {
namespace {

// BENCH_overhead.json's closed-loop per-thread plateau; the sweep exists to
// show real saturation clears it by a wide margin.
constexpr double kClosedLoopCeilingOpsPerSec = 7100.0;

struct BenchConfig {
  bool quick = false;
  bool skip_fault = false;
  bool skip_sweep = false;
  std::string out_path = "BENCH_netplane.json";
  // Non-empty switches the run to tail-attribution mode (see header).
  std::string tailtrace_out;
  std::string tailtrace_chrome;

  int loop_threads = 2;
  int gen_threads = 2;
  int connections = 128;
  int64_t point_duration_ms = 1000;
  int64_t drain_ms = 2500;
  std::vector<double> offered_qps = {4000,  8000,   16000,  32000,
                                     64000, 128000, 256000};
  int high_connections = 1200;
  double high_connections_qps = 32000;
  uint64_t seed = 42;

  // Fault-under-traffic scenario (wall-clock delays sized so the collapse
  // and recovery span many 5 ms sampler ticks).
  double fault_qps = 15000;
  int fault_connections = 64;
  int64_t fault_duration_ms = 3000;
  int64_t fault_trigger_at_ms = 1000;
  int64_t detect_delay_ms = 120;  // monitoring gap before the detector fires
  int64_t restart_delay_ms = 30;  // modeled process-restart cost
  int64_t sampler_interval_ns = 5 * 1000 * 1000;
};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double UnitUniform(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

// Stateless per-sequence-number workload: the generator threads share one
// const ZipfianGenerator (NextForUniform is pure) and derive both the key
// rank and the op from a SplitMix64 hash of the global sequence number, so
// the request stream is deterministic under any thread interleaving. Same
// shape as the closed-loop benches: zipfian key popularity, 50/50 GET/SET,
// single-token 16-byte values.
class NetWorkload {
 public:
  NetWorkload(uint64_t key_space, double read_fraction, size_t value_size,
              uint64_t seed)
      : zipf_(key_space),
        read_fraction_(read_fraction),
        value_size_(value_size),
        seed_(seed) {}

  void Append(uint64_t seq, std::string* out) const {
    const uint64_t h = SplitMix64(seq ^ seed_);
    const uint64_t record = zipf_.NextForUniform(UnitUniform(h));
    if (UnitUniform(SplitMix64(h)) < read_fraction_) {
      out->append("GET user");
      out->append(std::to_string(record));
      out->push_back('\n');
    } else {
      out->append("SET user");
      out->append(std::to_string(record));
      out->push_back(' ');
      out->append(value_size_, static_cast<char>('a' + record % 26));
      out->push_back('\n');
    }
  }

 private:
  ZipfianGenerator zipf_;
  double read_fraction_;
  size_t value_size_;
  uint64_t seed_;
};

struct SystemSpec {
  std::string name;
  std::function<std::unique_ptr<PmSystemBase>()> factory;
};

std::vector<SystemSpec> MakeSystems() {
  std::vector<SystemSpec> systems;
  systems.push_back({"Memcached", [] {
                       MemcachedOptions o;
                       o.pool_size = 8 * 1024 * 1024;
                       o.hashtable_buckets = 1024;
                       return std::make_unique<MemcachedMini>(o);
                     }});
  systems.push_back({"Redis", [] {
                       RedisOptions o;
                       o.pool_size = 8 * 1024 * 1024;
                       return std::make_unique<RedisMini>(o);
                     }});
  return systems;
}

obs::JsonValue LatencyJson(const net::LoadGenReport& report) {
  obs::JsonValue v = obs::JsonValue::Object();
  v.Set("mean", obs::JsonValue(report.mean_us));
  v.Set("p50", obs::JsonValue(report.p50_us));
  v.Set("p95", obs::JsonValue(report.p95_us));
  v.Set("p99", obs::JsonValue(report.p99_us));
  v.Set("p999", obs::JsonValue(report.p999_us));
  v.Set("max", obs::JsonValue(report.max_us));
  return v;
}

obs::JsonValue PointJson(double target_qps, int connections,
                         const net::LoadGenReport& report) {
  obs::JsonValue v = obs::JsonValue::Object();
  v.Set("offered_qps_target", obs::JsonValue(target_qps));
  v.Set("connections", obs::JsonValue(static_cast<int64_t>(connections)));
  v.Set("offered_qps", obs::JsonValue(report.offered_qps));
  v.Set("achieved_qps", obs::JsonValue(report.achieved_qps));
  v.Set("sent", obs::JsonValue(report.sent));
  v.Set("received", obs::JsonValue(report.received));
  v.Set("ok", obs::JsonValue(report.ok));
  v.Set("errors", obs::JsonValue(report.errors));
  v.Set("faults", obs::JsonValue(report.faults));
  v.Set("dropped", obs::JsonValue(report.dropped));
  v.Set("latency_us", LatencyJson(report));
  return v;
}

// --- Tail attribution helpers ------------------------------------------------

// Aggregate stage decomposition of a slow set: per-stage means, mean
// end-to-end span, and per-trace closure (stage sum / end-to-end span —
// ~1.0 by construction, the CI gate requires >= 0.9).
struct SlowSetStats {
  size_t count = 0;
  double e2e_mean_us = 0;
  double stage_sum_mean_us = 0;
  double closure_min = 0;
  double closure_mean = 0;
  double stage_mean_us[obs::kReqStageCount] = {};
};

SlowSetStats SummarizeSlowSet(const std::vector<obs::RequestTrace>& slow) {
  SlowSetStats stats;
  stats.count = slow.size();
  if (slow.empty()) {
    return stats;
  }
  double closure_min = 2.0;
  double closure_sum = 0;
  double e2e_sum = 0;
  double stage_total = 0;
  for (const obs::RequestTrace& trace : slow) {
    const double e2e = static_cast<double>(trace.EndToEndNs());
    double sum = 0;
    for (size_t s = 0; s < obs::kReqStageCount; s++) {
      const double ns = static_cast<double>(trace.stage_ns[s]);
      stats.stage_mean_us[s] += ns;
      sum += ns;
    }
    const double closure = e2e > 0 ? sum / e2e : 1.0;
    closure_min = std::min(closure_min, closure);
    closure_sum += closure;
    e2e_sum += e2e;
    stage_total += sum;
  }
  const double n = static_cast<double>(slow.size());
  for (size_t s = 0; s < obs::kReqStageCount; s++) {
    stats.stage_mean_us[s] /= n * 1000.0;
  }
  stats.e2e_mean_us = e2e_sum / (n * 1000.0);
  stats.stage_sum_mean_us = stage_total / (n * 1000.0);
  stats.closure_min = closure_min;
  stats.closure_mean = closure_sum / n;
  return stats;
}

obs::JsonValue SlowSetJson(const SlowSetStats& stats,
                           const std::vector<obs::RequestTrace>& slow,
                           size_t max_requests) {
  obs::JsonValue v = obs::JsonValue::Object();
  v.Set("slow_count", obs::JsonValue(static_cast<int64_t>(stats.count)));
  v.Set("slow_e2e_mean_us", obs::JsonValue(stats.e2e_mean_us));
  v.Set("stage_sum_mean_us", obs::JsonValue(stats.stage_sum_mean_us));
  v.Set("closure_min", obs::JsonValue(stats.closure_min));
  v.Set("closure_mean", obs::JsonValue(stats.closure_mean));
  obs::JsonValue stages = obs::JsonValue::Object();
  for (size_t s = 0; s < obs::kReqStageCount; s++) {
    stages.Set(obs::ReqStageName(static_cast<obs::ReqStage>(s)),
               obs::JsonValue(stats.stage_mean_us[s]));
  }
  v.Set("stages_us", std::move(stages));
  obs::JsonValue requests = obs::JsonValue::Array();
  for (size_t i = 0; i < slow.size() && i < max_requests; i++) {
    requests.Append(obs::RequestTracePlane::TraceJson(slow[i]));
  }
  v.Set("slow_requests", std::move(requests));
  return v;
}

// The slowest retained requests at or above the plane-side end-to-end p999
// (falls back to the 16 slowest when the reservoir sits entirely below the
// bucketed threshold).
std::vector<obs::RequestTrace> CollectSlowSet(double p999_ns) {
  obs::RequestTracePlane& plane = obs::RequestTracePlane::Global();
  std::vector<obs::RequestTrace> slow;
  for (const obs::RequestTrace& trace : plane.SlowestRequests(0)) {
    if (static_cast<double>(trace.EndToEndNs()) >= p999_ns) {
      slow.push_back(trace);
    }
  }
  if (slow.empty()) {
    slow = plane.SlowestRequests(16);
  }
  return slow;
}

// One open-loop measurement against a freshly served system (fresh so the
// points are independent and the checkpoint log never carries a previous
// point's history). Returns the report; `*out_error` is set on setup
// failure.
net::LoadGenReport RunPoint(const BenchConfig& config, const SystemSpec& spec,
                            SubstrateKind kind, double target_qps,
                            int connections, int64_t duration_ms,
                            bool batch_persists, bool propagate_ids,
                            std::string* out_error) {
  auto system = spec.factory();
  system->tracer().set_enabled(kind == SubstrateKind::kArthasCheckpoint);
  auto substrate = MakeSubstrate(kind);
  if (Status s = substrate->Attach(system->pool()); !s.ok()) {
    *out_error = "substrate attach failed: " + s.ToString();
    return {};
  }
  system->set_substrate(substrate.get());

  net::NetDispatcher::Options dispatch_options;
  dispatch_options.batch_persists = batch_persists;
  net::NetDispatcher dispatcher(*system, nullptr, dispatch_options);
  net::NetServerOptions server_options;
  server_options.loop_threads = config.loop_threads;
  net::NetServer server(dispatcher, server_options);
  if (Status s = server.Start(); !s.ok()) {
    *out_error = "server start failed: " + s.ToString();
    return {};
  }

  net::LoadGenOptions load;
  load.port = server.port();
  load.threads = config.gen_threads;
  load.connections = connections;
  load.target_qps = target_qps;
  load.duration_ms = duration_ms;
  load.drain_ms = config.drain_ms;
  load.seed = config.seed;
  load.propagate_trace_ids = propagate_ids;
  NetWorkload workload(400, 0.5, 16, config.seed);
  net::LoadGenReport report = net::RunOpenLoop(
      load,
      [&workload](uint64_t seq, std::string* out) { workload.Append(seq, out); });

  server.Stop();
  system->set_substrate(nullptr);
  substrate->Detach();
  if (!report.status.ok()) {
    *out_error = report.status.ToString();
  }
  return report;
}

// --- Fault under traffic ------------------------------------------------------

// Blocking control connection for the fault trigger and the post-recovery
// STATS/HEALTH probes (the load generator's sockets never see these).
class ControlConn {
 public:
  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    const int one = 1;
    (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  ~ControlConn() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) {
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads until `count` replies arrive or `deadline_ms` passes.
  std::vector<net::NetReply> ReadReplies(size_t count, int64_t deadline_ms) {
    std::vector<net::NetReply> replies;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms);
    char buf[16 * 1024];
    while (replies.size() < count &&
           std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) {
        continue;
      }
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) {
        break;
      }
      parser_.Feed(buf, static_cast<size_t>(n), &replies);
    }
    return replies;
  }

 private:
  int fd_ = -1;
  net::ReplyParser parser_;
};

const char* ReplyKindName(net::NetReply::Kind kind) {
  switch (kind) {
    case net::NetReply::Kind::kSimple:
      return "+";
    case net::NetReply::Kind::kError:
      return "-ERR";
    case net::NetReply::Kind::kFault:
      return "-FAULT";
    case net::NetReply::Kind::kInteger:
      return ":";
    case net::NetReply::Kind::kBulk:
      return "$";
    case net::NetReply::Kind::kNil:
      return "$-1";
  }
  return "?";
}

// The paper's Fig. 7 under real load: serve Memcached (arthas substrate)
// over the socket plane while the open-loop generator offers steady
// traffic, inject the f4 append-overflow hard fault over a control
// connection mid-run, and let the dispatcher's on_fault hook run the full
// detect -> confirm-across-restart -> reactor-revert loop while request
// traffic queues behind the request lock. The TelemetrySampler watches the
// served "net.ops.ok" rate collapse and recover; the TimelineAnalyzer turns
// that into time-to-detect / time-to-recover.
obs::JsonValue RunFaultTimeline(const BenchConfig& config, bool tailtrace,
                                std::string* out_error) {
  obs::JsonValue result = obs::JsonValue::Object();
  result.Set("system", obs::JsonValue("Memcached"));
  result.Set("substrate", obs::JsonValue("arthas"));
  result.Set("fault", obs::JsonValue("f4_append_int_overflow"));

  MemcachedOptions options;
  options.pool_size = 8 * 1024 * 1024;
  options.hashtable_buckets = 1024;
  MemcachedMini system(options);
  system.tracer().set_enabled(true);
  // The f4 bug ships in the "binary": the append path computes the new
  // length in an 8-bit header field, and the oversized copy clobbers the
  // buddy-adjacent victim item. Arming selects which latent bug this build
  // carries, exactly as the fault-matrix harness does.
  system.ArmFault(FaultId::kF4AppendIntOverflow);
  auto substrate = MakeSubstrate(SubstrateKind::kArthasCheckpoint);
  if (Status s = substrate->Attach(system.pool()); !s.ok()) {
    *out_error = "substrate attach failed: " + s.ToString();
    return result;
  }
  system.set_substrate(substrate.get());

  ReactorServer reactor(system.ir_model(), system.guid_registry());
  reactor.set_active_substrate(substrate.get());
  Detector detector;
  VirtualClock clock;
  std::atomic<bool> recovered{false};
  std::atomic<int> reexecutions{0};
  std::atomic<uint64_t> reverted_updates{0};
  std::string mitigation_detail;
  std::mutex detail_mutex;

  // Restart the "process" and re-run the appending client's read — the
  // detector's recurrence check and the reactor's probe both go through
  // this. The sleep models the restart cost a real deployment pays, so the
  // sampler sees a collapse that spans ticks rather than one.
  auto reexecute = [&]() {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config.restart_delay_ms));
    (void)system.Restart();
    Request get;
    get.op = Request::Op::kGet;
    get.key = "f4victim";
    (void)system.Handle(get);
    RunObservation observation;
    observation.fault = system.last_fault();
    observation.item_count = system.ItemCount();
    return observation;
  };

  net::NetDispatcher::Options dispatch_options;
  dispatch_options.batch_persists = true;
  dispatch_options.on_fault = [&](const FaultInfo& fault) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config.detect_delay_ms));
    (void)detector.Observe(fault);
    ARTHAS_TIMELINE_MARK("detector_fired");
    // Splits the trace plane's mitigation window: queueing before this
    // instant reads as kDetector, after it as kReactor.
    obs::RequestTracePlane::Global().MarkDetectorFired(NowNanos());
    RunObservation confirm = reexecute();
    reexecutions.fetch_add(1);
    if (detector.Observe(confirm.fault) !=
        Detector::Assessment::kSuspectedHardFailure) {
      // The restart cleared it; nothing to revert.
      recovered.store(!confirm.fault.has_value());
      return;
    }
    (void)reactor.IngestTrace(system.tracer().Serialize());
    MitigationRequest request;
    request.fault = *confirm.fault;
    MitigationOutcome outcome =
        reactor.Execute(request, *substrate, system, reexecute, clock);
    reexecutions.fetch_add(outcome.reexecutions);
    reverted_updates.fetch_add(outcome.reverted_updates);
    recovered.store(outcome.recovered);
    std::lock_guard<std::mutex> lock(detail_mutex);
    mitigation_detail = outcome.detail;
  };
  net::NetDispatcher dispatcher(system, &reactor, dispatch_options);
  net::NetServerOptions server_options;
  server_options.loop_threads = config.loop_threads;
  net::NetServer server(dispatcher, server_options);
  if (Status s = server.Start(); !s.ok()) {
    *out_error = "server start failed: " + s.ToString();
    return result;
  }

  // Live telemetry over the serving window.
  obs::TelemetrySampler& sampler = obs::TelemetrySampler::Global();
  sampler.Stop();
  sampler.Reset();
  obs::SamplerOptions sampler_options;
  sampler_options.interval_ns = config.sampler_interval_ns;
  sampler.Configure(sampler_options);
  sampler.Start();
  const auto warmup_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (sampler.samples_taken() < 3 &&
         std::chrono::steady_clock::now() < warmup_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Trigger thread: after the pre-fault window, pipeline the f4 sequence in
  // ONE write so the whole batch executes under one request-lock hold (the
  // two allocations must be buddy-adjacent, with no interleaved traffic).
  std::vector<std::string> trigger_replies;
  std::thread trigger([&] {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config.fault_trigger_at_ms));
    ControlConn control;
    if (!control.Connect(server.port())) {
      return;
    }
    ARTHAS_TIMELINE_MARK("fault_injected");
    std::string batch;
    batch += "SET appendee " + std::string(200, 'a') + "\n";
    batch += "SET f4victim " + std::string(210, 'v') + "\n";
    batch += "APPEND appendee " + std::string(100, 'b') + "\n";
    batch += "GET f4victim\n";
    if (!control.Send(batch)) {
      return;
    }
    for (const net::NetReply& reply : control.ReadReplies(4, 15000)) {
      trigger_replies.push_back(std::string(ReplyKindName(reply.kind)) +
                                (reply.text.empty() ? "" : " " + reply.text));
    }
  });

  net::LoadGenOptions load;
  load.port = server.port();
  load.threads = config.gen_threads;
  load.connections = config.fault_connections;
  load.target_qps = config.fault_qps;
  load.duration_ms = config.fault_duration_ms;
  load.drain_ms = config.drain_ms;
  load.seed = config.seed;
  load.propagate_trace_ids = tailtrace;
  if (tailtrace) {
    // A clean plane, so the slow set is exactly this scenario's traffic.
    obs::RequestTracePlane::Global().Clear();
    obs::MetricsRegistry::Global().GetHistogram("net.req.server_ns").Reset();
    obs::MetricsRegistry::Global().GetHistogram("net.req.e2e_ns").Reset();
  }
  NetWorkload workload(400, 0.5, 16, config.seed);
  net::LoadGenReport report = net::RunOpenLoop(
      load,
      [&workload](uint64_t seq, std::string* out) { workload.Append(seq, out); });
  trigger.join();

  // Post-recovery: the reactor's Stats/Health endpoints over the same
  // socket transport the KV traffic used.
  std::string health_over_wire;
  {
    ControlConn control;
    if (control.Connect(server.port()) &&
        control.Send("HEALTH net.ops.ok\n")) {
      std::vector<net::NetReply> replies = control.ReadReplies(1, 3000);
      if (!replies.empty()) {
        health_over_wire = replies[0].text;
      }
    }
  }

  server.Stop();
  sampler.Stop();
  obs::TimelineAnalyzerConfig analyzer_config;
  analyzer_config.throughput_series = "net.ops.ok";
  const obs::TimelineReport timeline =
      obs::TimelineAnalyzer(analyzer_config).Analyze(sampler);

  system.set_substrate(nullptr);
  substrate->Detach();

  result.Set("load", PointJson(config.fault_qps, config.fault_connections,
                               report));
  obs::JsonValue replies_json = obs::JsonValue::Array();
  for (const std::string& reply : trigger_replies) {
    replies_json.Append(obs::JsonValue(reply));
  }
  result.Set("trigger_replies", std::move(replies_json));
  result.Set("recovered", obs::JsonValue(recovered.load()));
  result.Set("reexecutions",
             obs::JsonValue(static_cast<int64_t>(reexecutions.load())));
  result.Set("reverted_updates", obs::JsonValue(reverted_updates.load()));
  {
    std::lock_guard<std::mutex> lock(detail_mutex);
    result.Set("mitigation_detail", obs::JsonValue(mitigation_detail));
  }
  result.Set("health_over_wire", obs::JsonValue(health_over_wire));
  result.Set("timeline", timeline.ToJson());

  if (tailtrace) {
    // Tail attribution during mitigation: the traces whose queueing time
    // was reassigned into the detector/reactor spans ARE the fault tail.
    obs::RequestTracePlane& plane = obs::RequestTracePlane::Global();
    std::vector<obs::RequestTrace> mitigated;
    uint64_t faulted_traces = 0;
    for (const obs::RequestTrace& trace : plane.SlowestRequests(0)) {
      if (trace.faulted) {
        faulted_traces++;
      }
      if (trace.stage_ns[static_cast<size_t>(obs::ReqStage::kDetector)] +
              trace.stage_ns[static_cast<size_t>(obs::ReqStage::kReactor)] >
          0) {
        mitigated.push_back(trace);
      }
    }
    const SlowSetStats stats = SummarizeSlowSet(mitigated);
    obs::JsonValue tail = SlowSetJson(stats, mitigated, 8);
    tail.Set("traced", obs::JsonValue(plane.total_traced()));
    tail.Set("faulted_traces", obs::JsonValue(faulted_traces));
    result.Set("tailtrace", std::move(tail));
    std::fprintf(stderr,
                 "fault tailtrace: %zu traces in mitigation window, "
                 "detector %.0f us + reactor %.0f us of %.0f us mean tail\n",
                 mitigated.size(),
                 stats.stage_mean_us[static_cast<size_t>(
                     obs::ReqStage::kDetector)],
                 stats.stage_mean_us[static_cast<size_t>(
                     obs::ReqStage::kReactor)],
                 stats.e2e_mean_us);
  }

  std::fprintf(stderr,
               "fault timeline: recovered=%s faults_over_wire=%llu "
               "time-to-detect=%.1f ms time-to-recover=%.1f ms\n",
               recovered.load() ? "yes" : "no",
               static_cast<unsigned long long>(report.faults),
               static_cast<double>(timeline.time_to_detect_ns) / 1e6,
               static_cast<double>(timeline.time_to_recover_ns) / 1e6);
  if (!recovered.load() || timeline.time_to_recover_ns < 0) {
    *out_error = "fault scenario did not produce a recovered timeline";
  }
  return result;
}

// --- Tail-attribution mode (--tailtrace-json) --------------------------------

int RunTailtrace(const BenchConfig& config) {
  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("bench", obs::JsonValue("netplane_tailtrace"));
  doc.Set("schema_version", obs::JsonValue(static_cast<int64_t>(1)));
  doc.Set("mode", obs::JsonValue(config.quick ? "quick" : "full"));
  doc.Set("loop_threads",
          obs::JsonValue(static_cast<int64_t>(config.loop_threads)));
  doc.Set("gen_threads",
          obs::JsonValue(static_cast<int64_t>(config.gen_threads)));

  obs::RequestTracePlane& plane = obs::RequestTracePlane::Global();
  obs::Histogram& e2e_hist =
      obs::MetricsRegistry::Global().GetHistogram("net.req.e2e_ns");
  obs::Histogram& server_hist =
      obs::MetricsRegistry::Global().GetHistogram("net.req.server_ns");

  const std::vector<SystemSpec> systems = MakeSystems();
  const std::vector<SubstrateKind> kinds = {SubstrateKind::kArthasCheckpoint,
                                            SubstrateKind::kFase};
  const struct {
    const char* label;
    double factor;
  } kPoints[] = {{"below", 0.6}, {"at", 1.0}, {"above", 1.5}};

  bool failed = false;
  std::vector<obs::RequestTrace> chrome_traces;
  obs::JsonValue cells = obs::JsonValue::Array();
  for (const SystemSpec& spec : systems) {
    if (config.skip_sweep) {
      break;
    }
    for (const SubstrateKind kind : kinds) {
      // Saturation probe: overload the cell once (no propagation — the
      // probe only sizes the below/at/above grid).
      std::string error;
      net::LoadGenReport probe = RunPoint(
          config, spec, kind, config.offered_qps.back(), config.connections,
          config.point_duration_ms, true, false, &error);
      if (!error.empty()) {
        std::fprintf(stderr, "saturation probe failed (%s/%s): %s\n",
                     spec.name.c_str(), SubstrateKindName(kind),
                     error.c_str());
        failed = true;
        continue;
      }
      const double saturation = std::max(probe.achieved_qps, 1000.0);
      std::fprintf(stderr, "%s/%s saturation %.0f ops/s\n", spec.name.c_str(),
                   SubstrateKindName(kind), saturation);

      for (const auto& point : kPoints) {
        plane.Clear();
        e2e_hist.Reset();
        server_hist.Reset();
        const double qps = saturation * point.factor;
        net::LoadGenReport report =
            RunPoint(config, spec, kind, qps, config.connections,
                     config.point_duration_ms, true, true, &error);
        if (!error.empty()) {
          std::fprintf(stderr, "tail point failed (%s/%s %s): %s\n",
                       spec.name.c_str(), SubstrateKindName(kind),
                       point.label, error.c_str());
          failed = true;
          continue;
        }

        const double p999_ns = e2e_hist.Percentile(0.999);
        const std::vector<obs::RequestTrace> slow = CollectSlowSet(p999_ns);
        const SlowSetStats stats = SummarizeSlowSet(slow);

        // The client histogram's tail buckets name the requests that
        // crossed them; resolve each retained id against the plane.
        size_t tail_buckets = 0;
        size_t resolved = 0;
        for (const obs::TailExemplar& exemplar : report.tail_exemplars) {
          tail_buckets++;
          obs::RequestTrace trace;
          if (exemplar.exemplar != 0 &&
              plane.FindTrace(exemplar.exemplar, &trace)) {
            resolved++;
          }
        }

        obs::JsonValue cell = obs::JsonValue::Object();
        cell.Set("system", obs::JsonValue(spec.name));
        cell.Set("substrate", obs::JsonValue(SubstrateKindName(kind)));
        cell.Set("load", obs::JsonValue(point.label));
        cell.Set("saturation_ops_per_sec", obs::JsonValue(saturation));
        cell.Set("point", PointJson(qps, config.connections, report));
        cell.Set("traced", obs::JsonValue(plane.total_traced()));
        cell.Set("dropped_traces", obs::JsonValue(plane.dropped()));
        cell.Set("p999_e2e_us", obs::JsonValue(p999_ns / 1000.0));
        obs::JsonValue exemplars = obs::JsonValue::Object();
        exemplars.Set("tail_buckets",
                      obs::JsonValue(static_cast<int64_t>(tail_buckets)));
        exemplars.Set("resolved",
                      obs::JsonValue(static_cast<int64_t>(resolved)));
        cell.Set("exemplars", std::move(exemplars));
        cell.Set("tail", SlowSetJson(stats, slow, 8));
        cells.Append(std::move(cell));

        if (std::string(point.label) == "at") {
          for (size_t i = 0; i < slow.size() && i < 8; i++) {
            chrome_traces.push_back(slow[i]);
          }
        }
        std::fprintf(stderr,
                     "%s/%s %s @ %.0f: p999(e2e) %.0f us, %zu slow traces, "
                     "closure %.3f, exemplars %zu/%zu\n",
                     spec.name.c_str(), SubstrateKindName(kind), point.label,
                     qps, p999_ns / 1000.0, slow.size(), stats.closure_mean,
                     resolved, tail_buckets);
      }
    }
  }
  doc.Set("cells", std::move(cells));

  if (!config.skip_fault) {
    std::string error;
    obs::JsonValue fault = RunFaultTimeline(config, true, &error);
    for (const obs::RequestTrace& trace : plane.SlowestRequests(8)) {
      chrome_traces.push_back(trace);
    }
    doc.Set("fault", std::move(fault));
    if (!error.empty()) {
      std::fprintf(stderr, "fault tailtrace failed: %s\n", error.c_str());
      failed = true;
    }
  }

  std::ofstream out(config.tailtrace_out);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", config.tailtrace_out.c_str());
    return 1;
  }
  out << doc.Dump() << "\n";
  std::fprintf(stderr, "wrote %s\n", config.tailtrace_out.c_str());

  if (!config.tailtrace_chrome.empty()) {
    std::ofstream chrome(config.tailtrace_chrome);
    if (!chrome) {
      std::fprintf(stderr, "cannot write %s\n",
                   config.tailtrace_chrome.c_str());
      return 1;
    }
    chrome << obs::RequestTracePlane::ChromeTraceJson(chrome_traces).Dump()
           << "\n";
    std::fprintf(stderr, "wrote %s (%zu traces)\n",
                 config.tailtrace_chrome.c_str(), chrome_traces.size());
  }
  return failed ? 1 : 0;
}

int Run(const BenchConfig& config) {
  if (!config.tailtrace_out.empty()) {
    return RunTailtrace(config);
  }
  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("bench", obs::JsonValue("netplane"));
  doc.Set("schema_version", obs::JsonValue(static_cast<int64_t>(1)));
  doc.Set("mode", obs::JsonValue(config.quick ? "quick" : "full"));
  doc.Set("loop_threads",
          obs::JsonValue(static_cast<int64_t>(config.loop_threads)));
  doc.Set("gen_threads",
          obs::JsonValue(static_cast<int64_t>(config.gen_threads)));
  doc.Set("closed_loop_per_thread_ceiling_ops_per_sec",
          obs::JsonValue(kClosedLoopCeilingOpsPerSec));

  // Quick keeps the full system x substrate grid (the CI gate wants every
  // cell present) and economizes on points per sweep instead.
  const std::vector<SystemSpec> systems = MakeSystems();
  const std::vector<SubstrateKind> kinds = {SubstrateKind::kArthasCheckpoint,
                                            SubstrateKind::kFase};

  bool failed = false;
  if (!config.skip_sweep) {
    obs::JsonValue sweeps = obs::JsonValue::Array();
    for (const SystemSpec& spec : systems) {
      for (const SubstrateKind kind : kinds) {
        obs::JsonValue sweep = obs::JsonValue::Object();
        sweep.Set("system", obs::JsonValue(spec.name));
        sweep.Set("substrate", obs::JsonValue(SubstrateKindName(kind)));
        sweep.Set("batch_persists", obs::JsonValue(true));
        obs::JsonValue points = obs::JsonValue::Array();
        double saturation = 0;
        for (const double qps : config.offered_qps) {
          std::string error;
          net::LoadGenReport report =
              RunPoint(config, spec, kind, qps, config.connections,
                       config.point_duration_ms, true, false, &error);
          if (!error.empty()) {
            std::fprintf(stderr, "point failed (%s/%s @ %.0f): %s\n",
                         spec.name.c_str(), SubstrateKindName(kind), qps,
                         error.c_str());
            failed = true;
            continue;
          }
          saturation = std::max(saturation, report.achieved_qps);
          std::fprintf(stderr,
                       "%s/%s offered %.0f -> achieved %.0f ops/s  p50 %.0f "
                       "p99 %.0f p999 %.0f us\n",
                       spec.name.c_str(), SubstrateKindName(kind),
                       report.offered_qps, report.achieved_qps, report.p50_us,
                       report.p99_us, report.p999_us);
          points.Append(PointJson(qps, config.connections, report));
        }
        sweep.Set("points", std::move(points));
        sweep.Set("saturation_ops_per_sec", obs::JsonValue(saturation));
        sweep.Set("saturation_vs_closed_loop_ceiling",
                  obs::JsonValue(saturation / kClosedLoopCeilingOpsPerSec));
        sweeps.Append(std::move(sweep));
      }
    }
    doc.Set("sweeps", std::move(sweeps));

    // The thousands-of-connections point: same offered load, served over
    // >= 1000 sockets, so per-connection buffering and poller fan-in are
    // exercised at production-like connection counts.
    {
      std::string error;
      net::LoadGenReport report = RunPoint(
          config, systems[0], kinds[0], config.high_connections_qps,
          config.high_connections, config.point_duration_ms, true, false,
          &error);
      if (error.empty()) {
        obs::JsonValue high = obs::JsonValue::Object();
        high.Set("system", obs::JsonValue(systems[0].name));
        high.Set("substrate", obs::JsonValue(SubstrateKindName(kinds[0])));
        high.Set("point", PointJson(config.high_connections_qps,
                                    config.high_connections, report));
        doc.Set("high_connections", std::move(high));
        std::fprintf(stderr,
                     "high-connections: %d conns offered %.0f -> achieved "
                     "%.0f ops/s p99 %.0f us\n",
                     config.high_connections, report.offered_qps,
                     report.achieved_qps, report.p99_us);
      } else {
        std::fprintf(stderr, "high-connections point failed: %s\n",
                     error.c_str());
        failed = true;
      }
    }

    // Persist-batching A/B at an overloaded offered rate, so achieved QPS
    // reflects capacity: the same pipelined traffic with one drain per
    // batch vs one drain per store.
    {
      const double qps = config.offered_qps.back();
      std::string error_on;
      std::string error_off;
      net::LoadGenReport batched =
          RunPoint(config, systems[0], kinds[0], qps, config.connections,
                   config.point_duration_ms, true, false, &error_on);
      net::LoadGenReport unbatched =
          RunPoint(config, systems[0], kinds[0], qps, config.connections,
                   config.point_duration_ms, false, false, &error_off);
      if (error_on.empty() && error_off.empty()) {
        obs::JsonValue ab = obs::JsonValue::Object();
        ab.Set("system", obs::JsonValue(systems[0].name));
        ab.Set("substrate", obs::JsonValue(SubstrateKindName(kinds[0])));
        ab.Set("offered_qps_target", obs::JsonValue(qps));
        ab.Set("batched", PointJson(qps, config.connections, batched));
        ab.Set("unbatched", PointJson(qps, config.connections, unbatched));
        const double speedup = unbatched.achieved_qps > 0
                                   ? batched.achieved_qps /
                                         unbatched.achieved_qps
                                   : 0;
        ab.Set("batched_over_unbatched", obs::JsonValue(speedup));
        doc.Set("batch_ab", std::move(ab));
        std::fprintf(stderr,
                     "batch A/B @ %.0f: batched %.0f vs unbatched %.0f "
                     "ops/s (%.2fx)\n",
                     qps, batched.achieved_qps, unbatched.achieved_qps,
                     speedup);
      } else {
        std::fprintf(stderr, "batch A/B failed: %s %s\n", error_on.c_str(),
                     error_off.c_str());
        failed = true;
      }
    }
  }

  if (!config.skip_fault) {
    std::string error;
    doc.Set("fault_timeline", RunFaultTimeline(config, false, &error));
    if (!error.empty()) {
      std::fprintf(stderr, "fault timeline failed: %s\n", error.c_str());
      failed = true;
    }
  }

  std::ofstream out(config.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", config.out_path.c_str());
    return 1;
  }
  out << doc.Dump() << "\n";
  std::fprintf(stderr, "wrote %s\n", config.out_path.c_str());
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace arthas

int main(int argc, char** argv) {
  arthas::ObsArtifactWriter obs_artifacts(argc, argv);
  arthas::BenchConfig config;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      config.quick = true;
      config.offered_qps = {3000, 12000};
      config.connections = 96;
      config.point_duration_ms = 400;
      config.drain_ms = 1200;
      config.high_connections = 1024;
      config.high_connections_qps = 8000;
      config.fault_qps = 8000;
      config.fault_duration_ms = 1600;
      config.fault_trigger_at_ms = 600;
      config.detect_delay_ms = 60;
      config.restart_delay_ms = 20;
    } else if (arg == "--skip-fault") {
      config.skip_fault = true;
    } else if (arg == "--skip-sweep") {
      config.skip_sweep = true;
    } else if (arg == "--out" && i + 1 < argc) {
      config.out_path = argv[++i];
    } else if (arg == "--tailtrace-json" && i + 1 < argc) {
      config.tailtrace_out = argv[++i];
    } else if (arg == "--tailtrace-chrome" && i + 1 < argc) {
      config.tailtrace_chrome = argv[++i];
    } else if (arg == "--connections" && i + 1 < argc) {
      config.connections = std::atoi(argv[++i]);
    } else if (arg == "--loop-threads" && i + 1 < argc) {
      config.loop_threads = std::atoi(argv[++i]);
    } else if (arg == "--gen-threads" && i + 1 < argc) {
      config.gen_threads = std::atoi(argv[++i]);
    }
  }
  return arthas::Run(config);
}
