// Long-running soak over the real network plane: the capacity-plane
// counterpart of bench_netplane's latency sweeps. One Memcached/arthas
// server runs for minutes under steady open-loop load whose key space
// expands (a fixed fraction of requests SET never-seen keys, the way a
// production cache's population drifts), while the TelemetrySampler —
// in wraparound-aware downsampling mode, so the rings span the whole run
// instead of the last few seconds — records every ResourceAccountant cell,
// the /proc/self process probes, and the SLO burn-rate gauges. Afterwards
// the GrowthAnalyzer fits robust slopes over the retained series and
// classifies each as flat / bounded / linear-growth with a time-to-budget
// forecast where a budget is declared.
//
// The committed BENCH_soak.json is intentionally unflattering: nothing
// trims the checkpoint log's payload arena or its per-shard sequence
// index yet, so `resource.checkpoint.arena.bytes` and
// `resource.checkpoint.retained.versions` must come out linear-growth
// with a finite time-to-budget — that is the honest before-picture a
// future GC/compaction PR gets measured against. The net plane's
// transient buffers (`resource.net.outbuf.bytes`) must come out
// flat/bounded over the same window, which is the claim that growth
// lives in the checkpoint plane and not in the serving plane.
//
// Sections of BENCH_soak.json (`bench/check_artifacts.py soak` is the gate):
//   config              knobs the run used (duration, rate, budgets)
//   load                open-loop achieved rate + latency quantiles
//   resources           final accountant snapshot (cells + process)
//   verdicts            GrowthAnalyzer over resource.* and process.*
//   slo                 multi-window burn rates for the default net
//                       targets (p99 < 2 ms, p999 < 20 ms, server-side)
//   capacity_over_wire  the CAPACITY command answered over the same
//                       socket transport the KV traffic used
//   accountant_overhead interleaved on/off arena-churn ratio (CI gates
//                       the recorder-overhead variant at 1.08)
//   series              the retained points of every capacity series,
//                       so the artifact is re-analyzable offline
//
// Flags: --duration-s N (default 300; the committed artifact uses the
// default), --quick (CI smoke: ~60 s, lower rate), --qps, --connections,
// --loop-threads, --gen-threads, --fresh-permille (expanding-keyspace SET
// share), --arena-budget-mb, --version-budget, --out <path>, plus the
// common ObsArtifactWriter flags. Run from the repo root so
// BENCH_soak.json lands next to the other committed artifacts.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "checkpoint/checkpoint_log.h"
#include "common/clock.h"
#include "common/crc32.h"
#include "harness/artifacts.h"
#include "net/dispatcher.h"
#include "net/load_gen.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/resource/growth_analyzer.h"
#include "obs/resource/resource_accountant.h"
#include "obs/resource/slo_tracker.h"
#include "obs/timeseries.h"
#include "reactor/reactor_server.h"
#include "substrate/substrate.h"
#include "systems/memcached_mini.h"
#include "workload/ycsb.h"
#include "workload/zipfian.h"

namespace arthas {
namespace {

struct SoakConfig {
  bool quick = false;
  std::string out_path = "BENCH_soak.json";

  int64_t duration_s = 300;
  double target_qps = 8000;
  int connections = 64;
  int loop_threads = 2;
  int gen_threads = 2;
  int64_t drain_ms = 2500;
  uint64_t seed = 42;

  // Workload shape: zipfian traffic over a warm key set, plus
  // `fresh_permille` of requests SETting a brand-new key. The fresh share
  // is what makes checkpoint growth linear instead of plateauing at
  // max_versions per warm key.
  uint64_t warm_keys = 400;
  double read_fraction = 0.5;
  size_t value_size = 16;
  int fresh_permille = 50;  // 5% of requests create a never-seen key

  // Declared budgets the forecaster measures time-to-exhaustion against.
  int64_t arena_budget_mb = 64;
  int64_t version_budget = 1000000;

  // Sampler shape: coarse ticks + whole-run downsampling keep the
  // committed artifact's series section a few hundred points per series
  // regardless of duration.
  int64_t sampler_interval_ns = 250 * 1000 * 1000;
  size_t ring_capacity = 512;
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

// Stateless per-sequence-number soak workload (same determinism contract
// as bench_netplane's NetWorkload): key rank, op, and the fresh-key
// decision all derive from a SplitMix64 hash of the global sequence
// number. Fresh keys are named by their sequence number, so every one is
// new to the store and the checkpoint log by construction.
class SoakWorkload {
 public:
  explicit SoakWorkload(const SoakConfig& config)
      : zipf_(config.warm_keys),
        read_fraction_(config.read_fraction),
        value_size_(config.value_size),
        fresh_permille_(config.fresh_permille),
        seed_(config.seed) {}

  void Append(uint64_t seq, std::string* out) const {
    const uint64_t h = SplitMix64(seq ^ seed_);
    if (static_cast<int>(h % 1000) < fresh_permille_) {
      out->append("SET soak");
      out->append(std::to_string(seq));
      out->push_back(' ');
      out->append(value_size_, static_cast<char>('a' + seq % 26));
      out->push_back('\n');
      return;
    }
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
  int fresh_permille_;
  uint64_t seed_;
};

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

obs::JsonValue LoadJson(const SoakConfig& config,
                        const net::LoadGenReport& report) {
  obs::JsonValue v = obs::JsonValue::Object();
  v.Set("offered_qps_target", obs::JsonValue(config.target_qps));
  v.Set("connections",
        obs::JsonValue(static_cast<int64_t>(config.connections)));
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

// Blocking control connection for the post-run CAPACITY probe (same shape
// as bench_netplane's; the load generator's sockets never see it).
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

// Accountant on/off overhead. The switch only decides whether a read of
// the accountant calls the owners' read functions; no request path does
// accountant work in either setting, so both ratios should sit near 1.00:
//   * the gated number is an end-to-end KV loop (the bench_overhead
//     recorder-overhead shape: Memcached + checkpoint log + realistic
//     per-request work) — CI gates this ratio at 1.08,
//   * the informational `arena_churn` figure times PayloadArena
//     Store/Release in isolation (little *but* size-class bookkeeping),
//     where any per-operation accounting would show first.
// Each timed segment creates and destroys its own system/arena, so their
// sources leave the cells when the segment ends.
void SimulatedRequestWork() {
  static const std::vector<uint8_t> kBuffer(4096, 0x5a);
  volatile uint32_t sink = Crc32c(kBuffer.data(), kBuffer.size());
  (void)sink;
}

double KvLoopOpsPerSec(int ops) {
  MemcachedOptions options;
  options.pool_size = 8 * 1024 * 1024;
  options.hashtable_buckets = 1024;
  MemcachedMini system(options);
  system.tracer().set_enabled(true);
  CheckpointLog checkpoint(system.pool());

  YcsbConfig wl;
  wl.key_space = 400;
  wl.read_fraction = 0.5;
  wl.value_size = 16;
  YcsbWorkload workload(wl, 7);

  const int64_t start = NowNanos();
  for (int i = 0; i < ops; i++) {
    SimulatedRequestWork();
    system.Handle(workload.Next());
  }
  const int64_t elapsed = NowNanos() - start;
  return elapsed > 0 ? static_cast<double>(ops) * 1e9 /
                           static_cast<double>(elapsed)
                     : 0;
}

double ArenaChurnOpsPerSec(size_t pairs) {
  PayloadArena arena;
  std::vector<uint8_t> payload(96, 0xab);
  std::vector<PayloadRef> refs;
  refs.reserve(64);
  const int64_t start = NowNanos();
  size_t done = 0;
  while (done < pairs) {
    for (size_t i = 0; i < 64 && done < pairs; i++, done++) {
      refs.push_back(arena.Store(payload.data(), payload.size()));
    }
    for (const PayloadRef& ref : refs) {
      arena.Release(ref);
    }
    refs.clear();
  }
  const int64_t elapsed = NowNanos() - start;
  return elapsed > 0
             ? static_cast<double>(pairs) * 2.0 * 1e9 /
                   static_cast<double>(elapsed)
             : 0;
}

obs::JsonValue MeasureAccountantOverhead() {
  obs::ResourceAccountant& accountant = obs::ResourceAccountant::Global();
  constexpr int kKvOps = 150000;
  constexpr size_t kPairs = 400000;
  constexpr int kRepeat = 5;
  // Paired design: each round measures off and on back-to-back (order
  // alternating) and contributes one off/on ratio; the reported ratio is
  // the median over rounds. Machine drift across the measurement
  // (frequency scaling, cache warmth) lands on both legs of a pair, so
  // it cancels — unlike best-of-N per side, whose max/max quotient is
  // biased by whichever side caught the luckier moment.
  accountant.set_enabled(true);
  (void)KvLoopOpsPerSec(kKvOps / 4);  // warm page cache and branch state
  double off = 0;
  double on = 0;
  double churn_off = 0;
  double churn_on = 0;
  std::vector<double> ratios;
  std::vector<double> churn_ratios;
  for (int r = 0; r < kRepeat; r++) {
    double round_off = 0;
    double round_on = 0;
    double round_churn_off = 0;
    double round_churn_on = 0;
    for (int leg = 0; leg < 2; leg++) {
      const bool enabled = (leg == 0) == (r % 2 == 0);
      accountant.set_enabled(enabled);
      (enabled ? round_on : round_off) = KvLoopOpsPerSec(kKvOps);
      (enabled ? round_churn_on : round_churn_off) =
          ArenaChurnOpsPerSec(kPairs);
    }
    ratios.push_back(round_on > 0 ? round_off / round_on : 0);
    churn_ratios.push_back(
        round_churn_on > 0 ? round_churn_off / round_churn_on : 0);
    off = std::max(off, round_off);
    on = std::max(on, round_on);
    churn_off = std::max(churn_off, round_churn_off);
    churn_on = std::max(churn_on, round_churn_on);
  }
  accountant.set_enabled(true);
  std::sort(ratios.begin(), ratios.end());
  std::sort(churn_ratios.begin(), churn_ratios.end());
  const double ratio = ratios[ratios.size() / 2];
  const double churn_ratio = churn_ratios[churn_ratios.size() / 2];
  obs::JsonValue v = obs::JsonValue::Object();
  v.Set("workload", obs::JsonValue("memcached_checkpoint_kv_loop"));
  v.Set("ops", obs::JsonValue(static_cast<int64_t>(kKvOps)));
  v.Set("repeat", obs::JsonValue(static_cast<int64_t>(kRepeat)));
  v.Set("accountant_off_ops_per_sec", obs::JsonValue(off));
  v.Set("accountant_on_ops_per_sec", obs::JsonValue(on));
  v.Set("on_off_ratio", obs::JsonValue(ratio));
  obs::JsonValue churn = obs::JsonValue::Object();
  churn.Set("workload", obs::JsonValue("payload_arena_store_release"));
  churn.Set("pairs", obs::JsonValue(static_cast<int64_t>(kPairs)));
  churn.Set("accountant_off_ops_per_sec", obs::JsonValue(churn_off));
  churn.Set("accountant_on_ops_per_sec", obs::JsonValue(churn_on));
  churn.Set("on_off_ratio", obs::JsonValue(churn_ratio));
  v.Set("arena_churn", std::move(churn));
  std::fprintf(stderr,
               "accountant overhead: kv off %.0f on %.0f ops/s (%.3fx), "
               "arena churn %.3fx\n",
               off, on, ratio, churn_ratio);
  return v;
}

// The capacity series the artifact retains: every accountant-backed
// series plus the process probes and the SLO burn gauges.
bool IsCapacitySeries(const std::string& name) {
  return name.rfind("resource.", 0) == 0 || name.rfind("process.", 0) == 0 ||
         name.rfind("slo.", 0) == 0;
}

obs::JsonValue SeriesJson(const obs::TelemetrySampler& sampler) {
  obs::JsonValue series = obs::JsonValue::Array();
  for (const obs::SeriesSnapshot& snap : sampler.SnapshotSeries()) {
    if (!IsCapacitySeries(snap.name)) {
      continue;
    }
    obs::JsonValue s = obs::JsonValue::Object();
    s.Set("name", obs::JsonValue(snap.name));
    s.Set("kind", obs::JsonValue(snap.kind));
    s.Set("total_points", obs::JsonValue(snap.total_points));
    obs::JsonValue points = obs::JsonValue::Array();
    for (const obs::TimelinePoint& point : snap.points) {
      obs::JsonValue p = obs::JsonValue::Object();
      p.Set("t_ns", obs::JsonValue(point.t_ns));
      p.Set("v", obs::JsonValue(point.value));
      points.Append(std::move(p));
    }
    s.Set("points", std::move(points));
    series.Append(std::move(s));
  }
  return series;
}

int Run(const SoakConfig& config) {
  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("bench", obs::JsonValue("soak"));
  doc.Set("schema_version", obs::JsonValue(static_cast<int64_t>(1)));
  doc.Set("mode", obs::JsonValue(config.quick ? "quick" : "full"));

  obs::JsonValue cfg = obs::JsonValue::Object();
  cfg.Set("duration_s", obs::JsonValue(config.duration_s));
  cfg.Set("target_qps", obs::JsonValue(config.target_qps));
  cfg.Set("connections",
          obs::JsonValue(static_cast<int64_t>(config.connections)));
  cfg.Set("loop_threads",
          obs::JsonValue(static_cast<int64_t>(config.loop_threads)));
  cfg.Set("gen_threads",
          obs::JsonValue(static_cast<int64_t>(config.gen_threads)));
  cfg.Set("warm_keys", obs::JsonValue(config.warm_keys));
  cfg.Set("fresh_permille",
          obs::JsonValue(static_cast<int64_t>(config.fresh_permille)));
  cfg.Set("value_size",
          obs::JsonValue(static_cast<int64_t>(config.value_size)));
  cfg.Set("arena_budget_bytes",
          obs::JsonValue(config.arena_budget_mb * 1024 * 1024));
  cfg.Set("version_budget", obs::JsonValue(config.version_budget));
  cfg.Set("sampler_interval_ns", obs::JsonValue(config.sampler_interval_ns));
  cfg.Set("ring_capacity",
          obs::JsonValue(static_cast<int64_t>(config.ring_capacity)));
  doc.Set("config", std::move(cfg));

  // The soaked server: Memcached on the arthas substrate, served by the
  // real epoll plane, with the reactor attached so CAPACITY resolves over
  // the wire. A 256 MB pool comfortably holds the expanding key space of
  // a full-length run (~5% of 8k qps x 300 s = ~120k fresh items).
  MemcachedOptions options;
  options.pool_size = 256 * 1024 * 1024;
  options.hashtable_buckets = 64 * 1024;
  MemcachedMini system(options);
  system.tracer().set_enabled(true);
  auto substrate = MakeSubstrate(SubstrateKind::kArthasCheckpoint);
  if (Status s = substrate->Attach(system.pool()); !s.ok()) {
    std::fprintf(stderr, "substrate attach failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  system.set_substrate(substrate.get());

  ReactorServer reactor(system.ir_model(), system.guid_registry());
  reactor.set_active_substrate(substrate.get());
  net::NetDispatcher::Options dispatch_options;
  dispatch_options.batch_persists = true;
  net::NetDispatcher dispatcher(system, &reactor, dispatch_options);
  net::NetServerOptions server_options;
  server_options.loop_threads = config.loop_threads;
  net::NetServer server(dispatcher, server_options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Budgets, then probes. Every owner (pool, checkpoint log and its
  // arenas, the started server) has registered its cells by now, so
  // RegisterSamplerProbes (not retroactive) sees the full capacity surface
  // before traffic starts.
  obs::ResourceAccountant& accountant = obs::ResourceAccountant::Global();
  accountant.set_enabled(true);
  accountant.SetBudget("checkpoint.arena.bytes",
                       config.arena_budget_mb * 1024 * 1024);
  accountant.SetBudget("checkpoint.retained.versions", config.version_budget,
                       "count");

  obs::SloTracker& slo = obs::SloTracker::Global();
  slo.Configure(obs::DefaultNetSloTargets());

  obs::TelemetrySampler& sampler = obs::TelemetrySampler::Global();
  sampler.Stop();
  sampler.Reset();
  obs::SamplerOptions sampler_options;
  sampler_options.interval_ns = config.sampler_interval_ns;
  sampler_options.ring_capacity = config.ring_capacity;
  sampler_options.downsample_on_full = true;
  sampler.Configure(sampler_options);
  const std::vector<obs::ProbeId> resource_probes =
      accountant.RegisterSamplerProbes(sampler);
  const std::vector<obs::ProbeId> slo_probes =
      slo.RegisterSamplerProbes(sampler);
  sampler.Start();
  const auto warmup_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  while (sampler.samples_taken() < 3 &&
         std::chrono::steady_clock::now() < warmup_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  std::fprintf(stderr, "soaking %llds @ %.0f qps (%d conns, %d%% fresh)\n",
               static_cast<long long>(config.duration_s), config.target_qps,
               config.connections, config.fresh_permille / 10);
  net::LoadGenOptions load;
  load.port = server.port();
  load.threads = config.gen_threads;
  load.connections = config.connections;
  load.target_qps = config.target_qps;
  load.duration_ms = config.duration_s * 1000;
  load.drain_ms = config.drain_ms;
  load.seed = config.seed;
  SoakWorkload workload(config);
  net::LoadGenReport report = net::RunOpenLoop(
      load,
      [&workload](uint64_t seq, std::string* out) { workload.Append(seq, out); });
  bool failed = false;
  if (!report.status.ok()) {
    std::fprintf(stderr, "load generator failed: %s\n",
                 report.status.ToString().c_str());
    failed = true;
  }
  std::fprintf(stderr,
               "soak load: offered %.0f achieved %.0f ops/s, p99 %.0f us, "
               "%llu errors\n",
               report.offered_qps, report.achieved_qps, report.p99_us,
               static_cast<unsigned long long>(report.errors));
  doc.Set("load", LoadJson(config, report));

  // CAPACITY over the same socket transport the KV traffic used, while
  // the server still serves: the whole accountant snapshot plus growth
  // verdicts, parsed back through the wire-format round trip.
  obs::JsonValue wire = obs::JsonValue::Object();
  bool wire_ok = false;
  {
    ControlConn control;
    if (control.Connect(server.port()) && control.Send("CAPACITY\n")) {
      std::vector<net::NetReply> replies = control.ReadReplies(1, 5000);
      if (!replies.empty() &&
          replies[0].kind == net::NetReply::Kind::kBulk) {
        Result<CapacityResponse> parsed =
            CapacityResponse::Parse(replies[0].text);
        if (parsed.ok()) {
          const CapacityResponse& response = parsed.value();
          wire_ok = true;
          wire.Set("enabled", obs::JsonValue(response.accountant_enabled));
          wire.Set("cells", obs::JsonValue(
                                static_cast<int64_t>(response.cells.size())));
          wire.Set("verdicts",
                   obs::JsonValue(
                       static_cast<int64_t>(response.verdicts.size())));
        } else {
          wire.Set("error", obs::JsonValue(parsed.status().ToString()));
        }
      }
    }
  }
  wire.Set("ok", obs::JsonValue(wire_ok));
  doc.Set("capacity_over_wire", std::move(wire));
  if (!wire_ok) {
    std::fprintf(stderr, "CAPACITY over the wire failed\n");
    failed = true;
  }

  server.Stop();
  sampler.Stop();

  // Growth verdicts over everything the capacity plane sampled, budgets
  // joined from the accountant's declared cells (same join the CAPACITY
  // handler does).
  std::map<std::string, double> budgets;
  for (const obs::ResourceCellSnapshot& cell : accountant.Snapshot(false)) {
    if (cell.budget > 0) {
      budgets["resource." + cell.name] = static_cast<double>(cell.budget);
    }
  }
  obs::GrowthAnalyzer analyzer;
  std::vector<obs::GrowthVerdict> verdicts =
      analyzer.AnalyzeSampler(sampler, "resource.", budgets);
  for (obs::GrowthVerdict& verdict :
       analyzer.AnalyzeSampler(sampler, "process.")) {
    verdicts.push_back(std::move(verdict));
  }
  obs::JsonValue verdicts_json = obs::JsonValue::Array();
  for (const obs::GrowthVerdict& verdict : verdicts) {
    std::fprintf(
        stderr, "  %-40s %-16s slope %.1f/s last %.0f tt_budget %.0fs\n",
        verdict.series.c_str(), obs::GrowthClassName(verdict.cls),
        verdict.slope_per_sec, verdict.last_value, verdict.time_to_budget_sec);
    verdicts_json.Append(verdict.ToJson());
  }
  doc.Set("verdicts", std::move(verdicts_json));
  doc.Set("resources", accountant.SnapshotJson());
  doc.Set("slo", slo.ReportJson());
  doc.Set("series", SeriesJson(sampler));

  // Teardown before the overhead microbench so its arena churn is the
  // only accountant traffic being timed.
  system.set_substrate(nullptr);
  substrate->Detach();
  obs::ResourceAccountant::UnregisterSamplerProbes(sampler, resource_probes);
  obs::ResourceAccountant::UnregisterSamplerProbes(sampler, slo_probes);
  slo.Clear();
  doc.Set("accountant_overhead", MeasureAccountantOverhead());

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
  arthas::SoakConfig config;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      config.quick = true;
      config.duration_s = 60;
      config.target_qps = 4000;
      config.sampler_interval_ns = 100 * 1000 * 1000;
    } else if (arg == "--duration-s" && i + 1 < argc) {
      config.duration_s = std::atoll(argv[++i]);
    } else if (arg == "--qps" && i + 1 < argc) {
      config.target_qps = std::atof(argv[++i]);
    } else if (arg == "--connections" && i + 1 < argc) {
      config.connections = std::atoi(argv[++i]);
    } else if (arg == "--loop-threads" && i + 1 < argc) {
      config.loop_threads = std::atoi(argv[++i]);
    } else if (arg == "--gen-threads" && i + 1 < argc) {
      config.gen_threads = std::atoi(argv[++i]);
    } else if (arg == "--fresh-permille" && i + 1 < argc) {
      config.fresh_permille = std::atoi(argv[++i]);
    } else if (arg == "--arena-budget-mb" && i + 1 < argc) {
      config.arena_budget_mb = std::atoll(argv[++i]);
    } else if (arg == "--version-budget" && i + 1 < argc) {
      config.version_budget = std::atoll(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      config.out_path = argv[++i];
    }
  }
  return arthas::Run(config);
}
