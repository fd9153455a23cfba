// write_churn: the write, allocation and checkpoint path, with no network.
//
// One thread calls PmSystemTarget::Handle on a Memcached instance (arthas
// substrate attached) with no think time. Setup preloads kLive 64-byte
// items; the op stream then cycles SET-new-key / DEL-oldest-key /
// SET-overwrite-random-live-key, so the live set stays constant and the
// per-op cost does not depend on run length.
//
// The stream is single-threaded and has no timers, so the counts it causes
// (persists, lines, drains, allocations, checkpoint records, trace records)
// are a pure function of the seed: every instance runs the same kPrefixOps
// prefix and the counts must match exactly, or the run fails.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using arthas::MemcachedMini;
using arthas::Request;
using arthas::Response;

constexpr size_t kLive = 20000;
constexpr size_t kValueLen = 64;
constexpr uint64_t kPrefixOps = 15000;
constexpr int kSetups = 3;
// Throughput and p99 are medians over intervals this long: at about 30k
// calls per second an interval holds some 30 calls beyond its p99.
constexpr int64_t kIntervalNs = 100'000'000;
// Peak RSS is read once the window has done this many ops: the checkpoint
// log grows with every op, so a figure read at the end of the window would
// measure how fast the machine ran rather than how much memory the work
// takes.
constexpr uint64_t kRssOps = 300000;

std::string KeyOf(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "c%09llu",
                static_cast<unsigned long long>(id));
  return buf;
}

// The seeded op stream and the model of what the store must hold.
class ChurnStream {
 public:
  explicit ChurnStream(uint64_t seed) : seed_(seed), rng_(seed) {}

  // Next request of the stream; the model is updated as if it succeeded.
  Request Next() {
    Request r;
    switch (op_index_++ % 3) {
      case 0:  // SET a new key
        r.op = Request::Op::kPut;
        r.key = KeyOf(AddLive());
        r.value = ValueOf(live_.back(), 0);
        break;
      case 1:  // DEL the oldest live key
        r.op = Request::Op::kDelete;
        r.key = KeyOf(live_[head_]);
        head_++;
        if (head_ > kLive) {  // compact the consumed prefix now and then
          live_.erase(live_.begin(), live_.begin() + head_);
          head_ = 0;
        }
        break;
      default: {  // SET to overwrite a random live key
        const uint64_t id = live_[head_ + rng_.Below(live_.size() - head_)];
        r.op = Request::Op::kPut;
        r.key = KeyOf(id);
        r.value = ValueOf(id, ++versions_[id]);
        break;
      }
    }
    if (r.op == Request::Op::kPut) {
      user_bytes_ += r.key.size() + r.value.size();
    }
    return r;
  }

  // Preload: kLive SETs of new keys (not part of the cycled stream).
  Request Preload() {
    Request r;
    r.op = Request::Op::kPut;
    r.key = KeyOf(AddLive());
    r.value = ValueOf(live_.back(), 0);
    user_bytes_ += r.key.size() + r.value.size();
    return r;
  }

  std::vector<uint64_t> LiveIds() const {
    return {live_.begin() + head_, live_.end()};
  }
  uint64_t oldest_live() const { return live_[head_]; }
  std::string ExpectedValue(uint64_t id) const {
    return ValueOf(id, versions_[id]);
  }
  uint64_t user_bytes() const { return user_bytes_; }
  uint64_t op_index() const { return op_index_; }

 private:
  uint64_t AddLive() {
    const uint64_t id = next_id_++;
    live_.push_back(id);
    versions_.push_back(0);
    return id;
  }
  std::string ValueOf(uint64_t id, uint32_t version) const {
    return DerivedValue(seed_, id, version, kValueLen);
  }

  uint64_t seed_;
  SplitMix rng_;
  uint64_t op_index_ = 0;
  uint64_t next_id_ = 0;
  std::vector<uint64_t> live_;  // live ids, oldest at head_
  size_t head_ = 0;
  std::vector<uint32_t> versions_;  // by id
  uint64_t user_bytes_ = 0;
};

// Counts the first kPrefixOps ops of the stream caused; they must repeat
// exactly on every instance.
struct Prefix {
  Counts counts;
  uint64_t user_bytes = 0;  // key + value bytes the requests carried
  bool operator==(const Prefix&) const = default;
};

struct Instance {
  Store store;
  ChurnStream stream;

  Instance(const MemcachedMini::Options& options, uint64_t seed)
      : store(options), stream(seed) {}
  MemcachedMini& mc() { return *store.mc; }
};

MemcachedMini::Options SystemOptions() {
  MemcachedMini::Options options;
  options.pool_size = 32u << 20;
  options.hashtable_buckets = 16384;  // no expansion at kLive items
  return options;
}

// True when the store acknowledged the request as the model expects.
bool Acknowledged(const Request& r, const Response& resp) {
  if (!resp.status.ok()) {
    return false;
  }
  return r.op != Request::Op::kDelete || resp.found;
}

// Builds one instance: system, substrate, optional recorder, preload.
std::unique_ptr<Instance> Setup(uint64_t seed, Result* result,
                                arthas::DurabilityObserver* recorder) {
  auto inst = std::make_unique<Instance>(SystemOptions(), seed);
  if (!inst->store.ok()) {
    result->Break("substrate attach failed");
    return inst;
  }
  if (recorder != nullptr) {
    inst->mc().pool().device().AddObserver(recorder);
  }
  uint64_t failures = 0;
  for (size_t i = 0; i < kLive; i++) {
    const Request r = inst->stream.Preload();
    failures += Acknowledged(r, inst->mc().Handle(r)) ? 0 : 1;
  }
  result->Attempt(kLive);
  if (failures > 0) {
    result->Fail(failures, "preload SET not acknowledged");
  }
  return inst;
}

Prefix SnapshotPrefix(const Instance& inst) {
  return {inst.store.Snapshot(), inst.stream.user_bytes()};
}
Prefix operator-(const Prefix& a, const Prefix& b) {
  return {a.counts - b.counts, a.user_bytes - b.user_bytes};
}

// Runs the kPrefixOps prefix of a fresh instance's stream untimed.
Prefix RunPrefix(Instance& inst, Result* result) {
  const Prefix before = SnapshotPrefix(inst);
  uint64_t failures = 0;
  for (uint64_t i = 0; i < kPrefixOps; i++) {
    const Request r = inst.stream.Next();
    failures += Acknowledged(r, inst.mc().Handle(r)) ? 0 : 1;
  }
  result->Attempt(kPrefixOps);
  if (failures > 0) {
    result->Fail(failures, "prefix op not acknowledged");
  }
  return SnapshotPrefix(inst) - before;
}

struct Window {
  uint64_t ops = 0;
  uint64_t failures = 0;
  LatencyLog latency{0, kIntervalNs};  // per Handle call
  bool prefix_seen = false;
  Prefix prefix;  // what the first kPrefixOps ops of the stream caused
  double peak_rss_mb = 0;  // after kRssOps ops, or at the end if fewer
};

// The measured loop. Per-op latency is one Handle call; the wall time also
// covers generating the request, as a client would.
Window Measure(Instance& inst, double seconds, SpanLog* spans) {
  const Prefix at_start = SnapshotPrefix(inst);
  Window w;
  w.latency = LatencyLog(static_cast<size_t>(seconds * 150000), kIntervalNs);
  const int64_t start = NowNs();
  w.latency.Start(start);
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  int64_t now = start;
  while (now < deadline) {
    const uint64_t request_id = inst.stream.op_index();
    ScopedSpan op_span(spans, "op", request_id);
    const Request r = inst.stream.Next();
    Response resp;
    const int64_t t0 = NowNs();
    {
      ScopedSpan handle_span(spans, "system.handle", request_id);
      resp = inst.mc().Handle(r);
    }
    now = NowNs();
    w.latency.Add(now, now - t0);
    w.failures += Acknowledged(r, resp) ? 0 : 1;
    w.ops++;
    if (w.ops == kRssOps) {
      w.peak_rss_mb = PeakRssMb();
    }
    if (inst.stream.op_index() == kPrefixOps) {
      w.prefix = SnapshotPrefix(inst) - at_start;
      w.prefix_seen = true;
    }
  }
  w.latency.Finish(NowNs());
  if (w.peak_rss_mb == 0) {
    w.peak_rss_mb = PeakRssMb();
  }
  return w;
}

// Reads back every live key and the most recently deleted keys.
void CheckStore(Instance& inst, const char* when, Result* result) {
  uint64_t failures = 0, checks = 0;
  for (const uint64_t id : inst.stream.LiveIds()) {
    Request r;
    r.op = Request::Op::kGet;
    r.key = KeyOf(id);
    const Response resp = inst.mc().Handle(r);
    checks++;
    if (!resp.status.ok() || !resp.found ||
        resp.value != inst.stream.ExpectedValue(id)) {
      failures++;
    }
  }
  const uint64_t oldest = inst.stream.oldest_live();
  for (uint64_t id = oldest > kLive ? oldest - kLive : 0; id < oldest; id++) {
    Request r;
    r.op = Request::Op::kGet;
    r.key = KeyOf(id);
    const Response resp = inst.mc().Handle(r);
    checks++;
    if (!resp.status.ok() || resp.found) {
      failures++;
    }
  }
  result->Attempt(checks);
  if (failures > 0) {
    result->Fail(failures, std::string("read-back mismatches ") + when);
  }
}

void ReportWindow(const Window& w, Result* result) {
  result->Attempt(w.ops);
  if (w.failures > 0) {
    result->Fail(w.failures, "churn op not acknowledged");
  }
}

}  // namespace

void RunWriteChurn(const Args& args, Result* result) {
  // --- Setup, repeated; the last instance is the measured one. The first
  // also runs the stream prefix for the exact-repeat check. ---
  std::vector<double> setup_s;
  std::vector<Prefix> prefixes;
  std::unique_ptr<Instance> inst;
  for (int i = 0; i < kSetups; i++) {
    inst.reset();
    const int64_t t0 = NowNs();
    inst = Setup(args.seed, result, nullptr);
    setup_s.push_back(NsToS(NowNs() - t0));
    if (!inst->store.ok()) {
      return;
    }
    if (i == 0) {
      prefixes.push_back(RunPrefix(*inst, result));
    }
  }

  const Window base = Measure(*inst, args.window_seconds(), nullptr);
  ReportWindow(base, result);
  if (base.prefix_seen) {
    prefixes.push_back(base.prefix);
  }

  // The traced window continues the same stream on the same instance, with
  // benchmark spans on and the registry histograms reset. A second untraced
  // window follows it, so the tracing overhead is measured against windows
  // on both sides and the store's growth in between cancels out.
  Window traced, after;
  SpanLog spans;
  arthas::obs::RegistrySnapshot reg;
  Counts traced_counts;
  if (args.trace) {
    arthas::obs::MetricsRegistry::Global().ResetAll();
    const Counts before = inst->store.Snapshot();
    traced = Measure(*inst, args.window_seconds(), &spans);
    ReportWindow(traced, result);
    reg = arthas::obs::MetricsRegistry::Global().Snapshot();
    traced_counts = inst->store.Snapshot() - before;
    after = Measure(*inst, args.window_seconds(), nullptr);
    ReportWindow(after, result);
  }
  const arthas::CheckpointLog& log = inst->store.log();
  const uint64_t ckpt_bytes = log.arena_bytes() + log.index_bytes();

  // --- Correctness: read back, restart (unflushed lines drop), re-read. ---
  CheckStore(*inst, "before restart", result);
  if (!result->Check(inst->mc().Restart().ok(), "Restart() failed")) {
    return;
  }
  CheckStore(*inst, "after restart", result);

  // A recorded persist stream (preload + prefix) for the checkpoint append
  // replay; recording the prefix once more also re-checks the counts.
  PersistRecorder recorder;
  size_t preload_persists = 0;
  if (args.trace) {
    std::unique_ptr<Instance> rec = Setup(args.seed, result, &recorder);
    if (!rec->store.ok()) {
      return;
    }
    preload_persists = recorder.size();
    prefixes.push_back(RunPrefix(*rec, result));
    rec->mc().pool().device().RemoveObserver(&recorder);
  }
  for (const Prefix& p : prefixes) {
    if (!(p == prefixes[0])) {
      result->Break("write_churn: counts did not repeat for the same seed");
    }
  }

  if (!args.trace) {
    result->Metric("setup_s", Median(setup_s), "s");
    result->Metric("ops_per_s", base.latency.MedianIntervalRate(), "1/s");
    result->Metric("p50_us", NsToUs(base.latency.Quantile(0.50)), "us");
    result->Metric("p99_us", NsToUs(base.latency.MedianIntervalQuantile(0.99)),
                   "us");
    result->Metric("latency_samples", static_cast<double>(base.ops), "count");
    result->Metric("success_rate", result->SuccessRate(), "fraction");
    result->Metric("peak_rss_mb", base.peak_rss_mb, "MB");
    return;
  }

  const double append_ns =
      recorder.ReplayAppendNs(SystemOptions(), preload_persists, &spans);
  const Counts& c = prefixes[0].counts;
  auto per_op = [&](uint64_t v) {
    return static_cast<double>(v) / kPrefixOps;
  };
  const double traced_ops = static_cast<double>(traced.ops);
  const auto alloc = HistogramOf(reg, "pool.alloc.ns");
  const auto free_h = HistogramOf(reg, "pool.free.ns");
  const SpanLog::Total op_total = spans.TotalFor("op");
  const SpanLog::Total handle_total = spans.TotalFor("system.handle");

  // Self times per op (us). Pool time is the program's own pool.alloc.ns /
  // pool.free.ns histograms; checkpoint time is the replayed append cost
  // times the records the traced window made; the system's self time is
  // what Handle() spent outside both; the harness's is request generation.
  const double e2e_us = NsToUs(op_total.total_ns) / traced_ops;
  const double pool_us = NsToUs(alloc.sum + free_h.sum) / traced_ops;
  const double ckpt_us =
      NsToUs(append_ns * traced_counts.ckpt_records) / traced_ops;
  const double handle_us = NsToUs(handle_total.total_ns) / traced_ops;
  const double system_self_us = handle_us - pool_us - ckpt_us;
  const double harness_self_us = NsToUs(op_total.self_ns) / traced_ops;
  const double self_sum = std::max(system_self_us, 0.0) + pool_us + ckpt_us +
                          std::max(harness_self_us, 0.0);

  result->Metric("system.handle_us_p50", NsToUs(traced.latency.Quantile(0.50)),
                 "us");
  result->Metric("system.handle_us_p99", NsToUs(traced.latency.Quantile(0.99)),
                 "us");
  result->Metric("system.busy_s", NsToS(handle_total.total_ns), "s");
  result->Metric("system.self_us_per_op", system_self_us, "us");
  result->Metric("substrate.sections_per_op", per_op(c.sections), "count");
  result->Metric("pool.alloc_us_p50", NsToUs(alloc.p50), "us");
  result->Metric("pool.alloc_us_p99", NsToUs(alloc.p99), "us");
  result->Metric("pool.alloc_share",
                 static_cast<double>(alloc.sum) / handle_total.total_ns,
                 "fraction");
  result->Metric("pool.allocs_per_op", per_op(c.allocs), "count");
  result->Metric("pool.frees_per_op", per_op(c.frees), "count");
  result->Metric("pool.self_us_per_op", pool_us, "us");
  result->Metric("pmem.persists_per_op", per_op(c.persists), "count");
  result->Metric("pmem.lines_per_op", per_op(c.lines), "count");
  result->Metric("pmem.drains_per_op", per_op(c.drains), "count");
  // Media bytes (whole flushed lines) per key+value byte the prefix wrote.
  result->Metric("pmem.write_amp",
                 static_cast<double>(c.lines) * arthas::kCacheLineSize /
                     prefixes[0].user_bytes,
                 "ratio");
  result->Metric("checkpoint.append_ns", append_ns, "ns");
  result->Metric("checkpoint.self_us_per_op", ckpt_us, "us");
  result->Metric("checkpoint.records_per_op", per_op(c.ckpt_records), "count");
  result->Metric("checkpoint.copy_bytes_per_op", per_op(c.ckpt_bytes), "bytes");
  result->Metric("checkpoint.retained_versions",
                 static_cast<double>(log.retained_versions()), "count");
  result->Metric("checkpoint.arena_bytes",
                 static_cast<double>(log.arena_bytes()), "bytes");
  result->Metric("checkpoint.index_bytes",
                 static_cast<double>(log.index_bytes()), "bytes");
  result->Metric("checkpoint.entries", static_cast<double>(log.entry_count()),
                 "count");
  result->Metric("checkpoint.bytes_per_user_byte",
                 static_cast<double>(ckpt_bytes) / inst->stream.user_bytes(),
                 "ratio");
  result->Metric("trace.records_per_op", per_op(c.trace_records), "count");
  result->Metric("harness.self_us_per_op", harness_self_us, "us");
  result->Metric("closure.e2e_us_per_op", e2e_us, "us");
  result->Metric("closure.self_sum_share", self_sum / e2e_us, "fraction");
  result->Metric("trace.overhead_share",
                 1.0 - traced.latency.MedianIntervalRate() /
                           ((base.latency.MedianIntervalRate() +
                             after.latency.MedianIntervalRate()) / 2),
                 "fraction");
  if (!args.span_file.empty() && !spans.Write(args.span_file)) {
    result->Break("could not write " + args.span_file);
  }
}

}  // namespace perfbench
