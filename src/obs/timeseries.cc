#include "obs/timeseries.h"

#include <algorithm>

#include "common/clock.h"

namespace arthas {
namespace obs {

TelemetrySampler::TelemetrySampler(SamplerOptions options)
    : options_(options) {}

TelemetrySampler::~TelemetrySampler() { Stop(); }

TelemetrySampler& TelemetrySampler::Global() {
  // Leaked like the registry and tracer: hooks may fire during static
  // destruction and the sampler must outlive every caller.
  static TelemetrySampler* sampler = new TelemetrySampler();
  return *sampler;
}

void TelemetrySampler::Configure(const SamplerOptions& options) {
  std::lock_guard<std::mutex> lock(lock_);
  if (thread_running_) {
    return;  // options are frozen while the tick thread runs
  }
  options_ = options;
}

SamplerOptions TelemetrySampler::options() const {
  std::lock_guard<std::mutex> lock(lock_);
  return options_;
}

bool TelemetrySampler::Start() {
  // Prime the counter-delta baseline before the thread exists, so the
  // first tick's deltas cover exactly [start, first tick).
  RegistrySnapshot baseline = MetricsRegistry::Global().Snapshot();
  std::lock_guard<std::mutex> lock(lock_);
  if (thread_running_) {
    return false;
  }
  if (thread_.joinable()) {
    thread_.join();  // reclaim a previous run's exited thread
  }
  registry_baseline_ = std::move(baseline);
  have_baseline_ = true;
  start_ns_ = NowNanos();
  stop_requested_ = false;
  thread_running_ = true;
  running_flag_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { RunLoop(); });
  return true;
}

bool TelemetrySampler::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(lock_);
    if (!thread_running_) {
      return false;
    }
    stop_requested_ = true;
    running_flag_.store(false, std::memory_order_relaxed);
  }
  cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(lock_);
    to_join = std::move(thread_);
  }
  if (to_join.joinable()) {
    to_join.join();
  }
  std::lock_guard<std::mutex> lock(lock_);
  thread_running_ = false;
  return true;
}

void TelemetrySampler::RunLoop() {
  for (;;) {
    int64_t interval_ns = 0;
    {
      std::unique_lock<std::mutex> lock(lock_);
      interval_ns = options_.interval_ns;
      cv_.wait_for(lock, std::chrono::nanoseconds(interval_ns),
                   [this] { return stop_requested_; });
      if (stop_requested_) {
        break;
      }
    }
    SampleTick(NowNanos());
  }
  // One final tick so the tail of the run (the recovered throughput after
  // the last full interval) still lands in the rings.
  SampleTick(NowNanos());
}

void TelemetrySampler::Reset() {
  std::lock_guard<std::mutex> lock(lock_);
  series_.clear();
  markers_.clear();
  samples_ = 0;
  have_baseline_ = false;
  for (Probe& probe : probes_) {
    probe.primed = false;
    probe.last = 0;
  }
}

ProbeId TelemetrySampler::RegisterProbe(const std::string& name,
                                        ProbeKind kind,
                                        std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(lock_);
  Probe probe;
  probe.id = next_probe_id_++;
  probe.name = name;
  probe.kind = kind;
  probe.fn = std::move(fn);
  probes_.push_back(std::move(probe));
  return probes_.back().id;
}

void TelemetrySampler::UnregisterProbe(ProbeId id) {
  if (id == kNoProbe) {
    return;
  }
  // Taking the sampler lock means no tick is mid-flight: after this
  // returns, the probe function is never called again.
  std::lock_guard<std::mutex> lock(lock_);
  probes_.erase(std::remove_if(probes_.begin(), probes_.end(),
                               [id](const Probe& p) { return p.id == id; }),
                probes_.end());
}

void TelemetrySampler::Mark(const std::string& name) {
  const int64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(lock_);
  if (!running_flag_.load(std::memory_order_relaxed)) {
    return;  // markers belong to a live sampling window
  }
  markers_.push_back(TimelineMarker{name, now});
}

void TelemetrySampler::SampleNow() { SampleTick(NowNanos()); }

void TelemetrySampler::PushPointLocked(const std::string& name,
                                       const char* kind, bool sum_on_merge,
                                       int64_t t, double value) {
  Ring& ring = series_[name];
  if (ring.kind.empty()) {
    ring.kind = kind;
    ring.sum_on_merge = sum_on_merge;
  }
  ring.total++;
  if (!options_.downsample_on_full) {
    // Fixed-resolution ring: overwrite the oldest (keeps the newest N).
    if (ring.points.size() < options_.ring_capacity) {
      ring.points.push_back(TimelinePoint{t, value});
    } else if (!ring.points.empty()) {
      ring.points[ring.head] = TimelinePoint{t, value};
      ring.head = (ring.head + 1) % ring.points.size();
    }
    return;
  }
  // Whole-run ring: each stored point stands for `stride` raw pushes.
  ring.pending++;
  ring.pending_sum += value;
  if (ring.pending < ring.stride) {
    return;
  }
  const double stored = ring.sum_on_merge ? ring.pending_sum : value;
  ring.pending = 0;
  ring.pending_sum = 0;
  while (ring.points.size() >= options_.ring_capacity &&
         ring.points.size() > 1) {
    CompactRingLocked(ring);
  }
  ring.points.push_back(TimelinePoint{t, stored});
}

void TelemetrySampler::CompactRingLocked(Ring& ring) {
  if (ring.head != 0) {
    // The ring filled under drop-oldest before downsampling was enabled
    // for it: unroll to chronological order so pair merging is coherent.
    std::rotate(ring.points.begin(),
                ring.points.begin() + static_cast<ptrdiff_t>(ring.head),
                ring.points.end());
    ring.head = 0;
  }
  const size_t n = ring.points.size();
  size_t w = 0;
  for (size_t i = 0; i + 1 < n; i += 2) {
    // The merged point carries the later timestamp: a counter sum covers
    // the interval *ending* there, a gauge is the later observation.
    TimelinePoint merged = ring.points[i + 1];
    if (ring.sum_on_merge) {
      merged.value += ring.points[i].value;
    }
    ring.points[w++] = merged;
  }
  if (n % 2 == 1) {
    ring.points[w++] = ring.points[n - 1];
  }
  ring.points.resize(w);
  ring.stride *= 2;
}

void TelemetrySampler::SampleTick(int64_t now) {
  // The registry has its own mutex; snapshot it before taking ours so the
  // two locks never nest in both orders.
  RegistrySnapshot snap = MetricsRegistry::Global().Snapshot();

  std::lock_guard<std::mutex> lock(lock_);
  samples_++;
  if (start_ns_ == 0) {
    start_ns_ = now;
  }
  for (const auto& [name, value] : snap.gauges) {
    PushPointLocked(name, "gauge", /*sum_on_merge=*/false, now,
                    static_cast<double>(value));
  }
  if (!have_baseline_) {
    // First tick after Reset (or a never-started sampler): prime the
    // baseline so this tick records zero deltas instead of
    // since-process-start totals.
    registry_baseline_ = snap;
    have_baseline_ = true;
  }
  for (const auto& [name, value] : snap.counters) {
    auto it = registry_baseline_.counters.find(name);
    const uint64_t prior =
        it == registry_baseline_.counters.end() ? 0 : it->second;
    PushPointLocked(name, "counter", /*sum_on_merge=*/true, now,
                    value >= prior ? static_cast<double>(value - prior) : 0.0);
  }
  registry_baseline_ = std::move(snap);
  for (Probe& probe : probes_) {
    const double value = probe.fn ? probe.fn() : 0.0;
    if (probe.kind == ProbeKind::kGauge) {
      PushPointLocked(probe.name, "probe", /*sum_on_merge=*/false, now,
                      value);
    } else {
      const double delta = probe.primed ? value - probe.last : 0.0;
      probe.last = value;
      probe.primed = true;
      PushPointLocked(probe.name, "probe", /*sum_on_merge=*/true, now,
                      delta >= 0 ? delta : 0.0);
    }
  }
}

uint64_t TelemetrySampler::samples_taken() const {
  std::lock_guard<std::mutex> lock(lock_);
  return samples_;
}

int64_t TelemetrySampler::start_ns() const {
  std::lock_guard<std::mutex> lock(lock_);
  return start_ns_;
}

std::vector<SeriesSnapshot> TelemetrySampler::SnapshotSeries() const {
  return Tail(~size_t{0}, "");
}

std::vector<TimelinePoint> TelemetrySampler::SeriesPoints(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(lock_);
  auto it = series_.find(name);
  if (it == series_.end()) {
    return {};
  }
  const Ring& ring = it->second;
  std::vector<TimelinePoint> out;
  out.reserve(ring.points.size());
  for (size_t i = 0; i < ring.points.size(); i++) {
    out.push_back(ring.points[(ring.head + i) % ring.points.size()]);
  }
  return out;
}

std::vector<SeriesSnapshot> TelemetrySampler::Tail(
    size_t n, const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(lock_);
  std::vector<SeriesSnapshot> out;
  for (const auto& [name, ring] : series_) {
    if (name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    SeriesSnapshot s;
    s.name = name;
    s.kind = ring.kind;
    s.total_points = ring.total;
    const size_t count = std::min(n, ring.points.size());
    const size_t skip = ring.points.size() - count;
    s.points.reserve(count);
    for (size_t i = skip; i < ring.points.size(); i++) {
      s.points.push_back(ring.points[(ring.head + i) % ring.points.size()]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<TimelineMarker> TelemetrySampler::Markers() const {
  std::lock_guard<std::mutex> lock(lock_);
  return markers_;
}

JsonValue TelemetrySampler::ExportJson() const {
  const std::vector<SeriesSnapshot> series = SnapshotSeries();
  const std::vector<TimelineMarker> markers = Markers();
  SamplerOptions opts = options();

  JsonValue out = JsonValue::Object();
  out.Set("schema_version", JsonValue(int64_t{1}));
  out.Set("interval_ns", JsonValue(opts.interval_ns));
  out.Set("start_ns", JsonValue(start_ns()));
  out.Set("samples", JsonValue(samples_taken()));
  JsonValue series_json = JsonValue::Array();
  for (const SeriesSnapshot& s : series) {
    JsonValue sj = JsonValue::Object();
    sj.Set("name", JsonValue(s.name));
    sj.Set("kind", JsonValue(s.kind));
    sj.Set("total_points", JsonValue(s.total_points));
    JsonValue points = JsonValue::Array();
    for (const TimelinePoint& p : s.points) {
      JsonValue pj = JsonValue::Object();
      pj.Set("t_ns", JsonValue(p.t_ns));
      pj.Set("v", JsonValue(p.value));
      points.Append(std::move(pj));
    }
    sj.Set("points", std::move(points));
    series_json.Append(std::move(sj));
  }
  out.Set("series", std::move(series_json));
  JsonValue markers_json = JsonValue::Array();
  for (const TimelineMarker& m : markers) {
    JsonValue mj = JsonValue::Object();
    mj.Set("name", JsonValue(m.name));
    mj.Set("t_ns", JsonValue(m.t_ns));
    markers_json.Append(std::move(mj));
  }
  out.Set("markers", std::move(markers_json));
  return out;
}

// --- TimelineAnalyzer --------------------------------------------------------

namespace {

// Instantaneous rate samples derived from per-tick deltas: one (t, ops/s)
// per consecutive point pair.
struct RatePoint {
  int64_t t_ns = 0;
  double rate = 0;
};

std::vector<RatePoint> ToRates(const std::vector<TimelinePoint>& deltas) {
  std::vector<RatePoint> rates;
  rates.reserve(deltas.size());
  for (size_t i = 1; i < deltas.size(); i++) {
    const int64_t dt = deltas[i].t_ns - deltas[i - 1].t_ns;
    if (dt <= 0) {
      continue;
    }
    rates.push_back(
        RatePoint{deltas[i].t_ns,
                  deltas[i].value * 1e9 / static_cast<double>(dt)});
  }
  return rates;
}

JsonValue NullOrNs(int64_t ns) {
  return ns < 0 ? JsonValue() : JsonValue(ns);
}

}  // namespace

JsonValue TimelineReport::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("has_fault", JsonValue(has_fault));
  out.Set("fault_injected_ns", NullOrNs(fault_injected_ns));
  out.Set("detector_fired_ns", NullOrNs(detector_fired_ns));
  out.Set("reversion_done_ns", NullOrNs(reversion_done_ns));
  out.Set("throughput_collapse_ns", NullOrNs(throughput_collapse_ns));
  out.Set("throughput_floor_ns", NullOrNs(throughput_floor_ns));
  out.Set("throughput_recovered_ns", NullOrNs(throughput_recovered_ns));
  out.Set("pre_fault_rate_ops_per_sec", JsonValue(pre_fault_rate_ops_per_sec));
  out.Set("floor_rate_ops_per_sec", JsonValue(floor_rate_ops_per_sec));
  out.Set("time_to_detect_ns", NullOrNs(time_to_detect_ns));
  out.Set("time_to_recover_ns", NullOrNs(time_to_recover_ns));
  return out;
}

TimelineReport TimelineAnalyzer::Analyze(
    const std::vector<TimelinePoint>& throughput,
    const std::vector<TimelineMarker>& markers) const {
  TimelineReport report;

  // Phase markers: the first fault, then the first detection/reversion at
  // or after it (a multi-cell window would repeat the pattern; the report
  // describes the first fault's timeline).
  for (const TimelineMarker& m : markers) {
    if (report.fault_injected_ns < 0 && m.name == config_.fault_marker) {
      report.fault_injected_ns = m.t_ns;
    }
  }
  report.has_fault = report.fault_injected_ns >= 0;
  if (report.has_fault) {
    for (const TimelineMarker& m : markers) {
      if (m.t_ns < report.fault_injected_ns) {
        continue;
      }
      if (report.detector_fired_ns < 0 && m.name == config_.detect_marker) {
        report.detector_fired_ns = m.t_ns;
      }
      if (report.reversion_done_ns < 0 &&
          m.name == config_.reversion_marker) {
        report.reversion_done_ns = m.t_ns;
      }
    }
    if (report.detector_fired_ns >= 0) {
      report.time_to_detect_ns =
          report.detector_fired_ns - report.fault_injected_ns;
    }
  }

  const std::vector<RatePoint> rates = ToRates(throughput);
  if (!report.has_fault || rates.empty()) {
    return report;
  }

  // Pre-fault throughput: mean rate over the ticks before the fault.
  double pre_sum = 0;
  int pre_n = 0;
  for (const RatePoint& r : rates) {
    if (r.t_ns >= report.fault_injected_ns) {
      break;
    }
    pre_sum += r.rate;
    pre_n++;
  }
  if (pre_n < config_.min_pre_fault_samples) {
    return report;  // no meaningful baseline -> no recovery metrics
  }
  report.pre_fault_rate_ops_per_sec = pre_sum / pre_n;
  if (report.pre_fault_rate_ops_per_sec <= 0) {
    // A zero baseline means the fault latched before any throughput was
    // sampled (f3 latches within the first few operations): every idle
    // tick would "collapse" and every tick would "recover" against a zero
    // threshold, so recovery metrics are meaningless — report none.
    return report;
  }

  // Collapse: the first post-fault tick whose rate fell below the collapse
  // threshold. Recovery is only searched after it, so the still-healthy
  // interval between injection and manifestation never counts.
  const double collapse_limit =
      config_.collapse_fraction * report.pre_fault_rate_ops_per_sec;
  const double recovered_limit =
      config_.recovered_fraction * report.pre_fault_rate_ops_per_sec;
  size_t collapse_idx = rates.size();
  for (size_t i = 0; i < rates.size(); i++) {
    if (rates[i].t_ns >= report.fault_injected_ns &&
        rates[i].rate <= collapse_limit) {
      collapse_idx = i;
      break;
    }
  }
  if (collapse_idx == rates.size()) {
    return report;
  }
  report.throughput_collapse_ns = rates[collapse_idx].t_ns;

  // Recovered: the first post-collapse tick that starts a run of
  // `sustain_samples` consecutive ticks at >= recovered_fraction of the
  // pre-fault rate.
  size_t recovered_idx = rates.size();
  int streak = 0;
  for (size_t i = collapse_idx; i < rates.size(); i++) {
    if (rates[i].rate >= recovered_limit) {
      streak++;
      if (streak >= config_.sustain_samples) {
        recovered_idx = i + 1 - static_cast<size_t>(streak);
        break;
      }
    } else {
      streak = 0;
    }
  }

  // Floor: the minimum rate between collapse and recovery (or the window's
  // end if throughput never came back).
  const size_t floor_end =
      recovered_idx == rates.size() ? rates.size() : recovered_idx;
  size_t floor_idx = collapse_idx;
  for (size_t i = collapse_idx; i < floor_end; i++) {
    if (rates[i].rate < rates[floor_idx].rate) {
      floor_idx = i;
    }
  }
  report.throughput_floor_ns = rates[floor_idx].t_ns;
  report.floor_rate_ops_per_sec = rates[floor_idx].rate;

  if (recovered_idx != rates.size()) {
    report.throughput_recovered_ns = rates[recovered_idx].t_ns;
    report.time_to_recover_ns =
        report.throughput_recovered_ns - report.fault_injected_ns;
  }
  return report;
}

TimelineReport TimelineAnalyzer::Analyze(
    const TelemetrySampler& sampler) const {
  return Analyze(sampler.SeriesPoints(config_.throughput_series),
                 sampler.Markers());
}

JsonValue TimelineArtifactJson(const TelemetrySampler& sampler,
                               const TimelineAnalyzerConfig& config) {
  JsonValue out = sampler.ExportJson();
  TimelineAnalyzer analyzer(config);
  out.Set("analysis", analyzer.Analyze(sampler).ToJson());
  out.Set("throughput_series", JsonValue(config.throughput_series));
  return out;
}

}  // namespace obs
}  // namespace arthas
