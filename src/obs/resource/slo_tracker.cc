#include "obs/resource/slo_tracker.h"

#include <algorithm>
#include <cstdio>

#include "common/clock.h"
#include "obs/metrics.h"

namespace arthas {
namespace obs {

namespace {

std::string WindowSeriesName(const SloTarget& target, double window_sec) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "slo.%s.burn.%gs", target.label.c_str(),
                window_sec);
  return buf;
}

}  // namespace

std::vector<SloTarget> DefaultNetSloTargets() {
  SloTarget p99;
  p99.histogram = "net.req.server_ns";
  p99.label = "p99";
  p99.objective = 0.99;
  p99.threshold_ns = 2ULL * 1000 * 1000;  // 2 ms server-side
  SloTarget p999;
  p999.histogram = "net.req.server_ns";
  p999.label = "p999";
  p999.objective = 0.999;
  p999.threshold_ns = 20ULL * 1000 * 1000;  // 20 ms server-side
  return {p99, p999};
}

JsonValue SloWindowStats::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("window_sec", JsonValue(window_sec));
  doc.Set("total", JsonValue(static_cast<uint64_t>(total)));
  doc.Set("bad", JsonValue(static_cast<uint64_t>(bad)));
  doc.Set("bad_fraction", JsonValue(bad_fraction));
  doc.Set("burn_rate", JsonValue(burn_rate));
  doc.Set("complete", JsonValue(complete));
  return doc;
}

JsonValue SloTargetReport::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("histogram", JsonValue(target.histogram));
  doc.Set("label", JsonValue(target.label));
  doc.Set("objective", JsonValue(target.objective));
  doc.Set("threshold_ns", JsonValue(static_cast<uint64_t>(target.threshold_ns)));
  JsonValue windows = JsonValue::Array();
  for (const SloWindowStats& w : this->windows) {
    windows.Append(w.ToJson());
  }
  doc.Set("windows", std::move(windows));
  doc.Set("worst_burn_rate", JsonValue(worst_burn_rate));
  doc.Set("breached", JsonValue(breached));
  return doc;
}

SloTracker& SloTracker::Global() {
  static SloTracker* instance = new SloTracker();
  return *instance;
}

void SloTracker::Configure(std::vector<SloTarget> targets,
                           std::vector<double> windows_sec) {
  std::lock_guard<std::mutex> guard(mutex_);
  targets_ = std::move(targets);
  if (windows_sec.empty()) {
    windows_sec = {5, 60, 300};
  }
  std::sort(windows_sec.begin(), windows_sec.end());
  windows_sec_ = std::move(windows_sec);
  rows_.clear();
}

void SloTracker::Reset() {
  std::lock_guard<std::mutex> guard(mutex_);
  rows_.clear();
}

void SloTracker::Clear() {
  std::lock_guard<std::mutex> guard(mutex_);
  targets_.clear();
  rows_.clear();
}

bool SloTracker::configured() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return !targets_.empty();
}

void SloTracker::Sample(int64_t now_ns) {
  std::lock_guard<std::mutex> guard(mutex_);
  SampleLocked(now_ns);
}

void SloTracker::SampleLocked(int64_t now_ns) {
  if (targets_.empty()) {
    return;
  }
  if (!rows_.empty() && now_ns - rows_.back().t_ns < min_sample_gap_ns_) {
    return;
  }
  Row row;
  row.t_ns = now_ns;
  row.counts.reserve(targets_.size());
  for (const SloTarget& target : targets_) {
    Histogram& hist = MetricsRegistry::Global().GetHistogram(target.histogram);
    row.counts.emplace_back(hist.count(), hist.CountAbove(target.threshold_ns));
  }
  rows_.push_back(std::move(row));
  PruneLocked(now_ns);
}

void SloTracker::PruneLocked(int64_t now_ns) {
  const double max_window = windows_sec_.empty() ? 300 : windows_sec_.back();
  const int64_t horizon =
      now_ns - static_cast<int64_t>(max_window * 1.2 * 1e9);
  // Keep one row at or before the horizon so the longest window always
  // has a baseline.
  while (rows_.size() > 1 && rows_[1].t_ns <= horizon) {
    rows_.pop_front();
  }
}

SloWindowStats SloTracker::WindowStatsLocked(size_t idx,
                                             double window_sec) const {
  SloWindowStats stats;
  stats.window_sec = window_sec;
  if (rows_.size() < 2) {
    return stats;
  }
  const Row& newest = rows_.back();
  const int64_t window_start =
      newest.t_ns - static_cast<int64_t>(window_sec * 1e9);
  // Newest row at or before the window start; oldest row if the run is
  // shorter than the window (partial-window burn is better than none).
  const Row* base = &rows_.front();
  for (const Row& row : rows_) {
    if (row.t_ns > window_start) {
      break;
    }
    base = &row;
  }
  stats.complete = base->t_ns <= window_start;
  if (base == &newest) {
    return stats;
  }
  const auto& [total_now, bad_now] = newest.counts[idx];
  const auto& [total_base, bad_base] = base->counts[idx];
  stats.total = total_now - total_base;
  stats.bad = bad_now >= bad_base ? bad_now - bad_base : 0;
  if (stats.total > 0) {
    stats.bad_fraction = static_cast<double>(stats.bad) / stats.total;
    const double error_budget = 1.0 - targets_[idx].objective;
    stats.burn_rate = error_budget > 0 ? stats.bad_fraction / error_budget : 0;
  }
  return stats;
}

double SloTracker::BurnRate(const std::string& label,
                            double window_sec) const {
  std::lock_guard<std::mutex> guard(mutex_);
  for (size_t i = 0; i < targets_.size(); i++) {
    if (targets_[i].label == label) {
      return WindowStatsLocked(i, window_sec).burn_rate;
    }
  }
  return 0;
}

SloTargetReport SloTracker::ReportTargetLocked(size_t idx) const {
  SloTargetReport report;
  report.target = targets_[idx];
  report.breached = !windows_sec_.empty();
  for (const double window_sec : windows_sec_) {
    SloWindowStats stats = WindowStatsLocked(idx, window_sec);
    report.worst_burn_rate = std::max(report.worst_burn_rate, stats.burn_rate);
    if (stats.burn_rate <= 1.0) {
      report.breached = false;
    }
    report.windows.push_back(std::move(stats));
  }
  return report;
}

std::vector<SloTargetReport> SloTracker::Report() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<SloTargetReport> reports;
  reports.reserve(targets_.size());
  for (size_t i = 0; i < targets_.size(); i++) {
    reports.push_back(ReportTargetLocked(i));
  }
  return reports;
}

bool SloTracker::AnyBreached() const {
  for (const SloTargetReport& report : Report()) {
    if (report.breached) {
      return true;
    }
  }
  return false;
}

double SloTracker::WorstBurnRate() const {
  double worst = 0;
  for (const SloTargetReport& report : Report()) {
    worst = std::max(worst, report.worst_burn_rate);
  }
  return worst;
}

JsonValue SloTracker::ReportJson() const {
  JsonValue targets = JsonValue::Array();
  for (const SloTargetReport& report : Report()) {
    targets.Append(report.ToJson());
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("targets", std::move(targets));
  return doc;
}

std::vector<ProbeId> SloTracker::RegisterSamplerProbes(
    TelemetrySampler& sampler) {
  std::vector<SloTarget> targets;
  std::vector<double> windows;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    targets = targets_;
    windows = windows_sec_;
  }
  std::vector<ProbeId> ids;
  ids.reserve(targets.size() * windows.size());
  for (const SloTarget& target : targets) {
    for (const double window_sec : windows) {
      const std::string label = target.label;
      ids.push_back(sampler.RegisterProbe(
          WindowSeriesName(target, window_sec), ProbeKind::kGauge,
          [this, label, window_sec] {
            // Sample() dedupes to one row per 100 ms, so the first probe
            // of a tick appends and the rest read the same fresh row.
            Sample(NowNanos());
            return BurnRate(label, window_sec);
          }));
    }
  }
  return ids;
}

}  // namespace obs
}  // namespace arthas
