// Multi-window SLO burn-rate tracking for the net plane.
//
// A target declares an objective over a registry latency histogram: "at
// least `objective` of requests complete under `threshold_ns`" (e.g. p99
// under 2 ms, p999 under 20 ms over net.req.server_ns). The error budget
// is 1 - objective; the burn rate over a trailing window is
//
//     burn = (bad_fraction in window) / (1 - objective)
//
// so burn == 1.0 means the window is consuming its budget exactly as fast
// as the objective allows, and burn > 1.0 on every configured window
// (short AND long, the classic multi-window alert shape) means the breach
// is sustained, not a blip — that is what flips the Health verdict.
//
// Bad counts come from Histogram::CountAbove(threshold): bucket-granular
// (the straddling bucket is apportioned linearly), which is the same
// <= 6.25% relative-error contract the histogram's percentiles carry.
// The tracker keeps a ring of cumulative (total, bad) rows per target so
// window deltas need no per-request work; rows are appended by Sample(),
// normally driven by the tracker's sampler probes (one burn-rate gauge
// series per target x window, named "slo.<label>.burn.<W>s").

#ifndef ARTHAS_OBS_RESOURCE_SLO_TRACKER_H_
#define ARTHAS_OBS_RESOURCE_SLO_TRACKER_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/timeseries.h"

namespace arthas {
namespace obs {

struct SloTarget {
  std::string histogram = "net.req.server_ns";
  // Wire-safe short name ("p99", "p999") used in series and reports.
  std::string label = "p99";
  double objective = 0.99;      // fraction that must land under threshold
  uint64_t threshold_ns = 2000000;  // 2 ms
};

// The standard net-plane targets bench_soak and the socket tests use.
std::vector<SloTarget> DefaultNetSloTargets();

struct SloWindowStats {
  double window_sec = 0;
  uint64_t total = 0;  // requests observed in the window
  uint64_t bad = 0;    // of those, over the threshold
  double bad_fraction = 0;
  double burn_rate = 0;
  bool complete = false;  // the run covered the whole window

  JsonValue ToJson() const;
};

struct SloTargetReport {
  SloTarget target;
  std::vector<SloWindowStats> windows;
  double worst_burn_rate = 0;
  // burn > 1.0 on every configured window.
  bool breached = false;

  JsonValue ToJson() const;
};

class SloTracker {
 public:
  SloTracker() = default;
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  // The process-wide tracker the Health endpoint consults.
  static SloTracker& Global();

  // Replaces targets and windows and drops accumulated rows. Windows are
  // sorted ascending; empty windows fall back to {5, 60, 300} seconds.
  void Configure(std::vector<SloTarget> targets,
                 std::vector<double> windows_sec = {});
  // Drops accumulated rows and the histogram baselines; config survives.
  void Reset();
  // Drops everything; configured() goes false and Health stops reporting.
  void Clear();
  bool configured() const;

  // Appends one cumulative (total, bad) row per target, read live from
  // the registry histograms. Deduped: rows closer than min_sample_gap_ns
  // to the previous one are skipped. Driven by the sampler probes; tests
  // call it directly with synthetic clocks.
  void Sample(int64_t now_ns);

  // Burn rate of one target over one trailing window, against the newest
  // sampled row (Sample() first for fresh numbers).
  double BurnRate(const std::string& label, double window_sec) const;

  std::vector<SloTargetReport> Report() const;
  // True when some target breached (burn > 1 on all its windows).
  bool AnyBreached() const;
  // Max burn rate across all targets and windows (0 when unconfigured).
  double WorstBurnRate() const;

  JsonValue ReportJson() const;

  // One kGauge probe per target x window ("slo.<label>.burn.<W>s"); the
  // probes call Sample(NowNanos()) themselves, so a running
  // TelemetrySampler keeps the rings current with no other driver.
  std::vector<ProbeId> RegisterSamplerProbes(TelemetrySampler& sampler);

 private:
  struct Row {
    int64_t t_ns = 0;
    // Parallel to targets_: cumulative (total, bad) at t_ns.
    std::vector<std::pair<uint64_t, uint64_t>> counts;
  };

  void SampleLocked(int64_t now_ns);
  // Window totals and burn rate of one target: the delta from the newest
  // row at or before the window start to the newest row.
  SloWindowStats WindowStatsLocked(size_t idx, double window_sec) const;
  SloTargetReport ReportTargetLocked(size_t idx) const;
  void PruneLocked(int64_t now_ns);

  mutable std::mutex mutex_;
  std::vector<SloTarget> targets_;
  std::vector<double> windows_sec_{5, 60, 300};
  std::deque<Row> rows_;
  int64_t min_sample_gap_ns_ = 100LL * 1000 * 1000;  // 100 ms
};

}  // namespace obs
}  // namespace arthas

#endif  // ARTHAS_OBS_RESOURCE_SLO_TRACKER_H_
