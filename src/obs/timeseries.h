// Live telemetry plane: periodic in-process sampling of the metrics
// registry into ring-buffered time series, plus the timeline analysis that
// turns those series into the paper's recovery figure (Section 6):
// throughput collapses when a hard fault fires, the detector notices, the
// reactor reverts, and throughput recovers within seconds.
//
// Everything the rest of the obs stack produces is post-hoc (metrics
// snapshots at exit, forensics after a crash). The TelemetrySampler is the
// *during* view: a background thread wakes every `interval_ns` (default
// 10 ms), scrapes MetricsRegistry::Global() — counters as per-tick deltas,
// gauges as point-in-time values — evaluates caller-registered probes
// (ops completed, faults raised, pending durable lines), and appends one
// (t_ns, value) point per series into a fixed-capacity ring. Phase markers
// (fault_injected / detector_fired / reversion_done) are stamped by the
// harness and reactor onto the same monotonic clock, so the
// TimelineAnalyzer can derive first-class time_to_detect_ns and
// time_to_recover_ns numbers, and the ReactorServer's Stats/Health
// endpoints can answer "are you healthy?" on a live system.
//
// Design constraints, in order:
//   * nothing on any hot path: systems keep updating the same counters
//     they always did; the sampler pays the whole cost on its own thread
//     at a 10 ms cadence (CI gates the on/off throughput ratio),
//   * bounded memory: every series is a fixed-capacity ring that overwrites
//     its oldest points (wraparound keeps the newest N),
//   * runtime start/stop (idempotent); markers and samples are recorded
//     only while the sampler runs, so a run's timeline is exactly the
//     sampling window,
//   * the ARTHAS_TIMELINE_MARK / ARTHAS_TELEMETRY_PROBE macros compile to
//     nothing under ARTHAS_OBS_DISABLED; the classes stay linkable either
//     way (same per-TU discipline as obs/obs.h).
//
// Probe functions run on the sampler thread under the sampler's lock: they
// must be cheap, must not block, and must not call back into the sampler.

#ifndef ARTHAS_OBS_TIMESERIES_H_
#define ARTHAS_OBS_TIMESERIES_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace arthas {
namespace obs {

// One sample: monotonic nanosecond timestamp + value. For counter-kind
// series the value is the delta accumulated since the previous tick; for
// gauge-kind series it is the instantaneous value at the tick.
struct TimelinePoint {
  int64_t t_ns = 0;
  double value = 0;
};

// A named instant on the same clock as the points (phase transitions:
// "fault_injected", "detector_fired", "reversion_done", ...).
struct TimelineMarker {
  std::string name;
  int64_t t_ns = 0;
};

// How a caller-registered probe's return value is recorded.
enum class ProbeKind {
  kGauge,    // record fn() as-is each tick
  kCounter,  // fn() is cumulative; record the delta since the last tick
};

using ProbeId = uint64_t;
inline constexpr ProbeId kNoProbe = 0;

struct SamplerOptions {
  // Tick period for the background thread. 10 ms resolves the paper-scale
  // recovery timeline (seconds); benches drop to ~200 us because the
  // virtual-clock harness compresses a 5-minute run into tens of real ms.
  int64_t interval_ns = 10 * 1000 * 1000;
  // Points retained per series (ring overwrites the oldest beyond this).
  size_t ring_capacity = 4096;
  // What happens when a ring fills. Default (false): overwrite the oldest
  // point, keeping the newest `ring_capacity` — right for the recovery
  // timeline, which only cares about the recent window. True: halve the
  // ring's resolution in place instead (merge adjacent point pairs and
  // double the per-point stride), so the ring always spans the whole run —
  // right for multi-minute soaks whose growth trend lives in the full
  // window (bench_soak sets this; see GrowthAnalyzer). Merging sums the
  // pair for counter-delta series (mass is conserved; rates stay exact
  // over the doubled interval) and keeps the later value for gauge
  // series.
  bool downsample_on_full = false;
};

// Snapshot of one series, oldest point first.
struct SeriesSnapshot {
  std::string name;
  std::string kind;          // "counter" | "gauge" | "probe"
  uint64_t total_points = 0; // ever recorded, including overwritten ones
  std::vector<TimelinePoint> points;
};

class TelemetrySampler {
 public:
  explicit TelemetrySampler(SamplerOptions options = {});
  ~TelemetrySampler();  // stops the thread if running

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  // The process-wide sampler the macros and the artifact writer use.
  static TelemetrySampler& Global();

  // Replaces the options. Only honored while stopped (the tick loop reads
  // them once per tick under the lock, but callers should treat a running
  // sampler's options as frozen).
  void Configure(const SamplerOptions& options);
  SamplerOptions options() const;

  // Starts the background tick thread. Returns false (and does nothing) if
  // already running. The registry baseline for counter deltas is captured
  // at start, so the first tick's deltas cover [start, first tick).
  bool Start();
  // Stops and joins the thread, taking one final tick so the tail of the
  // run lands in the rings. Returns false if already stopped. Idempotent.
  bool Stop();
  bool running() const { return running_flag_.load(std::memory_order_relaxed); }

  // Drops all series, markers, and tick counts. Registered probes survive
  // (their delta baselines restart). Safe while running.
  void Reset();

  // Registers a probe evaluated every tick into a series named `name`.
  // Returns an id for UnregisterProbe; after UnregisterProbe returns, the
  // probe function will not be called again (its series data survives).
  ProbeId RegisterProbe(const std::string& name, ProbeKind kind,
                        std::function<double()> fn);
  void UnregisterProbe(ProbeId id);

  // Stamps a named marker at NowNanos(). Recorded only while running, so
  // markers always fall inside the sampling window they describe.
  void Mark(const std::string& name);

  // Takes one tick synchronously on the calling thread (works whether or
  // not the background thread runs; tests use this for determinism).
  void SampleNow();

  uint64_t samples_taken() const;
  int64_t start_ns() const;

  std::vector<SeriesSnapshot> SnapshotSeries() const;
  // Points of one series, oldest first (empty if the series is unknown).
  std::vector<TimelinePoint> SeriesPoints(const std::string& name) const;
  // The newest `n` points of every series whose name starts with `prefix`
  // (empty prefix = all series).
  std::vector<SeriesSnapshot> Tail(size_t n,
                                   const std::string& prefix = "") const;
  std::vector<TimelineMarker> Markers() const;

  // {"schema_version": 1, "interval_ns", "start_ns", "samples",
  //  "series": [{"name", "kind", "total_points", "points": [{"t_ns", "v"}]}],
  //  "markers": [{"name", "t_ns"}]}
  JsonValue ExportJson() const;

 private:
  struct Ring {
    std::string kind;
    // Counter-delta semantics: merged points sum (conserving mass);
    // gauge semantics keep the later value. Fixed at first push.
    bool sum_on_merge = false;
    uint64_t total = 0;
    size_t head = 0;  // next write slot once the ring is full
    // Downsampling state: each stored point covers `stride` raw pushes;
    // `pending`/`pending_sum` accumulate the partial point in flight.
    uint64_t stride = 1;
    uint64_t pending = 0;
    double pending_sum = 0;
    std::vector<TimelinePoint> points;
  };
  struct Probe {
    ProbeId id = kNoProbe;
    std::string name;
    ProbeKind kind = ProbeKind::kGauge;
    std::function<double()> fn;
    double last = 0;
    bool primed = false;
  };

  void RunLoop();
  // One tick at time `now`. Takes the registry snapshot outside lock_.
  void SampleTick(int64_t now);
  void PushPointLocked(const std::string& name, const char* kind,
                       bool sum_on_merge, int64_t t, double value);
  // Halves a full ring's resolution in place (wraparound-aware: unrolls
  // the ring into chronological order first). Doubles `stride`.
  void CompactRingLocked(Ring& ring);

  mutable std::mutex lock_;
  std::condition_variable cv_;
  std::thread thread_;
  bool thread_running_ = false;       // guarded by lock_
  bool stop_requested_ = false;       // guarded by lock_
  std::atomic<bool> running_flag_{false};
  SamplerOptions options_;
  std::map<std::string, Ring> series_;
  std::vector<TimelineMarker> markers_;
  std::vector<Probe> probes_;
  ProbeId next_probe_id_ = 1;
  RegistrySnapshot registry_baseline_;
  bool have_baseline_ = false;
  uint64_t samples_ = 0;
  int64_t start_ns_ = 0;
};

// --- Timeline analysis -------------------------------------------------------

struct TimelineAnalyzerConfig {
  // The per-tick ops series the recovery curve is defined over. The
  // harness emits "harness.op.count" (registry counter -> delta series);
  // the multi-threaded driver emits "driver.live.ops" (cumulative probe,
  // recorded as deltas by ProbeKind::kCounter).
  std::string throughput_series = "harness.op.count";
  std::string fault_marker = "fault_injected";
  std::string detect_marker = "detector_fired";
  std::string reversion_marker = "reversion_done";
  // Collapse = rate falls to <= this fraction of the pre-fault rate (the
  // recovery search starts only after the collapse, so the still-healthy
  // interval between injection and manifestation is never mistaken for a
  // recovery).
  double collapse_fraction = 0.5;
  // Recovered = rate sustained >= this fraction of the pre-fault rate.
  double recovered_fraction = 0.9;
  // Consecutive ticks the recovered rate must hold.
  int sustain_samples = 3;
  // Minimum pre-fault ticks needed to call the pre-fault rate meaningful.
  int min_pre_fault_samples = 2;
};

// Fault-relative phase markers derived from one throughput series plus the
// stamped markers. Absolute times are on the sampler's monotonic clock;
// -1 means "not present in this timeline". time_to_* are relative to
// fault_injected_ns.
struct TimelineReport {
  bool has_fault = false;
  int64_t fault_injected_ns = -1;
  int64_t detector_fired_ns = -1;
  int64_t reversion_done_ns = -1;
  int64_t throughput_collapse_ns = -1;
  int64_t throughput_floor_ns = -1;
  int64_t throughput_recovered_ns = -1;
  double pre_fault_rate_ops_per_sec = 0;
  double floor_rate_ops_per_sec = 0;
  int64_t time_to_detect_ns = -1;
  int64_t time_to_recover_ns = -1;

  // Every *_ns field serializes as a JSON number, or null when -1.
  JsonValue ToJson() const;
};

class TimelineAnalyzer {
 public:
  explicit TimelineAnalyzer(TimelineAnalyzerConfig config = {})
      : config_(std::move(config)) {}

  // `throughput` holds per-tick deltas (counter semantics), oldest first.
  TimelineReport Analyze(const std::vector<TimelinePoint>& throughput,
                         const std::vector<TimelineMarker>& markers) const;
  // Convenience: pulls the configured series and markers from a sampler.
  TimelineReport Analyze(const TelemetrySampler& sampler) const;

  const TimelineAnalyzerConfig& config() const { return config_; }

 private:
  TimelineAnalyzerConfig config_;
};

// The schema-versioned `--timeline-json` artifact: the sampler's series and
// markers plus the analyzer's derived recovery metrics under "analysis".
JsonValue TimelineArtifactJson(const TelemetrySampler& sampler,
                               const TimelineAnalyzerConfig& config = {});

}  // namespace obs
}  // namespace arthas

// Instrumentation macros, compiled out under ARTHAS_OBS_DISABLED (classes
// stay linkable; only these call sites disappear).
#ifndef ARTHAS_OBS_DISABLED
// Stamps a phase marker on the live timeline (no-op unless sampling).
#define ARTHAS_TIMELINE_MARK(name) \
  ::arthas::obs::TelemetrySampler::Global().Mark(name)
// Registers a per-tick probe; evaluates to its ProbeId.
#define ARTHAS_TELEMETRY_PROBE(name, kind, ...) \
  ::arthas::obs::TelemetrySampler::Global().RegisterProbe(name, kind, \
                                                          __VA_ARGS__)
#define ARTHAS_TELEMETRY_UNPROBE(id) \
  ::arthas::obs::TelemetrySampler::Global().UnregisterProbe(id)
#else
#define ARTHAS_TIMELINE_MARK(name) \
  do {                             \
  } while (0)
#define ARTHAS_TELEMETRY_PROBE(name, kind, ...) (::arthas::obs::kNoProbe)
#define ARTHAS_TELEMETRY_UNPROBE(id) \
  do {                               \
    (void)sizeof(id);                \
  } while (0)
#endif

#endif  // ARTHAS_OBS_TIMESERIES_H_
