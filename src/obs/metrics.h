// Process-wide metrics registry (counters, gauges, log-bucketed histograms).
//
// The paper's evaluation tables are all *measured* quantities — persist and
// flush counts (Table 8), checkpoint write amplification (Section 6.4),
// mitigation latency breakdowns (Figure 8 / Table 9) — so every subsystem
// mirrors its stats into one process-wide registry that the harness can
// snapshot per experiment cell and export as JSON (`--metrics-json`).
//
// Design constraints, in order:
//   * hot-path updates are a single relaxed atomic RMW (no locks, no
//     allocation); call sites cache the metric handle in a function-local
//     static (see ARTHAS_COUNTER_ADD in obs/obs.h),
//   * metrics are never removed, so handles returned by the registry stay
//     valid for the process lifetime,
//   * histograms are log-bucketed (16 exact small buckets + 16 sub-buckets
//     per power of two), giving p50/p90/p99/p999 with bounded relative
//     error (<= 6.25%, percentiles additionally clamped to the exact
//     recorded min/max) at constant memory, and merge by bucket-wise
//     addition; tail buckets optionally retain the last exemplar id that
//     crossed them, linking a histogram tail to the request trace plane.
//
// Naming convention: `subsystem.verb.unit`, e.g. `pmem.flush.count`,
// `checkpoint.serialize.ns`, `pool.live.objects`.

#ifndef ARTHAS_OBS_METRICS_H_
#define ARTHAS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace arthas {
namespace obs {

// Monotonically increasing count.
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time signed value.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double p50 = 0;
  double p90 = 0;
  double p95 = 0;
  double p99 = 0;
  double p999 = 0;
  double mean = 0;
};

// One tail bucket's retained exemplar: the id of the last sample that
// landed in the bucket (0 = none recorded with an id).
struct TailExemplar {
  uint64_t bucket_lo = 0;
  uint64_t bucket_hi = 0;
  uint64_t count = 0;
  uint64_t exemplar = 0;
};

// Thread-safe log-bucketed histogram of non-negative integer samples
// (latencies in nanoseconds, sizes in bytes).
class Histogram {
 public:
  // 16 exact buckets for values 0..15, then 16 linear sub-buckets per
  // power of two up to 2^63: relative quantile error is bounded by 1/16
  // (the sub-bucket width), so p999 on a microsecond tail is trustworthy.
  static constexpr size_t kSubBucketsPerOctave = 16;
  static constexpr size_t kNumBuckets = 16 + kSubBucketsPerOctave * 60;

  Histogram() = default;
  ~Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value);
  // Record() plus: the bucket the value lands in retains `exemplar_id`
  // (last writer wins; the tail is what anyone asks about). The exemplar
  // array is allocated on first use, so plain histograms pay nothing.
  void RecordWithExemplar(uint64_t value, uint64_t exemplar_id);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t min() const;

  // Value at quantile q in [0, 1], interpolated within the winning bucket.
  double Percentile(double q) const;

  // Samples recorded with value >= threshold, at bucket granularity: the
  // straddling bucket's count is apportioned linearly, so the relative
  // error matches the percentile contract (<= 1/16 of the bucket). Feeds
  // SLO bad-event counting (obs/resource/slo_tracker.h).
  uint64_t CountAbove(uint64_t threshold) const;

  HistogramSnapshot Snapshot() const;

  static size_t BucketIndex(uint64_t value);
  // Inclusive [lo, hi] value range a bucket covers.
  static std::pair<uint64_t, uint64_t> BucketBounds(size_t index);

  // Occupied buckets at or above the `min_quantile` value that retain an
  // exemplar id, lowest bucket first. Empty when no exemplars were ever
  // recorded.
  std::vector<TailExemplar> TailExemplars(double min_quantile = 0.99) const;

 private:
  std::atomic<uint64_t>* EnsureExemplars();

  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> min_{~0ULL};
  // Lazily-allocated per-bucket exemplar ids (see RecordWithExemplar).
  std::atomic<std::atomic<uint64_t>*> exemplars_{nullptr};
};

struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every subsystem reports into.
  static MetricsRegistry& Global();

  // Finds or creates a metric. The returned reference is valid for the
  // registry's lifetime; creating the same name with two different metric
  // kinds is a programming error (the first kind wins, checked by assert).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  bool Has(const std::string& name) const;

  // Folds another registry's state into this one (counters and histograms
  // add; gauges take the other's value). Used to aggregate worker-local
  // registries.
  void MergeFrom(const MetricsRegistry& other);

  // Zeroes every registered metric (names stay registered).
  void ResetAll();

  RegistrySnapshot Snapshot() const;

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  // min, max, mean, p50, p90, p95, p99, p999}}}
  JsonValue SnapshotJson() const;
  std::string SnapshotJsonString() const;

  // Aligned text table of every histogram's latency percentiles (count,
  // p50/p95/p99/p999, max, mean), for the --metrics-summary artifact.
  std::string LatencyTable() const;

 private:
  struct Slot {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Slot> slots_;
};

// Counter deltas between two snapshots (after - before, absent keys = 0);
// used for per-experiment-cell accounting.
std::map<std::string, uint64_t> CounterDeltas(const RegistrySnapshot& before,
                                              const RegistrySnapshot& after);

}  // namespace obs
}  // namespace arthas

#endif  // ARTHAS_OBS_METRICS_H_
