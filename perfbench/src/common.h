// Shared plumbing for the benchmark workloads: wall-clock helpers, sample
// quantiles, process resource probes, the benchmark's own span log, and
// the result record each workload fills in.
//
// The benchmark measures Arthas from outside: it times calls into each
// layer's public entry points and reads the program's public counters. No
// tracing is added inside the library.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_file;  // traced runs write their spans here

  // Length of one measured window. A traced run measures two or three
  // windows (untraced, traced, untraced), each half the run's length.
  double window_seconds() const { return trace ? seconds / 2 : seconds; }
};

// Monotonic wall clock.
int64_t NowNs();
inline double NsToUs(double ns) { return ns / 1e3; }
inline double NsToMs(double ns) { return ns / 1e6; }
inline double NsToS(double ns) { return ns / 1e9; }

// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
// Reorders `values`.
template <typename T>
double Quantile(std::vector<T>& values, double q);
double Median(std::vector<double> values);

// A histogram of a registry snapshot; empty when it was never recorded.
arthas::obs::HistogramSnapshot HistogramOf(
    const arthas::obs::RegistrySnapshot& snapshot, const char* name);

// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

// CPU time and context switches (voluntary + involuntary).
struct Usage {
  double cpu_s = 0;
  uint64_t ctx_switches = 0;
};
Usage ThreadUsage();   // calling thread only (RUSAGE_THREAD)
Usage ProcessUsage();  // all threads (RUSAGE_SELF)

// Keeps every CPU the process may run on busy at the lowest priority while
// it exists. On a virtual machine a CPU with nothing to run halts, and
// waking it again is a round trip through the host whose latency depends
// on the host's load, not on the program: a server thread that sleeps in
// epoll_wait between batches pays it on each wake-up. A SCHED_IDLE spinner
// runs only when nothing else can run on its CPU and gives way as soon as a
// thread wakes there, so the CPU never halts and a wake-up stays inside
// the guest.
class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();  // stops the spinners and waits for each to end
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  // Context switches of the spinners so far, so a caller can take them out
  // of its process-wide counts.
  uint64_t ctx_switches() const;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
  std::vector<int> tids_;  // a spinner's thread id, or 0 when it gave up
};

// splitmix64: the benchmark's own generator, so inputs depend only on the
// seed and never on the library's RNGs.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// Printable value of `len` characters derived from (salt, a, b); no spaces,
// so it survives the wire protocol's tokenizer.
std::string DerivedValue(uint64_t salt, uint64_t a, uint64_t b, size_t len);

// Per-op latencies of a measured window, in the order the ops completed,
// cut into fixed intervals of wall time. A window may be measured in
// several segments (Start ... Finish each); a segment's trailing partial
// interval is dropped. Medians over the intervals keep a stall or a noisy
// neighbour in part of the window from deciding the run.
class LatencyLog {
 public:
  // Reserves room for `expected` samples, so the buffer never reallocates
  // (and never doubles the resident set) inside the window. An interval
  // should hold enough ops that its p99 has at least ten samples beyond it.
  LatencyLog(size_t expected, int64_t interval_ns)
      : interval_ns_(interval_ns) {
    samples_.reserve(expected);
  }

  void Start(int64_t now_ns);
  void Add(int64_t now_ns, int64_t latency_ns);
  void Finish(int64_t now_ns);

  size_t size() const { return samples_.size(); }
  int64_t wall_ns() const { return wall_ns_; }  // summed over segments
  // Quantile over every sample.
  double Quantile(double q) const;
  // Median over the complete intervals of the completion rate (1/s) and
  // of the q-quantile latency (ns); the whole window when none is complete.
  double MedianIntervalRate() const;
  double MedianIntervalQuantile(double q) const;

 private:
  // Closes every interval of the current segment that ends by `now_ns`.
  void CloseIntervals(int64_t now_ns);

  int64_t interval_ns_;
  int64_t segment_start_ns_ = 0;
  int64_t wall_ns_ = 0;
  size_t interval_first_ = 0;  // first sample of the open interval
  int64_t interval_end_ns_ = 0;
  std::vector<uint32_t> samples_;
  std::vector<std::pair<size_t, size_t>> intervals_;  // [first, last) samples
};

// Spans the benchmark records around its own calls into a layer: name,
// start, end, parent span and request id. Self time is a span's duration
// minus the time its child spans cover. Per-name totals are kept for every
// span; the spans themselves are kept in memory up to a cap and written
// out by Write() at the end of the run.
class SpanLog {
 public:
  static constexpr uint32_t kNone = 0;
  static constexpr size_t kMaxKept = 1 << 20;

  // Nested spans: Close ends the most recently opened span.
  void Open(const char* name, uint64_t request);
  void Close();
  // A root span whose start and end are already known (overlapping
  // requests on the wire, which do not nest).
  void AddRoot(const char* name, uint64_t request, int64_t start_ns,
               int64_t end_ns);

  struct Total {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  // Per-name totals; names are compared by pointer, so pass literals.
  Total TotalFor(const char* name) const;

  // Tab-separated: id, parent, request, name, start_ns, end_ns.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint32_t id;
    uint32_t parent;
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct OpenSpan {
    Span span;
    int64_t child_ns;
  };
  void Finish(const Span& span, int64_t child_ns);

  uint32_t next_id_ = 1;
  uint64_t dropped_ = 0;
  std::vector<Span> kept_;
  std::vector<OpenSpan> stack_;
  std::vector<std::pair<const char*, Total>> totals_;
};

// RAII nested span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request) : log_(log) {
    if (log_ != nullptr) log_->Open(name, request);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

// What one run reports. Every correctness check that fails increments
// `failed` and clears `correct`; metrics carry their unit.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // Records a failed check (printed to stderr) unless `ok`.
  bool Check(bool ok, const std::string& what);
  // Counts `n` more attempted operations/checks.
  void Attempt(uint64_t n) { attempted_ += n; }
  void Fail(uint64_t n, const std::string& what);

  bool correct() const { return failed_ == 0 && !broken_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  // 1 - failed / attempted.
  double SuccessRate() const;
  // A check whose failure is not an operation (e.g. a count that did not
  // repeat): the run is wrong even if every operation succeeded.
  void Break(const std::string& what);

  std::string Json() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool broken_ = false;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
