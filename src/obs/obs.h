// Umbrella header for the observability layer: zero-boilerplate
// instrumentation macros over obs/metrics.h and obs/span.h.
//
// Every macro compiles to nothing when ARTHAS_OBS_DISABLED is defined
// (CMake option of the same name), so the Table-8 overhead ablation can
// measure the instrumented hot paths against a build with genuinely no
// bookkeeping. Metric handles are cached in function-local statics: after
// the first call a counter update is one relaxed atomic add.
//
// The macros that declare variables (ARTHAS_SCOPED_LATENCY,
// ARTHAS_NAMED_SPAN) must be used as statements inside a braced scope.

#ifndef ARTHAS_OBS_OBS_H_
#define ARTHAS_OBS_OBS_H_

#include "common/clock.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace arthas {
namespace obs {

// RAII: records elapsed monotonic nanoseconds into a histogram.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& histogram)
      : histogram_(histogram), start_ns_(NowNanos()) {}
  ~ScopedLatency() {
    histogram_.Record(static_cast<uint64_t>(NowNanos() - start_ns_));
  }

  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram& histogram_;
  int64_t start_ns_;
};

}  // namespace obs
}  // namespace arthas

#define ARTHAS_OBS_CONCAT_INNER(a, b) a##b
#define ARTHAS_OBS_CONCAT(a, b) ARTHAS_OBS_CONCAT_INNER(a, b)

#ifndef ARTHAS_OBS_DISABLED

// Adds `delta` to the named process-wide counter.
#define ARTHAS_COUNTER_ADD(name, delta)                              \
  do {                                                               \
    static ::arthas::obs::Counter& _arthas_obs_c =                   \
        ::arthas::obs::MetricsRegistry::Global().GetCounter(name);   \
    _arthas_obs_c.Add(static_cast<uint64_t>(delta));                 \
  } while (0)

// Sets the named gauge to `value`.
#define ARTHAS_GAUGE_SET(name, value)                                \
  do {                                                               \
    static ::arthas::obs::Gauge& _arthas_obs_g =                     \
        ::arthas::obs::MetricsRegistry::Global().GetGauge(name);     \
    _arthas_obs_g.Set(static_cast<int64_t>(value));                  \
  } while (0)

// Records one sample in the named histogram.
#define ARTHAS_HISTOGRAM_RECORD(name, value)                         \
  do {                                                               \
    static ::arthas::obs::Histogram& _arthas_obs_h =                 \
        ::arthas::obs::MetricsRegistry::Global().GetHistogram(name); \
    _arthas_obs_h.Record(static_cast<uint64_t>(value));              \
  } while (0)

// Times the rest of the enclosing scope into the named histogram.
#define ARTHAS_SCOPED_LATENCY(name)                                       \
  static ::arthas::obs::Histogram& ARTHAS_OBS_CONCAT(_arthas_obs_hist_,   \
                                                     __LINE__) =          \
      ::arthas::obs::MetricsRegistry::Global().GetHistogram(name);        \
  ::arthas::obs::ScopedLatency ARTHAS_OBS_CONCAT(_arthas_obs_lat_,        \
                                                 __LINE__)(               \
      ARTHAS_OBS_CONCAT(_arthas_obs_hist_, __LINE__))

// Timed span covering the rest of the enclosing scope, held in a named
// variable for attaching attributes: ARTHAS_NAMED_SPAN(s, "x");
// s.AddAttr("k", "v");
#define ARTHAS_NAMED_SPAN(var, name) ::arthas::obs::ScopedSpan var(name)

#else  // ARTHAS_OBS_DISABLED

#define ARTHAS_COUNTER_ADD(name, delta) \
  do {                                  \
  } while (0)
#define ARTHAS_GAUGE_SET(name, value) \
  do {                                \
  } while (0)
#define ARTHAS_HISTOGRAM_RECORD(name, value) \
  do {                                       \
  } while (0)
#define ARTHAS_SCOPED_LATENCY(name) \
  do {                              \
  } while (0)
#define ARTHAS_NAMED_SPAN(var, name) \
  [[maybe_unused]] ::arthas::obs::NullSpan var

#endif  // ARTHAS_OBS_DISABLED

#endif  // ARTHAS_OBS_OBS_H_
