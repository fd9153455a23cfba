// Nested timed spans with key/value attributes, exported as Chrome
// trace-event JSON (loadable in chrome://tracing or Perfetto) and as a flat
// text summary.
//
// A span measures one timed region (monotonic nanoseconds, see
// common/clock.h). Spans nest per thread: a ScopedSpan opened while another
// is open on the same thread becomes its child, tracked with a thread-local
// depth counter. Finished spans are appended to the calling thread's own
// buffer (a common/thread_registry.h ThreadRegistry entry with a
// per-buffer mutex, uncontended in steady state — only Snapshot ever takes
// it from another thread), so concurrent workers never serialize on one
// tracer-wide lock. Span *end* is off the hot path by
// construction anyway (spans wrap phases like slicing or a reversion
// batch, not per-persist work; per-persist costs go to histograms in
// obs/metrics.h instead). The Chrome export merges the buffers and emits
// one thread_name metadata row per thread, so chrome://tracing renders
// each worker on its own labelled track.
//
// Prefer the ARTHAS_NAMED_SPAN macro in obs/obs.h, which compiles out under
// ARTHAS_OBS_DISABLED.

#ifndef ARTHAS_OBS_SPAN_H_
#define ARTHAS_OBS_SPAN_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/thread_registry.h"

namespace arthas {
namespace obs {

struct SpanEvent {
  std::string name;
  int64_t start_ns = 0;  // relative to the tracer's epoch
  int64_t end_ns = 0;
  uint32_t tid = 0;      // ThreadOrdinal() of the recording thread
  int depth = 0;         // nesting depth at open (0 = top level)
  std::vector<std::pair<std::string, std::string>> attrs;
};

class SpanTracer {
 public:
  SpanTracer();
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  static SpanTracer& Global();

  // Runtime switch (cheap relaxed load on span open). Disabled spans are
  // not recorded at all.
  void set_enabled(bool enabled);
  bool enabled() const;

  void Record(SpanEvent event);

  std::vector<SpanEvent> Snapshot() const;
  size_t size() const;

  // Drops all recorded spans and restarts the epoch.
  void Clear();

  // Chrome trace-event document (obs/chrome_trace.h): one thread_name row
  // per thread that recorded a span, then one "X" event per span in
  // Snapshot order; each event's tid is the recording thread's
  // ThreadOrdinal(), matched by its metadata row.
  std::string ExportChromeJson() const;

  // Flat per-name summary: count, total, and mean wall time.
  std::string ExportTextSummary() const;

  int64_t epoch_ns() const { return epoch_ns_; }

 private:
  // One finished-span buffer per recording thread. The buffer's mutex only
  // conflicts when a Snapshot races the owner's append.
  struct ThreadBuffer {
    std::mutex mutex;
    std::vector<SpanEvent> events;
  };

  ThreadRegistry<ThreadBuffer> buffers_;
  int64_t epoch_ns_ = 0;
};

// RAII timed span reporting to SpanTracer::Global(). Created by
// ARTHAS_NAMED_SPAN; usable directly where the macro is too
// rigid (e.g. a span whose name is computed at runtime).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void AddAttr(std::string key, std::string value);
  void AddAttr(std::string key, int64_t value) {
    AddAttr(std::move(key), std::to_string(value));
  }
  void AddAttr(std::string key, uint64_t value) {
    AddAttr(std::move(key), std::to_string(value));
  }

  // Ends the span now instead of at scope exit (for a phase that finishes
  // mid-function). Idempotent; later AddAttr calls are ignored.
  void Close();

  int64_t elapsed_ns() const { return NowNanos() - start_abs_ns_; }

 private:
  SpanEvent event_;
  int64_t start_abs_ns_ = 0;
  bool active_ = false;  // tracer was enabled when the span opened
};

// Drop-in stand-in for ScopedSpan when observability is compiled out; every
// member is a no-op the optimizer deletes.
class NullSpan {
 public:
  explicit NullSpan(const char* /*name*/ = nullptr) {}
  template <typename K, typename V>
  void AddAttr(K&&, V&&) {}
  void Close() {}
  int64_t elapsed_ns() const { return 0; }
};

}  // namespace obs
}  // namespace arthas

#endif  // ARTHAS_OBS_SPAN_H_
