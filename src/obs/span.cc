#include "obs/span.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "obs/chrome_trace.h"

namespace arthas {
namespace obs {

namespace {

std::atomic<bool> g_enabled{true};

int& ThisThreadDepth() {
  thread_local int depth = 0;
  return depth;
}

}  // namespace

SpanTracer::SpanTracer() : epoch_ns_(NowNanos()) {}

SpanTracer& SpanTracer::Global() {
  static SpanTracer* tracer = new SpanTracer();
  return *tracer;
}

void SpanTracer::set_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool SpanTracer::enabled() const {
  return g_enabled.load(std::memory_order_relaxed);
}

void SpanTracer::Record(SpanEvent event) {
  ThreadBuffer* buffer = buffers_.Local();
  std::lock_guard<std::mutex> lock(buffer->mutex);
  buffer->events.push_back(std::move(event));
}

std::vector<SpanEvent> SpanTracer::Snapshot() const {
  std::vector<SpanEvent> merged;
  buffers_.ForEach([&merged](ThreadBuffer& buffer) {
    std::lock_guard<std::mutex> lock(buffer.mutex);
    merged.insert(merged.end(), buffer.events.begin(), buffer.events.end());
  });
  // Completion order, as the old single-buffer tracer produced: a span
  // lands when it closes, so nested spans precede their parents.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.end_ns < b.end_ns;
                   });
  return merged;
}

size_t SpanTracer::size() const {
  size_t total = 0;
  buffers_.ForEach([&total](ThreadBuffer& buffer) {
    std::lock_guard<std::mutex> lock(buffer.mutex);
    total += buffer.events.size();
  });
  return total;
}

void SpanTracer::Clear() {
  buffers_.ForEach([](ThreadBuffer& buffer) {
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.events.clear();
  });
  epoch_ns_ = NowNanos();
}

std::string SpanTracer::ExportChromeJson() const {
  const std::vector<SpanEvent> events = Snapshot();
  ChromeTraceWriter writer;
  // One thread_name row per thread that actually recorded an event (tids
  // are collected from the events themselves, so idle registered buffers
  // never produce an unlabeled empty track).
  std::set<uint32_t> tids;
  for (const SpanEvent& e : events) {
    tids.insert(e.tid);
  }
  for (const uint32_t tid : tids) {
    writer.ThreadName(tid, "arthas-thread-" + std::to_string(tid));
  }
  for (const SpanEvent& e : events) {
    JsonValue args;
    if (!e.attrs.empty()) {
      args = JsonValue::Object();
      for (const auto& [key, value] : e.attrs) {
        args.Set(key, JsonValue(value));
      }
    }
    writer.Complete(e.name, "arthas", e.tid,
                    static_cast<double>(e.start_ns) / 1000.0,
                    static_cast<double>(e.end_ns - e.start_ns) / 1000.0,
                    std::move(args));
  }
  return writer.Finish().Dump();
}

std::string SpanTracer::ExportTextSummary() const {
  struct Agg {
    uint64_t count = 0;
    int64_t total_ns = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const SpanEvent& e : Snapshot()) {
    Agg& agg = by_name[e.name];
    agg.count++;
    agg.total_ns += e.end_ns - e.start_ns;
  }
  std::ostringstream out;
  out << "span summary (" << by_name.size() << " span names)\n";
  for (const auto& [name, agg] : by_name) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-32s count=%-8llu total=%.3f ms  mean=%.1f us\n",
                  name.c_str(), static_cast<unsigned long long>(agg.count),
                  static_cast<double>(agg.total_ns) / 1e6,
                  static_cast<double>(agg.total_ns) /
                      static_cast<double>(agg.count) / 1e3);
    out << line;
  }
  return out.str();
}

ScopedSpan::ScopedSpan(std::string name) {
  SpanTracer& tracer = SpanTracer::Global();
  active_ = tracer.enabled();
  if (!active_) {
    return;
  }
  start_abs_ns_ = NowNanos();
  event_.name = std::move(name);
  event_.tid = ThreadOrdinal();
  event_.depth = ThisThreadDepth()++;
  event_.start_ns = start_abs_ns_ - tracer.epoch_ns();
}

ScopedSpan::~ScopedSpan() { Close(); }

void ScopedSpan::Close() {
  if (!active_) {
    return;
  }
  active_ = false;
  ThisThreadDepth()--;
  SpanTracer& tracer = SpanTracer::Global();
  event_.end_ns = NowNanos() - tracer.epoch_ns();
  // Chrome's renderer drops zero-duration complete events nested inside
  // others; clamp to 1 ns so every span stays visible.
  if (event_.end_ns <= event_.start_ns) {
    event_.end_ns = event_.start_ns + 1;
  }
  tracer.Record(std::move(event_));
}

void ScopedSpan::AddAttr(std::string key, std::string value) {
  if (!active_) {
    return;
  }
  event_.attrs.emplace_back(std::move(key), std::move(value));
}

}  // namespace obs
}  // namespace arthas
