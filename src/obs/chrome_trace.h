// Chrome trace-event documents, loadable in chrome://tracing or Perfetto:
// the one writer behind SpanTracer::ExportChromeJson and
// RequestTracePlane::ChromeTraceJson.
//
// Rows land in call order after a single process_name metadata row:
//   {"traceEvents": [{"name": "process_name", "ph": "M", ...},
//                    {"name": "thread_name", "ph": "M", "tid", "args"}...,
//                    {"name", "cat", "ph": "X", "ts", "dur", "pid", "tid",
//                     "args"}...],
//    "displayTimeUnit": "ns"}
// Timestamps and durations are microseconds, fractional for sub-us
// precision; every row is in pid 1.

#ifndef ARTHAS_OBS_CHROME_TRACE_H_
#define ARTHAS_OBS_CHROME_TRACE_H_

#include <cstdint>
#include <string>

#include "obs/json.h"

namespace arthas {
namespace obs {

class ChromeTraceWriter {
 public:
  // Starts the document with its process_name row (exactly one: a duplicate
  // would make the viewer render duplicate process groups).
  ChromeTraceWriter();

  // Labels track `tid`.
  void ThreadName(int64_t tid, const std::string& name);

  // One complete ("X") event; a null `args` is omitted.
  void Complete(const std::string& name, const std::string& cat, int64_t tid,
                double ts_us, double dur_us, JsonValue args = JsonValue());

  // The finished document; the writer is spent afterwards.
  JsonValue Finish();

 private:
  JsonValue events_ = JsonValue::Array();
};

}  // namespace obs
}  // namespace arthas

#endif  // ARTHAS_OBS_CHROME_TRACE_H_
