#include "obs/chrome_trace.h"

#include <utility>

namespace arthas {
namespace obs {

namespace {

JsonValue MetadataRow(const char* kind, int64_t tid, const std::string& name) {
  JsonValue meta = JsonValue::Object();
  meta.Set("name", JsonValue(kind));
  meta.Set("ph", JsonValue("M"));
  meta.Set("pid", JsonValue(int64_t{1}));
  meta.Set("tid", JsonValue(tid));
  JsonValue args = JsonValue::Object();
  args.Set("name", JsonValue(name));
  meta.Set("args", std::move(args));
  return meta;
}

}  // namespace

ChromeTraceWriter::ChromeTraceWriter() {
  events_.Append(MetadataRow("process_name", 0, "arthas"));
}

void ChromeTraceWriter::ThreadName(int64_t tid, const std::string& name) {
  events_.Append(MetadataRow("thread_name", tid, name));
}

void ChromeTraceWriter::Complete(const std::string& name,
                                 const std::string& cat, int64_t tid,
                                 double ts_us, double dur_us, JsonValue args) {
  JsonValue ev = JsonValue::Object();
  ev.Set("name", JsonValue(name));
  ev.Set("cat", JsonValue(cat));
  ev.Set("ph", JsonValue("X"));
  ev.Set("ts", JsonValue(ts_us));
  ev.Set("dur", JsonValue(dur_us));
  ev.Set("pid", JsonValue(int64_t{1}));
  ev.Set("tid", JsonValue(tid));
  if (!args.is_null()) {
    ev.Set("args", std::move(args));
  }
  events_.Append(std::move(ev));
}

JsonValue ChromeTraceWriter::Finish() {
  JsonValue doc = JsonValue::Object();
  doc.Set("traceEvents", std::move(events_));
  doc.Set("displayTimeUnit", JsonValue("ns"));
  return doc;
}

}  // namespace obs
}  // namespace arthas
