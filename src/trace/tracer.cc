#include "trace/tracer.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "obs/obs.h"

namespace arthas {

Tracer::Tracer(size_t buffer_capacity) : buffer_capacity_(buffer_capacity) {}

void Tracer::Record(Guid guid, PmOffset address) {
  if (!enabled_) {
    return;
  }
  ThreadBuffer& buf = *buffers_.Local(buffer_capacity_);
  buf.events.push_back({guid, address, stats_.records.fetch_add(1)});
  if (buf.events.size() >= buffer_capacity_) {
    std::lock_guard<std::mutex> lock(mutex_);
    FlushBufferLocked(buf);
  }
}

void Tracer::FlushBufferLocked(ThreadBuffer& buf) {
  if (buf.events.empty()) {
    return;
  }
  // Registry mirror happens at flush granularity so the Record() hot path
  // (Table 8's instrumentation overhead) stays a buffered push_back.
  ARTHAS_COUNTER_ADD("trace.record.count", buf.events.size());
  ARTHAS_COUNTER_ADD("trace.flush.count", 1);
  // A thread's buffer is index-sorted (the atomic counter is monotonic and
  // the thread appends sequentially); merging keeps the whole archive in
  // total event order. Single-threaded, the merge is a no-op append.
  const auto middle_at = archive_.size();
  archive_.insert(archive_.end(), buf.events.begin(), buf.events.end());
  std::inplace_merge(archive_.begin(),
                     archive_.begin() + static_cast<ptrdiff_t>(middle_at),
                     archive_.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.index < b.index;
                     });
  buf.events.clear();
  stats_.buffer_flushes++;
  index_dirty_ = true;
}

void Tracer::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.ForEach([this](ThreadBuffer& buf) { FlushBufferLocked(buf); });
}

void Tracer::RebuildIndex() {
  Flush();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!index_dirty_) {
    return;
  }
  by_guid_.clear();
  by_address_.clear();
  std::set<std::pair<Guid, PmOffset>> seen;
  by_address_.reserve(archive_.size());
  for (const TraceEvent& e : archive_) {
    if (seen.insert({e.guid, e.address}).second) {
      by_guid_[e.guid].push_back(e.address);
      by_address_.push_back({e.address, e.guid});
    }
  }
  std::sort(by_address_.begin(), by_address_.end());
  index_dirty_ = false;
}

std::vector<TraceEvent> Tracer::Events() {
  Flush();
  std::lock_guard<std::mutex> lock(mutex_);
  return archive_;
}

uint64_t Tracer::EventCount() {
  Flush();
  std::lock_guard<std::mutex> lock(mutex_);
  return archive_.size();
}

void Tracer::ForEachEvent(const std::function<void(const TraceEvent&)>& fn) {
  Flush();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const TraceEvent& e : archive_) {
    fn(e);
  }
}

std::vector<PmOffset> Tracer::AddressesForGuid(Guid guid) {
  RebuildIndex();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_guid_.find(guid);
  return it == by_guid_.end() ? std::vector<PmOffset>{} : it->second;
}

std::vector<Guid> Tracer::GuidsForRange(PmOffset offset, size_t size) {
  RebuildIndex();
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Guid> out;
  auto it = std::lower_bound(by_address_.begin(), by_address_.end(),
                             std::make_pair(offset, Guid{0}));
  for (; it != by_address_.end() && it->first < offset + size; ++it) {
    if (std::find(out.begin(), out.end(), it->second) == out.end()) {
      out.push_back(it->second);
    }
  }
  return out;
}

std::string Tracer::Serialize() {
  Flush();
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const TraceEvent& e : archive_) {
    out << e.guid << '\t' << e.address << '\n';
  }
  return out.str();
}

Status Tracer::ParseAppend(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return Corruption("malformed trace line: " + line);
    }
    Record(std::stoull(line.substr(0, tab)),
           std::stoull(line.substr(tab + 1)));
  }
  return OkStatus();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.ForEach([](ThreadBuffer& buf) { buf.events.clear(); });
  archive_.clear();
  // Derived state must reset with the archive: the lazy indexes would
  // otherwise keep serving pre-Clear results until the next Record, and the
  // stats (which also seed event indexes) would keep counting.
  by_guid_.clear();
  by_address_.clear();
  index_dirty_ = true;
  stats_.records = 0;
  stats_.buffer_flushes = 0;
}

}  // namespace arthas
