#include "store.h"

namespace perfbench {

Counts Counts::operator-(const Counts& o) const {
  return {persists - o.persists,         lines - o.lines,
          drains - o.drains,             allocs - o.allocs,
          frees - o.frees,               ckpt_records - o.ckpt_records,
          ckpt_bytes - o.ckpt_bytes,     trace_records - o.trace_records,
          sections - o.sections};
}

Store::Store(const arthas::MemcachedMini::Options& options)
    : mc(std::make_unique<arthas::MemcachedMini>(options)),
      substrate(
          arthas::MakeSubstrate(arthas::SubstrateKind::kArthasCheckpoint)) {
  if (substrate->Attach(mc->pool()).ok()) {
    mc->set_substrate(substrate.get());
  }
}

Store::~Store() {
  mc->set_substrate(nullptr);
  substrate->Detach();
  substrate.reset();  // the log observes the pool: drop it first
}

Counts Store::Snapshot() const {
  Counts c;
  const auto& dev = mc->pool().device().stats();
  c.persists = dev.persists;
  c.lines = dev.flushed_lines;
  c.drains = dev.drains;
  c.allocs = mc->pool().stats().allocs;
  c.frees = mc->pool().stats().frees;
  c.ckpt_records = log().stats().records;
  c.ckpt_bytes = log().stats().bytes_copied;
  c.trace_records = mc->tracer().stats().records;
  c.sections = substrate->Stats().sections_begun;
  return c;
}

void PersistRecorder::OnPersist(arthas::PmOffset offset, size_t size,
                                const void* data) {
  persists_.push_back({offset, size, bytes_.size()});
  const auto* p = static_cast<const uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

double PersistRecorder::ReplayAppendNs(
    const arthas::MemcachedMini::Options& options, size_t first,
    SpanLog* spans) const {
  arthas::MemcachedMini host(options);
  arthas::CheckpointLog log(host.pool());
  for (size_t i = 0; i < first && i < persists_.size(); i++) {
    const Persist& p = persists_[i];
    log.OnPersist(p.offset, p.size, bytes_.data() + p.data_at);
  }
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(spans, "checkpoint.on_persist_replay", 0);
    for (size_t i = first; i < persists_.size(); i++) {
      const Persist& p = persists_[i];
      log.OnPersist(p.offset, p.size, bytes_.data() + p.data_at);
    }
  }
  const int64_t elapsed = NowNs() - t0;
  return first >= persists_.size()
             ? 0.0
             : static_cast<double>(elapsed) / (persists_.size() - first);
}

}  // namespace perfbench
