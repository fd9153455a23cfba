// The Memcached store both serving workloads drive: a MemcachedMini with
// the arthas checkpoint substrate attached, its public counters, and the
// replay of a recorded persist stream through CheckpointLog::OnPersist.

#ifndef PERFBENCH_STORE_H_
#define PERFBENCH_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "checkpoint/checkpoint_log.h"
#include "common.h"
#include "pmem/device.h"
#include "substrate/substrate.h"
#include "systems/memcached_mini.h"

namespace perfbench {

// Counts from the program's public per-instance counters (PmemDeviceStats,
// PoolStats, CheckpointStats, TracerStats, SubstrateStats).
struct Counts {
  uint64_t persists = 0, lines = 0, drains = 0;
  uint64_t allocs = 0, frees = 0;
  uint64_t ckpt_records = 0, ckpt_bytes = 0;
  uint64_t trace_records = 0, sections = 0;

  bool operator==(const Counts&) const = default;
  Counts operator-(const Counts& o) const;
};

struct Store {
  std::unique_ptr<arthas::MemcachedMini> mc;
  std::unique_ptr<arthas::ConsistencySubstrate> substrate;

  // Builds the system and attaches the arthas substrate; `ok` is false when
  // the attach failed.
  explicit Store(const arthas::MemcachedMini::Options& options);
  ~Store();
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  bool ok() const { return substrate->attached(); }
  const arthas::CheckpointLog& log() const {
    return *substrate->checkpoint_log();
  }
  Counts Snapshot() const;
};

// Records every persist a device makes durable.
class PersistRecorder : public arthas::DurabilityObserver {
 public:
  void OnPersist(arthas::PmOffset offset, size_t size,
                 const void* data) override;
  size_t size() const { return persists_.size(); }

  // Mean CheckpointLog::OnPersist cost (ns) over a replay of the recorded
  // stream into a fresh log on a pool built with `options`; calls before
  // `first` run untimed, to rebuild the log state they led to.
  double ReplayAppendNs(const arthas::MemcachedMini::Options& options,
                        size_t first, SpanLog* spans) const;

 private:
  struct Persist {
    arthas::PmOffset offset;
    size_t size;
    size_t data_at;
  };
  std::vector<Persist> persists_;
  std::vector<uint8_t> bytes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STORE_H_
