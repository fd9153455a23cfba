// Byte-exact resource accounting: the capacity half of the observability
// stack. Metrics gauges answer "what is the value right now as last
// reported"; ResourceAccountant cells answer "how many bytes does this
// subsystem *hold*".
//
// One rule for every cell: a cell's value is the sum of the read functions
// registered on it by the objects that hold the bytes (PayloadArena,
// CheckpointLog, PmemPool, FaseSubstrate, NetServer). Each owner already
// keeps its own exact count; it registers a function reading that count
// when it is built and the returned ResourceSource unregisters it when the
// owner dies, so a cell is the process-wide total over live owners and a
// destroyed owner's bytes leave with it. The functions run only when the
// accountant is read — Snapshot, Value, the CAPACITY wire command and the
// sampler probes — so no request path does accountant work, and the
// registration is the same code in the ARTHAS_OBS_DISABLED build.
//
// A cell with no live source reads 0 (a budget-only cell from SetBudget is
// one). Cells are never removed once named, so a snapshot keeps listing a
// cell after its last owner is gone.
//
// Lock order: TelemetrySampler lock -> accountant mutex -> at most one
// owner lock (today only FaseSubstrate::log_mutex_, taken by its
// log_tail() source; every other source reads relaxed atomics). Owners
// must never register or unregister while holding a lock a source takes.
// (The TSan CI job runs with detect_deadlocks=0, so this order is checked
// by review, not by the tool.)
//
// The accountant feeds the rest of the capacity plane: RegisterSamplerProbes
// publishes every cell as a `resource.<cell>` gauge series on the
// TelemetrySampler (plus `process.rss.bytes` / `process.open.fds` from
// /proc/self), which is what GrowthAnalyzer fits slopes over and what the
// CAPACITY wire command reports.

#ifndef ARTHAS_OBS_RESOURCE_RESOURCE_ACCOUNTANT_H_
#define ARTHAS_OBS_RESOURCE_RESOURCE_ACCOUNTANT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/timeseries.h"

namespace arthas {
namespace obs {

class ResourceAccountant;

// One registered read function. Move-only; destroying (or Reset()ting)
// the handle removes the function from its cell, and once that returns the
// function is never called again.
class ResourceSource {
 public:
  ResourceSource() = default;
  ResourceSource(ResourceSource&& other) noexcept { *this = std::move(other); }
  ResourceSource& operator=(ResourceSource&& other) noexcept;
  ~ResourceSource() { Reset(); }

  void Reset();

 private:
  friend class ResourceAccountant;
  ResourceSource(ResourceAccountant* accountant, uint64_t id)
      : accountant_(accountant), id_(id) {}

  ResourceAccountant* accountant_ = nullptr;
  uint64_t id_ = 0;
};

struct ResourceCellSnapshot {
  std::string name;
  std::string unit;  // "bytes" | "count" | "fds"
  int64_t value = 0;
  int64_t budget = 0;  // 0 = none declared

  JsonValue ToJson() const;
};

class ResourceAccountant {
 public:
  ResourceAccountant() = default;
  ResourceAccountant(const ResourceAccountant&) = delete;
  ResourceAccountant& operator=(const ResourceAccountant&) = delete;

  // The process-wide accountant the owners register with.
  static ResourceAccountant& Global();

  // Adds `read` to the cell `name` (created on first use; the first
  // creation's unit wins). Call without holding any lock `read` takes.
  [[nodiscard]] ResourceSource Register(const std::string& name,
                                        const std::string& unit,
                                        std::function<int64_t()> read);

  // Sum over the cell's live sources; 0 for an unknown cell, a cell with
  // no source, or while disabled.
  int64_t Value(const std::string& name) const;
  bool Has(const std::string& name) const;

  // Declares (or clears, with 0) a byte budget the growth forecaster
  // measures time-to-exhaustion against; creates the cell if new.
  void SetBudget(const std::string& name, int64_t budget,
                 const std::string& unit = "bytes");

  // Publication switch (bench_overhead and bench_soak time on vs off).
  // While disabled no source is read and every cell reports 0.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // All cells, name order, plus synthetic point-in-time process cells
  // ("process.rss.bytes", "process.open.fds") read from /proc/self at
  // snapshot time when include_process is set.
  std::vector<ResourceCellSnapshot> Snapshot(bool include_process = true) const;
  JsonValue SnapshotJson() const;

  // Publishes one kGauge probe per existing cell onto `sampler`, named
  // "resource.<cell>" and reading Value(<cell>), plus "process.rss.bytes"
  // and "process.open.fds". Cells first named after this call are not
  // retroactively published — call it once the owners exist (bench_soak
  // does this after building its system). Pair with
  // UnregisterSamplerProbes before the sampler outlives interest.
  std::vector<ProbeId> RegisterSamplerProbes(TelemetrySampler& sampler);
  static void UnregisterSamplerProbes(TelemetrySampler& sampler,
                                      const std::vector<ProbeId>& ids);

  // Process-level probes from /proc/self (Linux); -1 if unreadable.
  static int64_t ProcessRssBytes();
  static int64_t ProcessOpenFds();

 private:
  friend class ResourceSource;

  struct Cell {
    std::string unit;
    int64_t budget = 0;
    // (source id, read function). A vector, not a node container: once a
    // cell has seen its usual number of owners, registering and
    // unregistering allocate nothing.
    std::vector<std::pair<uint64_t, std::function<int64_t()>>> sources;
  };

  Cell& CellLocked(const std::string& name, const std::string& unit);
  int64_t ValueLocked(const Cell& cell) const;
  void Unregister(uint64_t id);

  mutable std::mutex mutex_;
  std::map<std::string, Cell> cells_;
  uint64_t next_source_id_ = 1;
  std::atomic<bool> enabled_{true};
};

}  // namespace obs
}  // namespace arthas

#endif  // ARTHAS_OBS_RESOURCE_RESOURCE_ACCOUNTANT_H_
