#include "obs/resource/resource_accountant.h"

#include <unistd.h>

#include <cstdio>
#include <utility>
#include <dirent.h>

namespace arthas {
namespace obs {

JsonValue ResourceCellSnapshot::ToJson() const {
  JsonValue cell = JsonValue::Object();
  cell.Set("name", JsonValue(name));
  cell.Set("unit", JsonValue(unit));
  cell.Set("value", JsonValue(value));
  cell.Set("budget", JsonValue(budget));
  return cell;
}

ResourceAccountant& ResourceAccountant::Global() {
  // Leaked so cells outlive static-destruction order (same lifetime
  // contract as MetricsRegistry::Global()).
  static ResourceAccountant* instance = new ResourceAccountant();
  return *instance;
}

ResourceSource& ResourceSource::operator=(ResourceSource&& other) noexcept {
  if (this != &other) {
    Reset();
    accountant_ = other.accountant_;
    id_ = other.id_;
    other.accountant_ = nullptr;
  }
  return *this;
}

void ResourceSource::Reset() {
  if (accountant_ != nullptr) {
    accountant_->Unregister(id_);
    accountant_ = nullptr;
  }
}

ResourceAccountant::Cell& ResourceAccountant::CellLocked(
    const std::string& name, const std::string& unit) {
  auto it = cells_.find(name);
  if (it == cells_.end()) {
    it = cells_.emplace(name, Cell{unit, 0, {}}).first;
  }
  return it->second;
}

int64_t ResourceAccountant::ValueLocked(const Cell& cell) const {
  if (!enabled()) {
    return 0;
  }
  int64_t sum = 0;
  for (const auto& [id, read] : cell.sources) {
    sum += read();
  }
  return sum;
}

ResourceSource ResourceAccountant::Register(const std::string& name,
                                            const std::string& unit,
                                            std::function<int64_t()> read) {
  std::lock_guard<std::mutex> guard(mutex_);
  const uint64_t id = next_source_id_++;
  CellLocked(name, unit).sources.emplace_back(id, std::move(read));
  return ResourceSource(this, id);
}

void ResourceAccountant::Unregister(uint64_t id) {
  std::lock_guard<std::mutex> guard(mutex_);
  for (auto& [name, cell] : cells_) {
    auto& sources = cell.sources;
    for (auto it = sources.begin(); it != sources.end(); ++it) {
      if (it->first == id) {
        std::swap(*it, sources.back());
        sources.pop_back();
        return;
      }
    }
  }
}

int64_t ResourceAccountant::Value(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = cells_.find(name);
  return it == cells_.end() ? 0 : ValueLocked(it->second);
}

bool ResourceAccountant::Has(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  return cells_.find(name) != cells_.end();
}

void ResourceAccountant::SetBudget(const std::string& name, int64_t budget,
                                   const std::string& unit) {
  std::lock_guard<std::mutex> guard(mutex_);
  CellLocked(name, unit).budget = budget;
}

std::vector<ResourceCellSnapshot> ResourceAccountant::Snapshot(
    bool include_process) const {
  std::vector<ResourceCellSnapshot> out;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    out.reserve(cells_.size() + 2);
    for (const auto& [name, cell] : cells_) {
      ResourceCellSnapshot snap;
      snap.name = name;
      snap.unit = cell.unit;
      snap.value = ValueLocked(cell);
      snap.budget = cell.budget;
      out.push_back(std::move(snap));
    }
  }
  if (include_process) {
    ResourceCellSnapshot rss;
    rss.name = "process.rss.bytes";
    rss.unit = "bytes";
    rss.value = ProcessRssBytes();
    out.push_back(std::move(rss));
    ResourceCellSnapshot fds;
    fds.name = "process.open.fds";
    fds.unit = "fds";
    fds.value = ProcessOpenFds();
    out.push_back(std::move(fds));
  }
  return out;
}

JsonValue ResourceAccountant::SnapshotJson() const {
  JsonValue cells = JsonValue::Array();
  for (const ResourceCellSnapshot& snap : Snapshot()) {
    cells.Append(snap.ToJson());
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("enabled", JsonValue(enabled()));
  doc.Set("cells", std::move(cells));
  return doc;
}

std::vector<ProbeId> ResourceAccountant::RegisterSamplerProbes(
    TelemetrySampler& sampler) {
  // Names first, probes after: the sampler lock is taken outside ours.
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    names.reserve(cells_.size());
    for (const auto& [name, cell] : cells_) {
      names.push_back(name);
    }
  }
  std::vector<ProbeId> ids;
  ids.reserve(names.size() + 2);
  for (const std::string& name : names) {
    ids.push_back(sampler.RegisterProbe(
        "resource." + name, ProbeKind::kGauge,
        [this, name] { return static_cast<double>(Value(name)); }));
  }
  ids.push_back(sampler.RegisterProbe(
      "process.rss.bytes", ProbeKind::kGauge,
      [] { return static_cast<double>(ProcessRssBytes()); }));
  ids.push_back(sampler.RegisterProbe(
      "process.open.fds", ProbeKind::kGauge,
      [] { return static_cast<double>(ProcessOpenFds()); }));
  return ids;
}

void ResourceAccountant::UnregisterSamplerProbes(
    TelemetrySampler& sampler, const std::vector<ProbeId>& ids) {
  for (const ProbeId id : ids) {
    if (id != kNoProbe) {
      sampler.UnregisterProbe(id);
    }
  }
}

int64_t ResourceAccountant::ProcessRssBytes() {
  // /proc/self/statm field 2 is resident pages.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return -1;
  }
  long long vm_pages = 0;
  long long rss_pages = 0;
  const int matched = std::fscanf(f, "%lld %lld", &vm_pages, &rss_pages);
  std::fclose(f);
  if (matched != 2) {
    return -1;
  }
  return static_cast<int64_t>(rss_pages) *
         static_cast<int64_t>(::sysconf(_SC_PAGESIZE));
}

int64_t ResourceAccountant::ProcessOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) {
    return -1;
  }
  int64_t count = 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') {
      count++;
    }
  }
  ::closedir(dir);
  // The opendir itself holds one descriptor; don't count it.
  return count > 0 ? count - 1 : count;
}

}  // namespace obs
}  // namespace arthas
