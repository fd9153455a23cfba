#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>

namespace arthas {
namespace obs {

namespace {

// Mixes a packed path into a table index (same golden-ratio mix as the
// checkpoint index; the path's low byte is the leaf phase, so mixing
// matters).
size_t PathHash(uint64_t path) {
  const uint64_t h = path * 0x9E3779B97F4A7C15ULL;
  return static_cast<size_t>(h ^ (h >> 32));
}

// Decodes a packed path (root in the most significant used byte, each byte
// = phase index + 1) into "root;child;leaf".
std::string DecodePath(uint64_t path) {
  uint8_t bytes[PhaseProfiler::kMaxDepth];
  int n = 0;
  while (path != 0 && n < static_cast<int>(PhaseProfiler::kMaxDepth)) {
    bytes[n++] = static_cast<uint8_t>(path & 0xff);
    path >>= 8;
  }
  std::string out;
  for (int i = n - 1; i >= 0; i--) {  // root first
    if (!out.empty()) {
      out += ';';
    }
    out += ProfPhaseName(static_cast<ProfPhase>(bytes[i] - 1));
  }
  return out;
}

}  // namespace

const char* ProfPhaseName(ProfPhase phase) {
  switch (phase) {
    case ProfPhase::kLockWait:
      return "lock_wait";
    case ProfPhase::kIndexLookup:
      return "index_lookup";
    case ProfPhase::kArenaCopy:
      return "arena_copy";
    case ProfPhase::kFlush:
      return "flush";
    case ProfPhase::kDrain:
      return "drain";
    case ProfPhase::kBookkeeping:
      return "bookkeeping";
    case ProfPhase::kObsHook:
      return "obs_hook";
  }
  return "unknown";
}

uint64_t ProfileSnapshot::total_exclusive_cycles() const {
  uint64_t total = 0;
  for (const PhaseTotals& t : phases) {
    total += t.exclusive_cycles;
  }
  return total;
}

uint64_t ProfileSnapshot::total_calls() const {
  uint64_t total = 0;
  for (const PhaseTotals& t : phases) {
    total += t.calls;
  }
  return total;
}

ProfileSnapshot SnapshotDelta(const ProfileSnapshot& later,
                              const ProfileSnapshot& earlier) {
  ProfileSnapshot delta;
  for (size_t i = 0; i < kNumProfPhases; i++) {
    delta.phases[i].exclusive_cycles =
        later.phases[i].exclusive_cycles - earlier.phases[i].exclusive_cycles;
    delta.phases[i].inclusive_cycles =
        later.phases[i].inclusive_cycles - earlier.phases[i].inclusive_cycles;
    delta.phases[i].calls = later.phases[i].calls - earlier.phases[i].calls;
  }
  delta.skipped_frames = later.skipped_frames - earlier.skipped_frames;
  for (const auto& [path, cycles] : later.folded) {
    auto it = earlier.folded.find(path);
    const uint64_t before = it == earlier.folded.end() ? 0 : it->second;
    if (cycles > before) {
      delta.folded[path] = cycles - before;
    }
  }
  return delta;
}

void PhaseProfiler::ThreadState::Push(ProfPhase phase) {
  if (depth >= kMaxDepth) {
    overflow++;
    skipped.store(skipped.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    return;
  }
  Frame& frame = stack[depth++];
  frame.phase = phase;
  frame.child_cycles = 0;
  active[static_cast<size_t>(phase)]++;
  packed_path = (packed_path << 8) | (static_cast<uint64_t>(phase) + 1);
  // Read the TSC last so the push bookkeeping above is not charged to the
  // phase being entered.
  frame.start_cycles = CycleCount();
}

void PhaseProfiler::ThreadState::Pop() {
  // Read the TSC first, symmetrically: the pop bookkeeping below is charged
  // to the *parent* phase (it is the cost of having instrumented the child).
  const uint64_t now = CycleCount();
  if (overflow > 0) {
    overflow--;
    return;
  }
  Frame& frame = stack[--depth];
  const uint64_t total = now - frame.start_cycles;
  const uint64_t child = std::min(frame.child_cycles, total);
  const size_t i = static_cast<size_t>(frame.phase);
  exclusive[i].store(exclusive[i].load(std::memory_order_relaxed) +
                         (total - child),
                     std::memory_order_relaxed);
  calls[i].store(calls[i].load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  // Recursion rule: only the outermost activation of a phase adds its
  // wall-to-wall time, so inclusive never multi-counts self-nesting and
  // the exclusive <= inclusive invariant holds per phase.
  active[i]--;
  if (active[i] == 0) {
    inclusive[i].store(inclusive[i].load(std::memory_order_relaxed) + total,
                       std::memory_order_relaxed);
  }
  AddPath(packed_path, total - child);
  packed_path >>= 8;
  if (depth > 0) {
    stack[depth - 1].child_cycles += total;
  }
}

void PhaseProfiler::ThreadState::AddPath(uint64_t path, uint64_t cycles) {
  const size_t mask = kPathSlots - 1;
  size_t i = PathHash(path) & mask;
  for (size_t probes = 0; probes < kPathSlots; probes++, i = (i + 1) & mask) {
    uint64_t existing = paths[i].path.load(std::memory_order_relaxed);
    if (existing == 0) {
      // Single-writer table: claim the slot with a plain store (only this
      // thread inserts; Snapshot readers tolerate a mid-claim miss).
      paths[i].path.store(path, std::memory_order_relaxed);
      existing = path;
    }
    if (existing == path) {
      paths[i].cycles.store(
          paths[i].cycles.load(std::memory_order_relaxed) + cycles,
          std::memory_order_relaxed);
      return;
    }
  }
  skipped.store(skipped.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

PhaseProfiler& PhaseProfiler::Global() {
  // Leaked intentionally: instrumented scopes may run during static
  // destruction of other objects.
  static PhaseProfiler* global = new PhaseProfiler();
  return *global;
}

PhaseProfiler::ThreadState* PhaseProfiler::LocalState() {
  return states_.Local();
}

ProfileSnapshot PhaseProfiler::Snapshot() const {
  ProfileSnapshot merged;
  states_.ForEach([&merged](const ThreadState& state) {
    for (size_t i = 0; i < kNumProfPhases; i++) {
      merged.phases[i].exclusive_cycles +=
          state.exclusive[i].load(std::memory_order_relaxed);
      merged.phases[i].inclusive_cycles +=
          state.inclusive[i].load(std::memory_order_relaxed);
      merged.phases[i].calls += state.calls[i].load(std::memory_order_relaxed);
    }
    merged.skipped_frames += state.skipped.load(std::memory_order_relaxed);
    for (const ThreadState::PathSlot& slot : state.paths) {
      const uint64_t path = slot.path.load(std::memory_order_relaxed);
      if (path != 0) {
        merged.folded[DecodePath(path)] +=
            slot.cycles.load(std::memory_order_relaxed);
      }
    }
  });
  return merged;
}

void PhaseProfiler::Reset() {
  states_.ForEach([](ThreadState& state) {
    for (size_t i = 0; i < kNumProfPhases; i++) {
      state.exclusive[i].store(0, std::memory_order_relaxed);
      state.inclusive[i].store(0, std::memory_order_relaxed);
      state.calls[i].store(0, std::memory_order_relaxed);
    }
    state.skipped.store(0, std::memory_order_relaxed);
    for (ThreadState::PathSlot& slot : state.paths) {
      slot.path.store(0, std::memory_order_relaxed);
      slot.cycles.store(0, std::memory_order_relaxed);
    }
  });
}

JsonValue ProfileVariantJson(const std::string& name,
                             const ProfileSnapshot& snapshot, uint64_t ops,
                             double cycles_per_op) {
  const double cpn = CyclesPerNanosecond();
  JsonValue variant = JsonValue::Object();
  variant.Set("name", JsonValue(name));
  variant.Set("ops", JsonValue(ops));
  variant.Set("cycles_per_op", JsonValue(cycles_per_op));
  JsonValue phases = JsonValue::Array();
  for (size_t i = 0; i < kNumProfPhases; i++) {
    const PhaseTotals& t = snapshot.phases[i];
    JsonValue phase = JsonValue::Object();
    phase.Set("name", JsonValue(ProfPhaseName(static_cast<ProfPhase>(i))));
    phase.Set("exclusive_cycles", JsonValue(t.exclusive_cycles));
    phase.Set("inclusive_cycles", JsonValue(t.inclusive_cycles));
    phase.Set("calls", JsonValue(t.calls));
    if (ops > 0) {
      const double excl_per_op =
          static_cast<double>(t.exclusive_cycles) / static_cast<double>(ops);
      phase.Set("exclusive_cycles_per_op", JsonValue(excl_per_op));
      phase.Set("exclusive_ns_per_op", JsonValue(excl_per_op / cpn));
      phase.Set("calls_per_op", JsonValue(static_cast<double>(t.calls) /
                                          static_cast<double>(ops)));
    }
    phases.Append(std::move(phase));
  }
  variant.Set("phases", std::move(phases));
  if (ops > 0) {
    const double attributed =
        static_cast<double>(snapshot.total_exclusive_cycles()) /
        static_cast<double>(ops);
    variant.Set("attributed_cycles_per_op", JsonValue(attributed));
    variant.Set("unattributed_cycles_per_op",
                JsonValue(cycles_per_op - attributed));
  }
  variant.Set("skipped_frames", JsonValue(snapshot.skipped_frames));
  return variant;
}

JsonValue ProfileDocumentJson(std::vector<JsonValue> variants) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version", JsonValue(int64_t{1}));
  doc.Set("cycles_per_ns", JsonValue(CyclesPerNanosecond()));
  JsonValue array = JsonValue::Array();
  for (JsonValue& v : variants) {
    array.Append(std::move(v));
  }
  doc.Set("variants", std::move(array));
  return doc;
}

std::string FoldedStacks(const ProfileSnapshot& snapshot,
                         const std::string& prefix) {
  std::string out;
  for (const auto& [path, cycles] : snapshot.folded) {
    if (cycles == 0) {
      continue;
    }
    if (!prefix.empty()) {
      out += prefix;
      out += ';';
    }
    out += path;
    char tail[32];
    std::snprintf(tail, sizeof(tail), " %llu\n",
                  static_cast<unsigned long long>(cycles));
    out += tail;
  }
  return out;
}

}  // namespace obs
}  // namespace arthas
