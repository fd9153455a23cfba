// Cycle-level cost-attribution profiler for the persist→checkpoint hot path.
//
// BENCH_hotpath.json says the scalable rewrite costs ~20% more single-thread
// cycles/op than the legacy structures, but nothing could say *where* those
// cycles go — flush vs drain vs index vs arena vs bookkeeping. This profiler
// answers that with per-thread rdtsc accumulators over a fixed phase enum:
// every instrumented region is a ScopedPhase, a small nesting stack gives
// each phase *exclusive* cycles (a parent's time never double-counts its
// children), and a per-thread folded-path table records where nested time
// was spent for flamegraph tooling.
//
// Design constraints, in order:
//   * the measuring path is lock-free: each thread owns a private
//     accumulator block (single-writer; counters are relaxed atomics so a
//     concurrent Snapshot merge is race-free), and entering a scope while
//     the profiler is runtime-disabled costs one relaxed load and a branch,
//   * attribution is exact within a thread: exclusive(parent) =
//     inclusive(parent) - sum(inclusive(children)), computed from the same
//     CycleCount() reads, so per-thread exclusive totals sum exactly to the
//     outermost inclusive time,
//   * recursion does not inflate inclusive time: a phase active inside
//     itself adds its cycles to the outermost activation only,
//   * everything compiles out under ARTHAS_OBS_DISABLED via the
//     ARTHAS_PROFILE macro (same per-TU discipline as obs/obs.h); the
//     classes themselves stay linkable either way.
//
// The profiler is runtime-disabled by default: benches that want attribution
// (bench_hotpath --profile-json) enable it around their measured loops, and
// bench_overhead --recorder-overhead gates the enabled-state overhead
// against `profiler.max_on_off_ratio` in bench/perf_baseline.json.
//
// The observer effect is real: one enabled scope costs two CycleCount()
// reads plus ~a dozen arithmetic ops, so a profiled bench_hotpath run is
// slower than a bare one. Within one profiled run the attribution is still
// honest — every phase pays the same per-call tax, and call counts are
// reported so a reader can discount it. Differential reports
// (obs/profile_diff.h) compare two *profiled* runs, where the per-call tax
// largely cancels for phases with matching call counts.

#ifndef ARTHAS_OBS_PROFILER_H_
#define ARTHAS_OBS_PROFILER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/thread_registry.h"
#include "obs/json.h"

namespace arthas {
namespace obs {

// The fixed phase taxonomy of the durability hot path. One enumerator per
// cost bucket of DESIGN.md §4d's table; instrumentation sites pick the
// bucket, never invent names, so two runs are always comparable phase by
// phase and the JSON schema can demand full enum coverage.
enum class ProfPhase : uint8_t {
  kLockWait = 0,  // device stripes, checkpoint shard, pool mutex, request locks
  kIndexLookup,   // checkpoint flat-hash probe / insert / rehash
  kArenaCopy,     // payload arena data+undo copies (and extent growth)
  kFlush,         // FlushLines staging and MakeDurable's media copy (clwb)
  kDrain,         // Drain's bitmap scan/claim (sfence)
  kBookkeeping,   // seq allocation, seq/version ring upkeep, tx undo log
  kObsHook,       // flight recorder, metric counters, telemetry hooks
};
inline constexpr size_t kNumProfPhases = 7;

const char* ProfPhaseName(ProfPhase phase);

// Merged per-phase totals. `exclusive` excludes time spent in nested
// instrumented phases; `inclusive` counts a phase's outermost activations
// wall-to-wall (so exclusive <= inclusive always).
struct PhaseTotals {
  uint64_t exclusive_cycles = 0;
  uint64_t inclusive_cycles = 0;
  uint64_t calls = 0;
};

// A point-in-time merge of every thread's accumulators. Two snapshots
// subtract (SnapshotDelta) so a bench can attribute exactly its measured
// loop without resetting global state.
struct ProfileSnapshot {
  std::array<PhaseTotals, kNumProfPhases> phases{};
  // Folded call paths ("lock_wait;flush") -> exclusive cycles spent at that
  // exact nesting, flamegraph-ready via FoldedStacks().
  std::map<std::string, uint64_t> folded;
  // Frames not attributed because the nesting stack or a thread's path
  // table overflowed (deep recursion; never on the shipped hot path).
  uint64_t skipped_frames = 0;

  uint64_t total_exclusive_cycles() const;
  uint64_t total_calls() const;
};

// later - earlier, phase-wise and path-wise (phases absent from `earlier`
// pass through).
ProfileSnapshot SnapshotDelta(const ProfileSnapshot& later,
                              const ProfileSnapshot& earlier);

class PhaseProfiler {
 public:
  // Maximum instrumented nesting depth. 8 levels pack into the 64-bit
  // folded-path key (8 bits per level); the real hot path nests 3-4 deep.
  static constexpr size_t kMaxDepth = 8;
  // Per-thread folded-path table slots (open addressing). The distinct
  // path count is bounded by the instrumentation sites, far below this.
  static constexpr size_t kPathSlots = 256;

  PhaseProfiler() = default;

  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  // The process-wide profiler the ARTHAS_PROFILE macro reports into.
  // Never destroyed.
  static PhaseProfiler& Global();

  // Runtime switch (relaxed load on every scope entry). Disabled scopes
  // record nothing; enable/disable is idempotent and safe mid-scope — a
  // scope entered while enabled completes its measurement, one entered
  // while disabled stays silent.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Merged view across all threads. Safe against concurrent scopes (the
  // counters are relaxed atomics) but a racing scope may or may not be
  // included; prefer quiesced or delta-based use.
  ProfileSnapshot Snapshot() const;

  // Zeroes every thread's accumulators. Quiesce-time only.
  void Reset();

  // --- Scope mechanics (called by ScopedPhase) -----------------------------

  struct ThreadState {
    struct Frame {
      ProfPhase phase;
      uint64_t start_cycles;
      uint64_t child_cycles;
    };
    struct PathSlot {
      std::atomic<uint64_t> path{0};
      std::atomic<uint64_t> cycles{0};
    };

    // Single-writer counters; relaxed atomics only so Snapshot's concurrent
    // read is race-free (no CAS, no contention on the hot path).
    std::array<std::atomic<uint64_t>, kNumProfPhases> exclusive{};
    std::array<std::atomic<uint64_t>, kNumProfPhases> inclusive{};
    std::array<std::atomic<uint64_t>, kNumProfPhases> calls{};
    std::atomic<uint64_t> skipped{0};
    std::array<PathSlot, kPathSlots> paths{};
    // Owner-thread-only nesting state.
    Frame stack[kMaxDepth];
    uint32_t depth = 0;
    uint32_t overflow = 0;  // frames pushed past kMaxDepth (paired in Pop)
    std::array<uint32_t, kNumProfPhases> active{};  // recursion depth/phase
    uint64_t packed_path = 0;  // 8 bits per level, root in the top used byte

    void Push(ProfPhase phase);
    void Pop();

   private:
    void AddPath(uint64_t path, uint64_t cycles);
  };

  // This thread's accumulator block, registered on first use.
  ThreadState* LocalState();

 private:
  std::atomic<bool> enabled_{false};
  ThreadRegistry<ThreadState> states_;
};

// RAII instrumented region. Captures the profiler's enabled state at entry;
// a disabled construction is one relaxed load + branch and records nothing.
class ScopedPhase {
 public:
  explicit ScopedPhase(ProfPhase phase)
      : ScopedPhase(PhaseProfiler::Global(), phase) {}
  ScopedPhase(PhaseProfiler& profiler, ProfPhase phase) {
    if (!profiler.enabled()) {
      return;
    }
    state_ = profiler.LocalState();
    state_->Push(phase);
  }
  ~ScopedPhase() {
    if (state_ != nullptr) {
      state_->Pop();
    }
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseProfiler::ThreadState* state_ = nullptr;
};

// --- Exporters ---------------------------------------------------------------

// Per-variant JSON: name, cycles/op, phases[] with exclusive/inclusive
// cycles, calls, and per-op / ns derivations (via CyclesPerNanosecond()),
// plus the unattributed per-op remainder (cycles_per_op minus the summed
// exclusive phases). Pass ops = 0 when no per-op normalization applies
// (per-op fields are then omitted).
JsonValue ProfileVariantJson(const std::string& name,
                             const ProfileSnapshot& snapshot, uint64_t ops,
                             double cycles_per_op);

// Assembles the schema-versioned profile artifact
// (`bench/check_artifacts.py profile` validates it): {"schema_version": 1,
// "cycles_per_ns": ..., "variants": [...]}. Callers may Set() extra
// sections (e.g. "diff") on the returned object.
JsonValue ProfileDocumentJson(std::vector<JsonValue> variants);

// Folded-stack lines ("prefix;lock_wait;flush 12345\n"), one per recorded
// path, consumable by flamegraph.pl / inferno / speedscope.
std::string FoldedStacks(const ProfileSnapshot& snapshot,
                         const std::string& prefix);

}  // namespace obs
}  // namespace arthas

// Instrumentation macro: times the rest of the enclosing scope under the
// given phase (unqualified enumerator name, e.g. ARTHAS_PROFILE(kFlush)).
// Compiles to nothing under ARTHAS_OBS_DISABLED, same per-TU discipline as
// the metric macros in obs/obs.h.
#define ARTHAS_PROF_CONCAT_INNER(a, b) a##b
#define ARTHAS_PROF_CONCAT(a, b) ARTHAS_PROF_CONCAT_INNER(a, b)

#ifndef ARTHAS_OBS_DISABLED
#define ARTHAS_PROFILE(phase)                                    \
  ::arthas::obs::ScopedPhase ARTHAS_PROF_CONCAT(_arthas_prof_,   \
                                                __LINE__)(       \
      ::arthas::obs::ProfPhase::phase)
#else
#define ARTHAS_PROFILE(phase) \
  do {                        \
  } while (0)
#endif

#endif  // ARTHAS_OBS_PROFILER_H_
