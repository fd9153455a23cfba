// Differential cost-attribution report over two phase profiles.
//
// ROADMAP item 2 records the scalable hot-path rewrite at ~20% more
// single-thread cycles/op than the legacy structures. A single profile says
// where one variant's cycles go; this diff attributes the *gap between two
// variants* phase by phase — the legacy→new delta in exclusive cycles/op
// per phase, plus the unattributed remainder — and ranks phases by how much
// of the regression they own. That turns "84 cycles/op slower" into an
// ordered work list: the top row is where optimization effort pays first.
//
// The per-phase deltas plus the unattributed delta sum to the observed
// cycles/op gap *by construction* (both sides decompose their own measured
// cycles/op), so the report can never silently lose part of the regression.

#ifndef ARTHAS_OBS_PROFILE_DIFF_H_
#define ARTHAS_OBS_PROFILE_DIFF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/profiler.h"

namespace arthas {
namespace obs {

// One phase's share of the base→test gap.
struct ProfileDiffRow {
  ProfPhase phase = ProfPhase::kLockWait;
  double base_cycles_per_op = 0;
  double test_cycles_per_op = 0;
  double delta_cycles_per_op = 0;  // test - base; positive = test pays more
  uint64_t base_calls = 0;
  uint64_t test_calls = 0;
};

struct ProfileDiff {
  std::string base_name;
  std::string test_name;
  double base_cycles_per_op = 0;
  double test_cycles_per_op = 0;
  double gap_cycles_per_op = 0;  // test - base
  // Every phase, sorted by |delta_cycles_per_op| descending — the ranked
  // work list.
  std::vector<ProfileDiffRow> rows;
  // Cycles neither variant's instrumented phases attributed (test - base).
  double base_unattributed_cycles_per_op = 0;
  double test_unattributed_cycles_per_op = 0;
  double unattributed_delta_cycles_per_op = 0;

  // Sum of per-phase deltas plus the unattributed delta; equals
  // gap_cycles_per_op up to floating-point rounding.
  double attributed_gap_cycles_per_op() const;

  // Human-readable ranked table with a closing sum check line.
  std::string ToText() const;

  // The "diff" section of the profile artifact
  // (`bench/check_artifacts.py profile --require-diff` validates it).
  JsonValue ToJson() const;
};

// Attributes the base→test cycles/op gap. `base`/`test` are the snapshot
// deltas of two profiled runs over `*_ops` operations whose measured total
// costs were `*_cycles_per_op`.
ProfileDiff DiffProfiles(const std::string& base_name,
                         const ProfileSnapshot& base, uint64_t base_ops,
                         double base_cycles_per_op,
                         const std::string& test_name,
                         const ProfileSnapshot& test, uint64_t test_ops,
                         double test_cycles_per_op);

}  // namespace obs
}  // namespace arthas

#endif  // ARTHAS_OBS_PROFILE_DIFF_H_
