// fault_matrix: the paper's headline path, trigger -> detect -> confirm ->
// slice / search / revert -> re-execute -> verify, for faults f1-f12.
//
// Each cell is one FaultExperiment::Run() with Solution::kArthas, purge
// mode, the default ReactorConfig and consistency evaluation on. A pass
// runs the 12 cells; the run repeats passes for the measured seconds. The
// experiments run on a virtual clock and are single-threaded, so every
// pass must reproduce the first one's outcome exactly (recovery, attempts,
// virtual mitigation time, discarded updates); a mismatch fails the run.
//
// Setup brings up one instance of each of the five target systems and an
// Arthas reactor for each (static analysis + PDG), as a deployment does
// before it serves.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "faults/fault_ids.h"
#include "harness/artifacts.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "reactor/reactor.h"
#include "systems/cceh.h"
#include "systems/memcached_mini.h"
#include "systems/pelikan_mini.h"
#include "systems/pmemkv_mini.h"
#include "systems/redis_mini.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetups = 25;  // one setup takes a few ms
constexpr int kExpectedConsistent = 11;  // f7 is inconsistent under purge

struct Cell {
  bool recovered = false;
  bool consistent = false;
  int attempts = 0;
  arthas::VirtualTime mitigation_time = 0;
  uint64_t updates_total = 0;
  uint64_t updates_discarded = 0;
  double discarded_fraction = 0;
  int64_t static_ns = 0;
  int64_t pdg_ns = 0;
  int64_t wall_ns = 0;

  // The outcome that must repeat exactly for a seed (wall times excluded).
  bool SameOutcome(const Cell& o) const {
    return recovered == o.recovered && consistent == o.consistent &&
           attempts == o.attempts && mitigation_time == o.mitigation_time &&
           updates_total == o.updates_total &&
           updates_discarded == o.updates_discarded;
  }
};

double SetupOnce() {
  const int64_t t0 = NowNs();
  std::vector<std::unique_ptr<arthas::PmSystemBase>> systems;
  systems.push_back(std::make_unique<arthas::MemcachedMini>());
  systems.push_back(std::make_unique<arthas::RedisMini>());
  systems.push_back(std::make_unique<arthas::Cceh>());
  systems.push_back(std::make_unique<arthas::PelikanMini>());
  systems.push_back(std::make_unique<arthas::PmemkvMini>());
  std::vector<std::unique_ptr<arthas::Reactor>> reactors;
  for (const auto& system : systems) {
    reactors.push_back(std::make_unique<arthas::Reactor>(
        system->ir_model(), system->guid_registry()));
  }
  return NsToS(NowNs() - t0);
}

std::vector<Cell> RunPass(uint64_t seed, SpanLog* spans, uint64_t pass) {
  std::vector<Cell> cells;
  for (const arthas::FaultDescriptor& d : arthas::AllFaults()) {
    arthas::ExperimentConfig config;
    config.fault = d.id;
    config.solution = arthas::Solution::kArthas;
    config.seed = seed;
    config.evaluate_consistency = true;
    arthas::FaultExperiment experiment(config);
    const int64_t t0 = NowNs();
    arthas::ExperimentResult r;
    {
      ScopedSpan span(spans, "cell", pass * 100 + cells.size());
      r = experiment.Run();
    }
    Cell c;
    c.wall_ns = NowNs() - t0;
    c.recovered = r.recovered;
    c.consistent = r.recovered && r.consistent;
    c.attempts = r.attempts;
    c.mitigation_time = r.mitigation_time;
    c.updates_total = r.checkpoint_updates_total;
    c.updates_discarded = r.checkpoint_updates_discarded;
    c.discarded_fraction = r.discarded_fraction;
    if (experiment.reactor() != nullptr) {
      c.static_ns = experiment.reactor()->timings().static_analysis_ns;
      c.pdg_ns = experiment.reactor()->timings().pdg_ns;
    }
    cells.push_back(c);
  }
  arthas::ClearCellRecords();  // the harness keeps one record per cell
  return cells;
}

struct Window {
  std::vector<std::vector<Cell>> passes;
  int64_t wall_ns = 0;
  double passes_per_s() const { return passes.size() / NsToS(wall_ns); }
};

Window Measure(uint64_t seed, double seconds, SpanLog* spans,
               Result* result) {
  Window w;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  do {
    w.passes.push_back(RunPass(seed, spans, w.passes.size()));
    const std::vector<Cell>& pass = w.passes.back();
    int consistent = 0;
    for (size_t i = 0; i < pass.size(); i++) {
      const char* label = arthas::AllFaults()[i].label;
      result->Check(pass[i].recovered, std::string(label) + " not recovered");
      consistent += pass[i].consistent ? 1 : 0;
    }
    result->Check(consistent >= kExpectedConsistent,
                  std::to_string(consistent) + "/12 cells consistent");
  } while (NowNs() < deadline);
  w.wall_ns = NowNs() - start;
  return w;
}

// Every pass must reproduce `reference` exactly.
void CheckRepeats(const Window& w, const std::vector<Cell>& reference,
                  Result* result) {
  for (const auto& pass : w.passes) {
    for (size_t i = 0; i < pass.size(); i++) {
      if (!pass[i].SameOutcome(reference[i])) {
        result->Break(std::string("fault_matrix: ") +
                      arthas::AllFaults()[i].label +
                      " outcome did not repeat for the same seed");
      }
    }
  }
}

}  // namespace

void RunFaultMatrix(const Args& args, Result* result) {
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; i++) {
    setup_s.push_back(SetupOnce());
  }

  const Window base =
      Measure(args.seed, args.window_seconds(), nullptr, result);
  const std::vector<Cell>& reference = base.passes.front();
  CheckRepeats(base, reference, result);

  if (!args.trace) {
    // An op is one pass over the matrix. Per-cell times form 12 clusters
    // (one per fault), so their median jumps between neighbouring clusters
    // from run to run; a pass's time does not.
    std::vector<double> pass_us;
    for (const auto& pass : base.passes) {
      double ns = 0;
      for (const Cell& c : pass) ns += c.wall_ns;
      pass_us.push_back(NsToUs(ns));
    }
    const double samples = static_cast<double>(pass_us.size());
    result->Metric("setup_s", Median(setup_s), "s");
    result->Metric("ops_per_s", samples / NsToS(base.wall_ns), "1/s");
    result->Metric("p50_us", Quantile(pass_us, 0.50), "us");
    result->Metric("p99_us", Quantile(pass_us, 0.99), "us");
    result->Metric("latency_samples", samples, "count");
    result->Metric("success_rate", result->SuccessRate(), "fraction");
    result->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // --- Traced window: benchmark spans per cell; the reactor's and the
  // detector's own latency histograms, reset first, give the phases. ---
  SpanLog spans;
  arthas::obs::MetricsRegistry::Global().ResetAll();
  const Window traced =
      Measure(args.seed, args.window_seconds(), &spans, result);
  CheckRepeats(traced, reference, result);
  const arthas::obs::RegistrySnapshot reg =
      arthas::obs::MetricsRegistry::Global().Snapshot();
  const auto counter = [&](const char* name) {
    auto it = reg.counters.find(name);
    return it == reg.counters.end() ? 0.0 : static_cast<double>(it->second);
  };

  double cells = 0, wall = 0, static_ns = 0, pdg_ns = 0, attempts = 0,
         reverted = 0, virtual_us = 0, discarded = 0;
  std::vector<double> pass_s;
  for (const auto& pass : traced.passes) {
    double pass_ns = 0;
    for (const Cell& c : pass) {
      cells++;
      wall += c.wall_ns;
      pass_ns += c.wall_ns;
      static_ns += c.static_ns;
      pdg_ns += c.pdg_ns;
      attempts += c.attempts;
      reverted += c.updates_discarded;
      virtual_us += c.mitigation_time;
      discarded += c.discarded_fraction;
    }
    pass_s.push_back(NsToS(pass_ns));
  }
  int recovered = 0, consistent = 0;
  for (const Cell& c : reference) {
    recovered += c.recovered ? 1 : 0;
    consistent += c.consistent ? 1 : 0;
  }

  // Per-cell means (ns). The reactor's phases nest inside
  // reactor.mitigate; analysis (reactor construction) and detector
  // observations sit outside it; the harness's own time is the rest.
  const double mitigate = HistogramOf(reg, "reactor.mitigate.ns").sum / cells;
  const double slice = HistogramOf(reg, "reactor.slice.ns").sum / cells;
  const double search = HistogramOf(reg, "reactor.search.ns").sum / cells;
  const double revert = HistogramOf(reg, "reactor.revert.ns").sum / cells;
  const double reexec = HistogramOf(reg, "reactor.reexecute.ns").sum / cells;
  const auto observe = HistogramOf(reg, "detector.observe.ns");
  const double detector = observe.sum / cells;
  const double analysis = (static_ns + pdg_ns) / cells;
  const double cell_ns = wall / cells;
  const double reactor_self = mitigate - slice - search - revert - reexec;
  const double harness_self = cell_ns - mitigate - analysis - detector;
  const double self_sum = std::max(reactor_self, 0.0) + slice + search +
                          revert + reexec + analysis + detector +
                          std::max(harness_self, 0.0);

  result->Metric("detector.observe_us",
                 observe.count == 0 ? 0.0 : NsToUs(observe.sum) / observe.count,
                 "us");
  result->Metric("reactor.mitigate_ms", NsToMs(mitigate), "ms");
  result->Metric("reactor.search_ms", NsToMs(search), "ms");
  result->Metric("reactor.revert_ms", NsToMs(revert), "ms");
  result->Metric("reactor.reexecute_ms", NsToMs(reexec), "ms");
  result->Metric("reactor.slice_us", NsToUs(slice), "us");
  result->Metric("reactor.self_ms", NsToMs(reactor_self), "ms");
  result->Metric("reactor.candidates",
                 counter("reactor.candidates.count") / cells, "count");
  result->Metric("reactor.attempts", attempts / cells, "count");
  result->Metric("reactor.reverted_updates", reverted / cells, "count");
  result->Metric("analysis.static_us", NsToUs(static_ns / cells), "us");
  result->Metric("analysis.pdg_us", NsToUs(pdg_ns / cells), "us");
  result->Metric("harness.workload_s", NsToS(cell_ns - mitigate), "s");
  result->Metric("harness.self_us_per_op", NsToUs(harness_self), "us");
  result->Metric("recovery_s", Median(pass_s), "s");
  const double faults = static_cast<double>(reference.size());
  result->Metric("recovered_fraction", recovered / faults, "fraction");
  result->Metric("consistent_fraction", consistent / faults, "fraction");
  result->Metric("mitigation_virtual_s",
                 virtual_us / cells / arthas::kSecond, "virtual_s");
  result->Metric("discarded_fraction", discarded / cells, "fraction");
  result->Metric("closure.e2e_us_per_op", NsToUs(cell_ns), "us");
  result->Metric("closure.self_sum_share", self_sum / cell_ns, "fraction");
  result->Metric("trace.overhead_share",
                 1.0 - traced.passes_per_s() / base.passes_per_s(), "fraction");
  if (!args.span_file.empty() && !spans.Write(args.span_file)) {
    result->Break("could not write " + args.span_file);
  }
}

}  // namespace perfbench
