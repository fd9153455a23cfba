// Tests for the observability subsystem (src/obs): metric semantics,
// histogram percentile accuracy, span nesting, the JSON round trip of both
// artifacts, and the end-to-end acceptance path — one experiment cell run
// through the artifact writer must yield the paper's headline metrics.

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "harness/artifacts.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/span.h"

namespace arthas {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::JsonValue;
using obs::MetricsRegistry;
using obs::SpanEvent;
using obs::SpanTracer;

TEST(CounterTest, Semantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, Semantics) {
  Gauge g;
  g.Set(100);
  EXPECT_EQ(g.value(), 100);
  g.Add(-150);
  EXPECT_EQ(g.value(), -50);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(HistogramTest, ExactSmallValues) {
  Histogram h;
  for (uint64_t v = 0; v < 16; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_EQ(h.sum(), 120u);
}

TEST(HistogramTest, PercentilesOnKnownDistribution) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; v++) {
    h.Record(v);
  }
  // 16 linear sub-buckets per octave bound relative error by 1/16.
  EXPECT_NEAR(h.Percentile(0.5), 500.0, 500.0 * 0.0625);
  EXPECT_NEAR(h.Percentile(0.9), 900.0, 900.0 * 0.0625);
  EXPECT_NEAR(h.Percentile(0.99), 990.0, 990.0 * 0.0625);
  // p100 clamps to the exact recorded max.
  EXPECT_EQ(h.Percentile(1.0), 1000.0);
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_NEAR(snap.mean, 500.5, 0.01);
}

TEST(HistogramTest, MergeAddsBucketwise) {
  Histogram a;
  Histogram b;
  for (uint64_t v = 1; v <= 500; v++) {
    a.Record(v);
  }
  for (uint64_t v = 501; v <= 1000; v++) {
    b.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 1000u);
  EXPECT_NEAR(a.Percentile(0.5), 500.0, 500.0 * 0.125);
}

TEST(HistogramTest, EmptyAndEdgeQuantiles) {
  Histogram h;
  // Empty histogram: every quantile (including the edges) answers 0
  // explicitly — no assert, no division by the zero count.
  EXPECT_EQ(h.Percentile(0.0), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.Percentile(1.0), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Snapshot().count, 0u);

  // Empty snapshot: the tail quantiles are present and zero too.
  EXPECT_EQ(h.Snapshot().p99, 0.0);
  EXPECT_EQ(h.Snapshot().p999, 0.0);

  // Single sample: every quantile is exactly that sample (the in-bucket
  // interpolation clamps to the recorded max).
  h.Record(77);
  EXPECT_EQ(h.Percentile(0.0), 77.0);
  EXPECT_EQ(h.Percentile(0.5), 77.0);
  EXPECT_EQ(h.Percentile(1.0), 77.0);
  // With one sample the whole snapshot tail collapses onto it, and the
  // quantiles stay ordered: p50 <= p95 <= p99 <= p999 <= max.
  const obs::HistogramSnapshot one = h.Snapshot();
  EXPECT_EQ(one.p99, 77.0);
  EXPECT_EQ(one.p999, 77.0);
  EXPECT_LE(one.p50, one.p95);
  EXPECT_LE(one.p95, one.p99);
  EXPECT_LE(one.p99, one.p999);
  EXPECT_LE(one.p999, static_cast<double>(one.max));

  // Out-of-range q clamps to the edges instead of misbehaving.
  EXPECT_EQ(h.Percentile(-1.0), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(2.0), h.Percentile(1.0));
}

TEST(HistogramTest, TailQuantilesSeparateOnSkewedDistribution) {
  // 1000 fast samples and 5 slow outliers: p99 must sit in the fast mass's
  // neighbourhood while p999 climbs into the outlier band — the distinction
  // the open-loop latency curves report per sweep point.
  Histogram h;
  for (int i = 0; i < 1000; i++) {
    h.Record(100);
  }
  for (int i = 0; i < 5; i++) {
    h.Record(100000);
  }
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_NEAR(snap.p50, 100.0, 100.0 * 0.125);
  EXPECT_NEAR(snap.p99, 100.0, 100.0 * 0.125);
  EXPECT_GT(snap.p999, 10000.0);
  EXPECT_LE(snap.p999, static_cast<double>(snap.max));
  EXPECT_EQ(snap.max, 100000u);
  EXPECT_LE(snap.p50, snap.p95);
  EXPECT_LE(snap.p95, snap.p99);
  EXPECT_LE(snap.p99, snap.p999);
}

TEST(HistogramTest, P999ResolutionWithinSubBucketBound) {
  // The regression this pins: with whole-octave buckets p999 on a uniform
  // 1..100000 distribution was off by up to 12.5%; 16 sub-buckets per
  // octave bound every quantile's relative error by 1/16 = 6.25%.
  Histogram h;
  for (uint64_t v = 1; v <= 100000; v++) {
    h.Record(v);
  }
  EXPECT_NEAR(h.Percentile(0.999), 99900.0, 99900.0 * 0.0625);
  EXPECT_NEAR(h.Percentile(0.9999), 99990.0, 99990.0 * 0.0625);
  // The top quantile clamps to the exact recorded max even when the
  // containing bucket spans past it.
  EXPECT_EQ(h.Percentile(1.0), 100000.0);
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_NEAR(snap.p999, 99900.0, 99900.0 * 0.0625);
  EXPECT_LE(snap.p999, static_cast<double>(snap.max));
}

TEST(HistogramTest, TailExemplarsRetainLastWriter) {
  Histogram h;
  // Bulk mass without ids: no exemplar array is ever allocated for them.
  for (int i = 0; i < 1000; i++) {
    h.Record(100);
  }
  EXPECT_TRUE(h.TailExemplars(0.99).empty());

  // Two identified outliers land in the same bucket: last writer wins.
  h.RecordWithExemplar(100000, 41);
  h.RecordWithExemplar(100001, 42);
  h.RecordWithExemplar(900000, 77);
  const std::vector<obs::TailExemplar> tail = h.TailExemplars(0.99);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].exemplar, 42u);
  EXPECT_EQ(tail[0].count, 2u);
  EXPECT_LE(tail[0].bucket_lo, 100000u);
  EXPECT_GE(tail[0].bucket_hi, 100001u);
  EXPECT_EQ(tail[1].exemplar, 77u);

  // Exemplars survive Reset only as far as the data does: a reset
  // histogram reports no tail.
  h.Reset();
  EXPECT_TRUE(h.TailExemplars(0.99).empty());
}

TEST(HistogramTest, BucketIndexMonotonic) {
  size_t prev = 0;
  for (uint64_t v = 0; v < 100000; v += 7) {
    const size_t idx = Histogram::BucketIndex(v);
    EXPECT_GE(idx, prev);
    const auto [lo, hi] = Histogram::BucketBounds(idx);
    EXPECT_LE(lo, v);
    EXPECT_GE(hi, v);
    prev = idx;
  }
}

TEST(RegistryTest, FindOrCreateReturnsStableHandles) {
  MetricsRegistry registry;
  Counter& c1 = registry.GetCounter("x.count");
  Counter& c2 = registry.GetCounter("x.count");
  EXPECT_EQ(&c1, &c2);
  c1.Add(3);
  EXPECT_TRUE(registry.Has("x.count"));
  EXPECT_FALSE(registry.Has("y.count"));
  EXPECT_EQ(registry.Snapshot().counters.at("x.count"), 3u);
}

TEST(RegistryTest, SnapshotJsonRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("a.count").Add(7);
  registry.GetGauge("b.bytes").Set(-12);
  for (uint64_t v = 1; v <= 100; v++) {
    registry.GetHistogram("c.ns").Record(v * 10);
  }
  auto parsed = JsonValue::Parse(registry.SnapshotJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = *parsed;
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.Get("counters")->Get("a.count")->AsInt(), 7);
  EXPECT_EQ(root.Get("gauges")->Get("b.bytes")->AsInt(), -12);
  const JsonValue* hist = root.Get("histograms")->Get("c.ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Get("count")->AsInt(), 100);
  EXPECT_GT(hist->Get("p50")->AsDouble(), 0.0);
  EXPECT_GE(hist->Get("p99")->AsDouble(), hist->Get("p50")->AsDouble());
}

TEST(RegistryTest, CounterDeltas) {
  MetricsRegistry registry;
  registry.GetCounter("d.count").Add(5);
  const obs::RegistrySnapshot before = registry.Snapshot();
  registry.GetCounter("d.count").Add(10);
  registry.GetCounter("e.count").Add(2);
  const auto deltas = obs::CounterDeltas(before, registry.Snapshot());
  EXPECT_EQ(deltas.at("d.count"), 10u);
  EXPECT_EQ(deltas.at("e.count"), 2u);
}

TEST(SpanTest, NestingOrderAndDepth) {
  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  {
    obs::ScopedSpan outer("outer");
    {
      obs::ScopedSpan inner("inner");
      inner.AddAttr("k", std::string("v"));
    }
  }
  const std::vector<SpanEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded at close: inner first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].end_ns, events[1].end_ns);
  ASSERT_EQ(events[0].attrs.size(), 1u);
  EXPECT_EQ(events[0].attrs[0].first, "k");
}

TEST(SpanTest, ChromeJsonRoundTrip) {
#ifdef ARTHAS_OBS_DISABLED
  GTEST_SKIP() << "instrumentation macros are compiled out in this build";
#endif
  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  {
    ARTHAS_NAMED_SPAN(span, "phase.test");
    span.AddAttr("items", uint64_t{3});
  }
  auto parsed = JsonValue::Parse(tracer.ExportChromeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // One process_name row, one thread_name row for the recording thread,
  // then the span.
  ASSERT_EQ(events->size(), 3u);
  const JsonValue& process_meta = events->items()[0];
  EXPECT_EQ(process_meta.Get("name")->AsString(), "process_name");
  EXPECT_EQ(process_meta.Get("ph")->AsString(), "M");
  const JsonValue& meta = events->items()[1];
  EXPECT_EQ(meta.Get("name")->AsString(), "thread_name");
  EXPECT_EQ(meta.Get("ph")->AsString(), "M");
  ASSERT_NE(meta.Get("args"), nullptr);
  EXPECT_FALSE(meta.Get("args")->Get("name")->AsString().empty());
  const JsonValue& ev = events->items()[2];
  EXPECT_EQ(ev.Get("name")->AsString(), "phase.test");
  EXPECT_EQ(ev.Get("ph")->AsString(), "X");
  EXPECT_GT(ev.Get("dur")->AsDouble(), 0.0);
  EXPECT_EQ(ev.Get("args")->Get("items")->AsString(), "3");
  // The span's tid matches its metadata row's tid.
  EXPECT_EQ(ev.Get("tid")->AsDouble(), meta.Get("tid")->AsDouble());
}

TEST(SpanTest, ChromeMetadataRowsAreUnique) {
#ifdef ARTHAS_OBS_DISABLED
  GTEST_SKIP() << "instrumentation macros are compiled out in this build";
#endif
  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  std::thread t1([] { ARTHAS_NAMED_SPAN(span, "meta.t1"); });
  std::thread t2([] { ARTHAS_NAMED_SPAN(span, "meta.t2"); });
  t1.join();
  t2.join();
  { ARTHAS_NAMED_SPAN(span, "meta.main"); }

  auto parsed = JsonValue::Parse(tracer.ExportChromeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  int process_rows = 0;
  std::set<double> thread_meta_tids;
  std::set<double> event_tids;
  for (const JsonValue& ev : events->items()) {
    const std::string& name = ev.Get("name")->AsString();
    if (ev.Get("ph")->AsString() == "M") {
      if (name == "process_name") {
        process_rows++;
      } else if (name == "thread_name") {
        const double tid = ev.Get("tid")->AsDouble();
        // No duplicate thread_name rows for the same tid.
        EXPECT_TRUE(thread_meta_tids.insert(tid).second)
            << "duplicate thread_name row for tid " << tid;
      }
    } else {
      event_tids.insert(ev.Get("tid")->AsDouble());
    }
  }
  // process_name appears exactly once regardless of thread count.
  EXPECT_EQ(process_rows, 1);
  // Every labeled thread actually has events, and every event's thread is
  // labeled: threads with no recorded spans get no thread_name row.
  EXPECT_EQ(thread_meta_tids, event_tids);
  EXPECT_GE(event_tids.size(), 2u);  // at least the two worker threads
}

TEST(SpanTest, DisabledTracerRecordsNothing) {
  SpanTracer& tracer = SpanTracer::Global();
  tracer.Clear();
  tracer.set_enabled(false);
  {
    ARTHAS_NAMED_SPAN(span, "invisible");
  }
  tracer.set_enabled(true);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(ObsMacrosTest, RecordIntoGlobalRegistry) {
#ifdef ARTHAS_OBS_DISABLED
  GTEST_SKIP() << "instrumentation macros are compiled out in this build";
#endif
  MetricsRegistry& global = MetricsRegistry::Global();
  const uint64_t before =
      global.Has("obs_test.macro.count")
          ? global.Snapshot().counters.at("obs_test.macro.count")
          : 0;
  ARTHAS_COUNTER_ADD("obs_test.macro.count", 2);
  ARTHAS_GAUGE_SET("obs_test.macro.gauge", 9);
  ARTHAS_HISTOGRAM_RECORD("obs_test.macro.ns", 1234);
  { ARTHAS_SCOPED_LATENCY("obs_test.scoped.ns"); }
  const obs::RegistrySnapshot snap = global.Snapshot();
  EXPECT_EQ(snap.counters.at("obs_test.macro.count"), before + 2);
  EXPECT_EQ(snap.gauges.at("obs_test.macro.gauge"), 9);
  EXPECT_GE(snap.histograms.at("obs_test.macro.ns").count, 1u);
  EXPECT_GE(snap.histograms.at("obs_test.scoped.ns").count, 1u);
}

// End-to-end acceptance: run one experiment cell, write both artifacts
// through the writer the bench binaries use, and parse them back.
TEST(ArtifactsTest, ExperimentCellProducesAcceptanceMetrics) {
#ifdef ARTHAS_OBS_DISABLED
  GTEST_SKIP() << "instrumentation macros are compiled out in this build";
#endif
  ClearCellRecords();

  const ExperimentResult result =
      RunCell(FaultId::kF1RefcountOverflow, Solution::kArthas);
  EXPECT_TRUE(result.triggered);

  const std::string metrics_path = ::testing::TempDir() + "obs_metrics.json";
  const std::string trace_path = ::testing::TempDir() + "obs_trace.json";
  const char* argv[] = {"obs_test", "--metrics-json", metrics_path.c_str(),
                        "--trace-json", trace_path.c_str()};
  ObsArtifactWriter writer(5, const_cast<char**>(argv));
  ASSERT_TRUE(writer.WriteNow().ok());

  auto slurp = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      out.append(buf, n);
    }
    std::fclose(f);
    return out;
  };

  // --- Metrics artifact -----------------------------------------------------
  auto metrics = JsonValue::Parse(slurp(metrics_path));
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const JsonValue* counters = metrics->Get("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Get("pmem.flush.count"), nullptr);
  EXPECT_GT(counters->Get("pmem.flush.count")->AsInt(), 0);
  ASSERT_NE(counters->Get("pmem.media.bytes"), nullptr);
  EXPECT_GT(counters->Get("pmem.media.bytes")->AsInt(), 0);

  const JsonValue* histograms = metrics->Get("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* serialize = histograms->Get("checkpoint.serialize.ns");
  ASSERT_NE(serialize, nullptr);
  EXPECT_GT(serialize->Get("count")->AsInt(), 0);
  EXPECT_GT(serialize->Get("p50")->AsDouble(), 0.0);
  EXPECT_GE(serialize->Get("p99")->AsDouble(),
            serialize->Get("p50")->AsDouble());
  const JsonValue* revert = histograms->Get("reactor.revert.ns");
  ASSERT_NE(revert, nullptr);
  EXPECT_GT(revert->Get("count")->AsInt(), 0);

  // Per-cell records ride along in the metrics artifact.
  const JsonValue* cells = metrics->Get("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_GE(cells->size(), 1u);
  const JsonValue& cell = cells->items()[cells->size() - 1];
  EXPECT_EQ(cell.Get("fault")->AsString(), "f1");
  EXPECT_EQ(cell.Get("solution")->AsString(), "Arthas");
  EXPECT_TRUE(cell.Get("counter_deltas")->Has("pmem.persist.count"));

  // --- Chrome trace artifact ------------------------------------------------
  auto trace = JsonValue::Parse(slurp(trace_path));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const JsonValue* events = trace->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_cell = false;
  bool saw_revert = false;
  bool saw_slice = false;
  bool saw_thread_meta = false;
  for (const JsonValue& ev : events->items()) {
    const std::string& name = ev.Get("name")->AsString();
    const std::string& ph = ev.Get("ph")->AsString();
    if (ph == "M") {
      saw_thread_meta |= name == "thread_name";
      continue;
    }
    saw_cell |= name == "harness.cell";
    saw_revert |= name == "reactor.revert";
    saw_slice |= name == "reactor.slice";
    EXPECT_EQ(ph, "X");
  }
  EXPECT_TRUE(saw_cell);
  EXPECT_TRUE(saw_revert);
  EXPECT_TRUE(saw_slice);
  EXPECT_TRUE(saw_thread_meta);

  // The text summary renders without dying and mentions the histograms.
  const std::string summary = RenderMetricsSummary();
  EXPECT_NE(summary.find("checkpoint.serialize.ns"), std::string::npos);
}

// A loop of cells that clears between rounds must not accumulate spans:
// the global tracer only ever grows otherwise.
TEST(ArtifactsTest, ClearCellRecordsDropsTheCellsSpans) {
#ifdef ARTHAS_OBS_DISABLED
  GTEST_SKIP() << "spans are compiled out in this build";
#endif
  ClearCellRecords();
  RunCell(FaultId::kF1RefcountOverflow, Solution::kArthas);
  EXPECT_FALSE(CellRecords().empty());
  EXPECT_GT(obs::SpanTracer::Global().size(), 0u);
  ClearCellRecords();
  EXPECT_TRUE(CellRecords().empty());
  EXPECT_EQ(obs::SpanTracer::Global().size(), 0u);
}

}  // namespace
}  // namespace arthas
