// Tests for the live telemetry plane (src/obs/timeseries): sampler ring
// semantics, start/stop idempotence, probe registration under concurrency
// (the TSan job runs this binary), marker scoping, the JSON export, and a
// golden TimelineAnalyzer scenario with known time-to-detect / recover.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/timeseries.h"

namespace arthas {
namespace {

using obs::JsonValue;
using obs::ProbeKind;
using obs::SamplerOptions;
using obs::SeriesSnapshot;
using obs::TelemetrySampler;
using obs::TimelineAnalyzer;
using obs::TimelineAnalyzerConfig;
using obs::TimelineMarker;
using obs::TimelinePoint;
using obs::TimelineReport;

TEST(TelemetrySamplerTest, RingWraparoundKeepsNewestN) {
  SamplerOptions options;
  options.ring_capacity = 8;
  TelemetrySampler sampler(options);
  double next = 0;
  sampler.RegisterProbe("t.series", ProbeKind::kGauge,
                        [&next] { return next; });
  for (int i = 1; i <= 20; i++) {
    next = i;
    sampler.SampleNow();
  }
  const std::vector<TimelinePoint> points = sampler.SeriesPoints("t.series");
  ASSERT_EQ(points.size(), 8u);
  // Oldest-first snapshot of the newest 8 of 20 samples: 13..20.
  for (size_t i = 0; i < points.size(); i++) {
    EXPECT_EQ(points[i].value, static_cast<double>(13 + i));
  }
  // Timestamps stay monotone across the wrap.
  for (size_t i = 1; i < points.size(); i++) {
    EXPECT_GE(points[i].t_ns, points[i - 1].t_ns);
  }
  const std::vector<SeriesSnapshot> all = sampler.Tail(8, "t.series");
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].total_points, 20u);
  EXPECT_EQ(all[0].kind, "probe");
}

TEST(TelemetrySamplerTest, StartStopIdempotence) {
  TelemetrySampler sampler;
  SamplerOptions options;
  options.interval_ns = 1 * 1000 * 1000;  // 1 ms
  sampler.Configure(options);

  EXPECT_FALSE(sampler.running());
  EXPECT_FALSE(sampler.Stop());  // stopping a stopped sampler is a no-op
  EXPECT_TRUE(sampler.Start());
  EXPECT_TRUE(sampler.running());
  EXPECT_FALSE(sampler.Start());  // starting a running sampler is a no-op
  EXPECT_TRUE(sampler.Stop());    // takes one final tick
  EXPECT_FALSE(sampler.running());
  EXPECT_FALSE(sampler.Stop());
  EXPECT_GE(sampler.samples_taken(), 1u);

  // A second start/stop cycle works (thread is reclaimed and relaunched).
  const uint64_t before = sampler.samples_taken();
  EXPECT_TRUE(sampler.Start());
  EXPECT_TRUE(sampler.Stop());
  EXPECT_GT(sampler.samples_taken(), before);
}

TEST(TelemetrySamplerTest, CounterProbeRecordsDeltas) {
  TelemetrySampler sampler;
  double cumulative = 10;
  sampler.RegisterProbe("t.ops", ProbeKind::kCounter,
                        [&cumulative] { return cumulative; });
  sampler.SampleNow();  // priming tick records 0, not the cumulative 10
  cumulative = 25;
  sampler.SampleNow();
  cumulative = 25;
  sampler.SampleNow();
  const std::vector<TimelinePoint> points = sampler.SeriesPoints("t.ops");
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].value, 0.0);
  EXPECT_EQ(points[1].value, 15.0);
  EXPECT_EQ(points[2].value, 0.0);
}

TEST(TelemetrySamplerTest, RegistryCountersScrapedAsDeltas) {
#ifdef ARTHAS_OBS_DISABLED
  GTEST_SKIP() << "instrumentation macros are compiled out in this build";
#endif
  TelemetrySampler sampler;  // every sampler scrapes the global registry
  ARTHAS_COUNTER_ADD("ts_test.scrape.count", 5);
  sampler.SampleNow();  // priming tick: baseline captured, zero deltas
  ARTHAS_COUNTER_ADD("ts_test.scrape.count", 7);
  sampler.SampleNow();
  const std::vector<TimelinePoint> points =
      sampler.SeriesPoints("ts_test.scrape.count");
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].value, 0.0);
  EXPECT_EQ(points[1].value, 7.0);
}

TEST(TelemetrySamplerTest, ResetDropsSeriesButKeepsProbes) {
  TelemetrySampler sampler;
  double cumulative = 100;
  sampler.RegisterProbe("t.ops", ProbeKind::kCounter,
                        [&cumulative] { return cumulative; });
  sampler.SampleNow();
  sampler.SampleNow();
  ASSERT_EQ(sampler.SeriesPoints("t.ops").size(), 2u);

  sampler.Reset();
  EXPECT_TRUE(sampler.SeriesPoints("t.ops").empty());
  EXPECT_TRUE(sampler.Markers().empty());
  EXPECT_EQ(sampler.samples_taken(), 0u);

  // The probe survived the reset, and its delta baseline restarted: the
  // first post-reset tick is a priming tick again.
  cumulative = 250;
  sampler.SampleNow();
  const std::vector<TimelinePoint> points = sampler.SeriesPoints("t.ops");
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].value, 0.0);
}

TEST(TelemetrySamplerTest, MarkersOnlyRecordedWhileRunning) {
  TelemetrySampler sampler;
  sampler.Mark("before_start");  // dropped: not sampling yet
  ASSERT_TRUE(sampler.Start());
  sampler.Mark("during_run");
  ASSERT_TRUE(sampler.Stop());
  sampler.Mark("after_stop");  // dropped again
  const std::vector<TimelineMarker> markers = sampler.Markers();
  ASSERT_EQ(markers.size(), 1u);
  EXPECT_EQ(markers[0].name, "during_run");
  EXPECT_GT(markers[0].t_ns, 0);
}

TEST(TelemetrySamplerTest, UnregisterStopsProbeCalls) {
  TelemetrySampler sampler;
  int calls = 0;
  const obs::ProbeId id = sampler.RegisterProbe(
      "t.gone", ProbeKind::kGauge,
      [&calls] { return static_cast<double>(++calls); });
  sampler.SampleNow();
  EXPECT_EQ(calls, 1);
  sampler.UnregisterProbe(id);
  sampler.SampleNow();
  EXPECT_EQ(calls, 1);  // never called again
  // The series data survives the unregistration.
  EXPECT_EQ(sampler.SeriesPoints("t.gone").size(), 1u);
  // Unregistering kNoProbe (the disabled-macro value) is a safe no-op.
  sampler.UnregisterProbe(obs::kNoProbe);
}

TEST(TelemetrySamplerTest, TailFiltersByPrefixAndCount) {
  TelemetrySampler sampler;
  double v = 0;
  sampler.RegisterProbe("driver.live.ops", ProbeKind::kGauge,
                        [&v] { return v; });
  sampler.RegisterProbe("harness.op.count", ProbeKind::kGauge,
                        [&v] { return v; });
  for (int i = 0; i < 10; i++) {
    v = i;
    sampler.SampleNow();
  }
  const std::vector<SeriesSnapshot> tail = sampler.Tail(3, "driver.");
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].name, "driver.live.ops");
  ASSERT_EQ(tail[0].points.size(), 3u);
  EXPECT_EQ(tail[0].points.back().value, 9.0);
  EXPECT_EQ(sampler.Tail(3, "harness.op.").size(), 1u);
  EXPECT_GE(sampler.Tail(3, "").size(), 2u);  // plus any registry series
}

TEST(TelemetrySamplerTest, ConcurrentProbeRegistrationWhileSampling) {
  // 4 threads register/unregister probes and stamp markers while the
  // background tick thread samples at a tight interval. The TSan CI job
  // runs this binary: the test's assertion is mostly "no race, no crash".
  TelemetrySampler sampler;
  SamplerOptions options;
  options.interval_ns = 50 * 1000;  // 50 us
  sampler.Configure(options);
  ASSERT_TRUE(sampler.Start());

  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::atomic<uint64_t> evaluations{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&sampler, &evaluations, t] {
      for (int round = 0; round < kRounds; round++) {
        const std::string name =
            "t" + std::to_string(t) + ".r" + std::to_string(round % 5);
        const obs::ProbeId id = sampler.RegisterProbe(
            name, round % 2 == 0 ? ProbeKind::kGauge : ProbeKind::kCounter,
            [&evaluations] {
              return static_cast<double>(
                  evaluations.fetch_add(1, std::memory_order_relaxed));
            });
        sampler.Mark(name);
        sampler.SampleNow();
        sampler.UnregisterProbe(id);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  ASSERT_TRUE(sampler.Stop());
  // Every thread's synchronous tick ran, so at least kThreads * kRounds
  // samples happened (plus whatever the background thread managed).
  EXPECT_GE(sampler.samples_taken(),
            static_cast<uint64_t>(kThreads * kRounds));
  EXPECT_GT(evaluations.load(), 0u);
  EXPECT_EQ(sampler.Markers().size(),
            static_cast<size_t>(kThreads * kRounds));
}

TEST(TelemetrySamplerTest, ExportJsonSchema) {
  TelemetrySampler sampler;
  double v = 0;
  sampler.RegisterProbe("t.series", ProbeKind::kGauge, [&v] { return v; });
  ASSERT_TRUE(sampler.Start());
  sampler.Mark("fault_injected");
  ASSERT_TRUE(sampler.Stop());

  const JsonValue doc = sampler.ExportJson();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.Get("schema_version")->AsInt(), 1);
  EXPECT_GE(doc.Get("samples")->AsInt(), 1);
  EXPECT_GT(doc.Get("start_ns")->AsInt(), 0);
  const JsonValue* series = doc.Get("series");
  ASSERT_NE(series, nullptr);
  ASSERT_TRUE(series->is_array());
  // The registry series the sampler also scraped sit beside the probe's.
  const JsonValue* probe = nullptr;
  for (const JsonValue& item : series->items()) {
    if (item.Get("name")->AsString() == "t.series") {
      probe = &item;
    }
  }
  ASSERT_NE(probe, nullptr);
  const JsonValue& s = *probe;
  EXPECT_EQ(s.Get("kind")->AsString(), "probe");
  ASSERT_TRUE(s.Get("points")->is_array());
  ASSERT_GE(s.Get("points")->size(), 1u);
  EXPECT_TRUE(s.Get("points")->items()[0].Has("t_ns"));
  EXPECT_TRUE(s.Get("points")->items()[0].Has("v"));
  const JsonValue* markers = doc.Get("markers");
  ASSERT_NE(markers, nullptr);
  ASSERT_EQ(markers->size(), 1u);
  EXPECT_EQ(markers->items()[0].Get("name")->AsString(), "fault_injected");

  // The full artifact adds the analysis block; round-trips through the
  // parser.
  const JsonValue artifact = obs::TimelineArtifactJson(sampler);
  auto reparsed = JsonValue::Parse(artifact.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_NE(reparsed->Get("analysis"), nullptr);
  EXPECT_TRUE(reparsed->Get("analysis")->Get("has_fault")->is_bool());
}

// --- TimelineAnalyzer golden scenario ---------------------------------------

// Synthetic per-tick throughput: 100 ops/ms for 10 ms, a fault at 10.2 ms,
// five ticks of total collapse, detection at 12 ms, reversion at 15 ms,
// then full throughput again from 16 ms on.
TEST(TelemetrySamplerTest, DownsamplingKeepsWholeRunWindow) {
  // Soak-length runs opt into downsample_on_full: instead of dropping the
  // oldest points (losing the run's start — exactly what a growth fit
  // needs), a full ring halves its resolution and keeps the whole window.
  SamplerOptions options;
  options.ring_capacity = 64;
  options.downsample_on_full = true;
  TelemetrySampler sampler(options);

  std::atomic<uint64_t> cumulative{0};
  sampler.RegisterProbe("ds.ops", ProbeKind::kCounter, [&cumulative] {
    return static_cast<double>(cumulative.load());
  });
  std::atomic<uint64_t> level{0};
  sampler.RegisterProbe("ds.level", ProbeKind::kGauge, [&level] {
    return static_cast<double>(level.load());
  });

  const int kTicks = 1000;
  int64_t t_after_100 = 0;
  for (int i = 0; i < kTicks; i++) {
    cumulative.fetch_add(1);
    level.store(static_cast<uint64_t>(i));
    sampler.SampleNow();
    if (i == 99) {
      t_after_100 = NowNanos();
    }
  }

  const std::vector<TimelinePoint> ops = sampler.SeriesPoints("ds.ops");
  ASSERT_FALSE(ops.empty());
  EXPECT_LE(ops.size(), 64u);
  EXPECT_GE(ops.size(), 16u);  // halving, not wholesale dropping

  // The window still starts near the run's start (drop-oldest would have
  // kept only the newest 64 of 1000 ticks).
  EXPECT_LE(ops.front().t_ns, t_after_100);
  for (size_t i = 1; i < ops.size(); i++) {
    EXPECT_LT(ops[i - 1].t_ns, ops[i].t_ns);
  }

  // Counter mass is conserved across merges: each stored point is the sum
  // of the raw deltas it stands for. The first tick primes the probe
  // (delta 0) and up to one stride of pushes may still be pending.
  double mass = 0;
  for (const TimelinePoint& p : ops) {
    mass += p.value;
  }
  EXPECT_LE(mass, kTicks - 1);
  EXPECT_GE(mass, kTicks - 1 - 64);

  // Gauges keep the later observation instead of summing: every stored
  // value is one that was actually set, never an accumulated total.
  const std::vector<TimelinePoint> gauge = sampler.SeriesPoints("ds.level");
  ASSERT_FALSE(gauge.empty());
  EXPECT_LE(gauge.size(), 64u);
  for (const TimelinePoint& p : gauge) {
    EXPECT_LE(p.value, kTicks - 1);
  }
  EXPECT_GE(gauge.back().value, kTicks - 1 - 64);
}

TEST(TimelineAnalyzerTest, GoldenRecoveryScenario) {
  std::vector<TimelinePoint> throughput;
  for (int i = 0; i <= 25; i++) {
    double delta = 0;
    if (i >= 1 && i <= 10) {
      delta = 100;
    } else if (i >= 16) {
      delta = 100;
    }
    throughput.push_back(TimelinePoint{i * 1'000'000, delta});
  }
  const std::vector<TimelineMarker> markers = {
      {"fault_injected", 10'200'000},
      {"detector_fired", 12'000'000},
      {"reversion_done", 15'000'000},
  };

  const TimelineReport report =
      TimelineAnalyzer().Analyze(throughput, markers);
  EXPECT_TRUE(report.has_fault);
  EXPECT_EQ(report.fault_injected_ns, 10'200'000);
  EXPECT_EQ(report.detector_fired_ns, 12'000'000);
  EXPECT_EQ(report.reversion_done_ns, 15'000'000);
  EXPECT_EQ(report.time_to_detect_ns, 1'800'000);
  // 100 ops per 1 ms tick = 100k ops/s.
  EXPECT_DOUBLE_EQ(report.pre_fault_rate_ops_per_sec, 100'000.0);
  // Collapse at the first zero tick after the fault (t = 11 ms), floor in
  // the collapsed window, recovery at the first of >= 3 sustained ticks at
  // >= 90% of the pre-fault rate (t = 16 ms).
  EXPECT_EQ(report.throughput_collapse_ns, 11'000'000);
  EXPECT_DOUBLE_EQ(report.floor_rate_ops_per_sec, 0.0);
  EXPECT_EQ(report.throughput_recovered_ns, 16'000'000);
  EXPECT_EQ(report.time_to_recover_ns, 5'800'000);

  // The JSON report serializes present fields as numbers.
  const JsonValue json = report.ToJson();
  EXPECT_EQ(json.Get("time_to_detect_ns")->AsInt(), 1'800'000);
  EXPECT_EQ(json.Get("time_to_recover_ns")->AsInt(), 5'800'000);
}

TEST(TimelineAnalyzerTest, HealthyWindowBetweenInjectionAndCollapse) {
  // The fault is injected at 10.2 ms but throughput stays HEALTHY until
  // 14 ms (latent fault). The recovery search must not mistake the healthy
  // 11-14 ms ticks for "recovered" — recovery only counts after a collapse.
  std::vector<TimelinePoint> throughput;
  for (int i = 0; i <= 30; i++) {
    double delta = 100;
    if (i == 0) {
      delta = 0;
    } else if (i >= 14 && i <= 20) {
      delta = 0;  // the latent fault finally manifests
    }
    throughput.push_back(TimelinePoint{i * 1'000'000, delta});
  }
  const std::vector<TimelineMarker> markers = {
      {"fault_injected", 10'200'000}};

  const TimelineReport report =
      TimelineAnalyzer().Analyze(throughput, markers);
  EXPECT_EQ(report.throughput_collapse_ns, 14'000'000);
  EXPECT_EQ(report.throughput_recovered_ns, 21'000'000);
  EXPECT_EQ(report.time_to_recover_ns, 21'000'000 - 10'200'000);
  // No detection marker in this timeline: null, not garbage.
  EXPECT_EQ(report.time_to_detect_ns, -1);
  EXPECT_TRUE(report.ToJson().Get("time_to_detect_ns")->is_null());
}

TEST(TimelineAnalyzerTest, NoFaultMeansNoMetrics) {
  std::vector<TimelinePoint> throughput;
  for (int i = 0; i <= 10; i++) {
    throughput.push_back(TimelinePoint{i * 1'000'000, 100});
  }
  const TimelineReport report = TimelineAnalyzer().Analyze(throughput, {});
  EXPECT_FALSE(report.has_fault);
  EXPECT_EQ(report.time_to_detect_ns, -1);
  EXPECT_EQ(report.time_to_recover_ns, -1);
  const JsonValue json = report.ToJson();
  EXPECT_TRUE(json.Get("fault_injected_ns")->is_null());
  EXPECT_TRUE(json.Get("time_to_recover_ns")->is_null());
}

TEST(TimelineAnalyzerTest, NeverRecoversLeavesRecoveryNull) {
  std::vector<TimelinePoint> throughput;
  for (int i = 0; i <= 20; i++) {
    throughput.push_back(
        TimelinePoint{i * 1'000'000, i >= 1 && i <= 10 ? 100.0 : 0.0});
  }
  const std::vector<TimelineMarker> markers = {
      {"fault_injected", 10'200'000}};
  const TimelineReport report =
      TimelineAnalyzer().Analyze(throughput, markers);
  EXPECT_TRUE(report.has_fault);
  EXPECT_EQ(report.throughput_collapse_ns, 11'000'000);
  EXPECT_DOUBLE_EQ(report.floor_rate_ops_per_sec, 0.0);
  EXPECT_EQ(report.throughput_recovered_ns, -1);
  EXPECT_EQ(report.time_to_recover_ns, -1);
}

}  // namespace
}  // namespace arthas
