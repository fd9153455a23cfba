// Tests for the capacity plane (src/obs/resource): cells summed over their
// owners' registered sources, the PayloadArena round-trip guarantee
// (Store/Release returns the cells to their starting values), snapshots
// racing owners and multi-threaded churn (the TSan job runs this binary),
// growth-trend classification, SLO burn-rate tracking with synthetic
// clocks, and the Histogram::CountAbove primitive the SLO math rests on.

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "checkpoint/checkpoint_log.h"
#include "obs/metrics.h"
#include "obs/resource/growth_analyzer.h"
#include "obs/resource/resource_accountant.h"
#include "obs/resource/slo_tracker.h"
#include "obs/timeseries.h"
#include "pmem/pool.h"
#include "substrate/fase_substrate.h"

namespace arthas {
namespace {

using obs::GrowthAnalyzer;
using obs::GrowthClass;
using obs::GrowthConfig;
using obs::GrowthVerdict;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::ProbeKind;
using obs::ResourceAccountant;
using obs::ResourceCellSnapshot;
using obs::ResourceSource;
using obs::SloTarget;
using obs::SloTracker;
using obs::TelemetrySampler;
using obs::TimelinePoint;

int64_t CellValue(const std::string& name) {
  return ResourceAccountant::Global().Value(name);
}

TEST(ResourceAccountantTest, CellSumsItsLiveSources) {
  ResourceAccountant& accountant = ResourceAccountant::Global();
  EXPECT_FALSE(accountant.Has("test.cell.alpha"));
  std::atomic<int64_t> a{100};
  std::atomic<int64_t> b{28};
  ResourceSource first = accountant.Register(
      "test.cell.alpha", "bytes", [&a] { return a.load(); });
  EXPECT_TRUE(accountant.Has("test.cell.alpha"));
  EXPECT_EQ(accountant.Value("test.cell.alpha"), 100);
  {
    ResourceSource second = accountant.Register(
        "test.cell.alpha", "count", [&b] { return b.load(); });
    EXPECT_EQ(accountant.Value("test.cell.alpha"), 128);
    b.store(4000);  // read when the accountant is read, not pushed
    EXPECT_EQ(accountant.Value("test.cell.alpha"), 4100);
  }
  // A destroyed source's bytes leave the cell.
  EXPECT_EQ(accountant.Value("test.cell.alpha"), 100);

  // Moving the handle moves the registration; resetting the moved-from
  // handle is a no-op.
  ResourceSource moved = std::move(first);
  first.Reset();
  EXPECT_EQ(accountant.Value("test.cell.alpha"), 100);

  accountant.SetBudget("test.cell.alpha", 1 << 20);
  bool found = false;
  for (const ResourceCellSnapshot& snap : accountant.Snapshot()) {
    if (snap.name == "test.cell.alpha") {
      found = true;
      EXPECT_EQ(snap.unit, "bytes");  // the first registration's unit
      EXPECT_EQ(snap.value, 100);
      EXPECT_EQ(snap.budget, 1 << 20);
    }
  }
  EXPECT_TRUE(found);

  // A cell with no source reads 0 and keeps its name.
  moved.Reset();
  EXPECT_EQ(accountant.Value("test.cell.alpha"), 0);
  EXPECT_TRUE(accountant.Has("test.cell.alpha"));
  accountant.SetBudget("test.cell.budget.only", 4096);
  EXPECT_TRUE(accountant.Has("test.cell.budget.only"));
  EXPECT_EQ(accountant.Value("test.cell.budget.only"), 0);
  EXPECT_EQ(accountant.Value("test.cell.never-created"), 0);
  EXPECT_FALSE(accountant.Has("test.cell.never-created"));
}

TEST(ResourceAccountantTest, DisabledAccountantReadsNoSource) {
  ResourceAccountant& accountant = ResourceAccountant::Global();
  std::atomic<int> reads{0};
  ResourceSource source =
      accountant.Register("test.cell.toggle", "bytes", [&reads] {
        reads.fetch_add(1);
        return int64_t{7};
      });
  accountant.set_enabled(false);
  EXPECT_EQ(accountant.Value("test.cell.toggle"), 0);
  bool found = false;
  for (const ResourceCellSnapshot& snap : accountant.Snapshot(false)) {
    if (snap.name == "test.cell.toggle") {
      found = true;
      EXPECT_EQ(snap.value, 0);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(accountant.SnapshotJson().Get("enabled")->AsBool(), false);
  EXPECT_EQ(reads.load(), 0);  // publication off: no source ran

  accountant.set_enabled(true);
  EXPECT_EQ(accountant.Value("test.cell.toggle"), 7);
  EXPECT_EQ(reads.load(), 1);
}

TEST(ResourceAccountantTest, ProcessProbesReadProcSelf) {
  // Any live Linux process has resident memory and at least stdio open.
  EXPECT_GT(ResourceAccountant::ProcessRssBytes(), 0);
  EXPECT_GT(ResourceAccountant::ProcessOpenFds(), 0);

  const auto snapshot = ResourceAccountant::Global().Snapshot();
  ASSERT_GE(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[snapshot.size() - 2].name, "process.rss.bytes");
  EXPECT_EQ(snapshot.back().name, "process.open.fds");
  EXPECT_GT(snapshot.back().value, 0);
}

TEST(ResourceAccountantTest, SamplerProbesPublishResourceSeries) {
  ResourceAccountant& accountant = ResourceAccountant::Global();
  std::atomic<int64_t> level{12345};
  ResourceSource source = accountant.Register(
      "test.cell.probed", "bytes", [&level] { return level.load(); });

  TelemetrySampler sampler;  // never started, ticked by hand
  const auto ids = accountant.RegisterSamplerProbes(sampler);
  ASSERT_GE(ids.size(), 3u);  // the cells plus the two process probes
  sampler.SampleNow();
  level.store(23456);
  sampler.SampleNow();

  const auto cell = sampler.SeriesPoints("resource.test.cell.probed");
  ASSERT_EQ(cell.size(), 2u);
  EXPECT_EQ(cell[0].value, 12345);
  EXPECT_EQ(cell[1].value, 23456);  // each tick reads the source
  const auto rss = sampler.SeriesPoints("process.rss.bytes");
  ASSERT_FALSE(rss.empty());
  EXPECT_GT(rss.back().value, 0);
  ResourceAccountant::UnregisterSamplerProbes(sampler, ids);
}

// --- PayloadArena accounting --------------------------------------------

TEST(PayloadArenaAccountingTest, StoreReleaseRoundTripReturnsCells) {
  const int64_t chunk0 = CellValue("checkpoint.arena.bytes");
  const int64_t live0 = CellValue("checkpoint.arena.live.bytes");
  const int64_t free0 = CellValue("checkpoint.arena.freelist.bytes");

  PayloadArena arena;
  std::vector<uint8_t> payload(100, 0xAB);
  std::vector<PayloadRef> refs;
  size_t footprint = 0;
  for (int i = 0; i < 64; i++) {
    refs.push_back(arena.Store(payload.data(), payload.size()));
    footprint += 128;  // 100 bytes lands in the 128-byte size class
  }
  EXPECT_EQ(arena.live_bytes(), footprint);
  EXPECT_EQ(CellValue("checkpoint.arena.live.bytes"),
            live0 + static_cast<int64_t>(footprint));
  EXPECT_GE(CellValue("checkpoint.arena.bytes"), chunk0 + 64 * 1024);

  for (const PayloadRef& ref : refs) {
    arena.Release(ref);
  }
  // The release moved every span live -> freelist, byte for byte.
  EXPECT_EQ(arena.live_bytes(), 0u);
  EXPECT_EQ(arena.freelist_bytes(), footprint);
  EXPECT_EQ(CellValue("checkpoint.arena.live.bytes"), live0);
  EXPECT_EQ(CellValue("checkpoint.arena.freelist.bytes"),
            free0 + static_cast<int64_t>(footprint));

  // Recycling: the next Store reuses a freelist span, no new chunk.
  const int64_t chunks_before = CellValue("checkpoint.arena.bytes");
  PayloadRef again = arena.Store(payload.data(), payload.size());
  EXPECT_EQ(CellValue("checkpoint.arena.bytes"), chunks_before);
  EXPECT_EQ(arena.freelist_bytes(), footprint - 128);
  arena.Release(again);

  arena.Clear();
  // Clear drops every chunk, and the arena's share of the cells with it.
  EXPECT_EQ(CellValue("checkpoint.arena.bytes"), chunk0);
  EXPECT_EQ(CellValue("checkpoint.arena.live.bytes"), live0);
  EXPECT_EQ(CellValue("checkpoint.arena.freelist.bytes"), free0);
}

TEST(PayloadArenaAccountingTest, DestroyedArenaLeavesTheCells) {
  const int64_t chunk0 = CellValue("checkpoint.arena.bytes");
  const int64_t live0 = CellValue("checkpoint.arena.live.bytes");
  {
    PayloadArena arena;
    std::vector<uint8_t> payload(1000, 0x55);
    (void)arena.Store(payload.data(), payload.size());
    EXPECT_GT(CellValue("checkpoint.arena.live.bytes"), live0);
  }
  EXPECT_EQ(CellValue("checkpoint.arena.bytes"), chunk0);
  EXPECT_EQ(CellValue("checkpoint.arena.live.bytes"), live0);
}

TEST(PayloadArenaAccountingTest, LargeSpansAccountExactBytes) {
  const int64_t live0 = CellValue("checkpoint.arena.live.bytes");
  PayloadArena arena;
  // 100 KB exceeds the largest size class; footprint is the exact size.
  std::vector<uint8_t> big(100 * 1024, 0x77);
  (void)arena.Store(big.data(), big.size());
  EXPECT_EQ(CellValue("checkpoint.arena.live.bytes"),
            live0 + static_cast<int64_t>(big.size()));
  arena.Clear();
  EXPECT_EQ(CellValue("checkpoint.arena.live.bytes"), live0);
}

TEST(PayloadArenaAccountingTest, FourThreadChurnBalancesToZero) {
  const int64_t chunk0 = CellValue("checkpoint.arena.bytes");
  const int64_t live0 = CellValue("checkpoint.arena.live.bytes");
  const int64_t free0 = CellValue("checkpoint.arena.freelist.bytes");

  // Private arenas (CheckpointLog shards own theirs the same way), shared
  // global cells: each arena's source reads its own counters.
  auto churn = [] {
    PayloadArena arena;
    std::vector<uint8_t> payload(200, 0x42);
    for (int round = 0; round < 200; round++) {
      std::vector<PayloadRef> refs;
      for (int i = 0; i < 16; i++) {
        refs.push_back(arena.Store(payload.data(), payload.size()));
      }
      for (const PayloadRef& ref : refs) {
        arena.Release(ref);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; i++) {
    threads.emplace_back(churn);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(CellValue("checkpoint.arena.bytes"), chunk0);
  EXPECT_EQ(CellValue("checkpoint.arena.live.bytes"), live0);
  EXPECT_EQ(CellValue("checkpoint.arena.freelist.bytes"), free0);
}

// --- Capacity cells published by their owners ---------------------------

// Every cell is the sum of its live owners' own counts; the baselines
// cover owners other tests in this binary may still hold (none today).
TEST(ResourceCellPublicationTest, CellsTrackTheirOwners) {
  const int64_t versions0 = CellValue("checkpoint.retained.versions");
  const int64_t used0 = CellValue("pmem.pool.used.bytes");
  const int64_t log0 = CellValue("substrate.section.log.bytes");
  {
    auto pool = *PmemPool::Create("cells", 256 * 1024);
    CheckpointLog log(*pool);
    const Oid keep = *pool->Zalloc(256);
    const Oid gone = *pool->Zalloc(512);
    for (int i = 0; i < 5; i++) {
      pool->Direct<uint8_t>(keep)[0] = static_cast<uint8_t>(i);
      pool->Persist(keep, 0, 64);
    }
    auto used = [&pool] {
      return static_cast<int64_t>(pool->stats().used_bytes.load());
    };
    EXPECT_GT(log.retained_versions(), 0u);
    EXPECT_EQ(CellValue("checkpoint.retained.versions"),
              versions0 + static_cast<int64_t>(log.retained_versions()));
    EXPECT_EQ(CellValue("pmem.pool.used.bytes"), used0 + used());
    ASSERT_TRUE(pool->Free(gone).ok());
    EXPECT_EQ(CellValue("pmem.pool.used.bytes"), used0 + used());

    auto fase_pool = *PmemPool::Create("cells.fase", 256 * 1024);
    FaseSubstrate fase;
    ASSERT_TRUE(fase.Attach(*fase_pool).ok());
    // The fresh log header counts from Attach on, before any section.
    EXPECT_EQ(fase.log_tail(), 64u);
    EXPECT_EQ(CellValue("substrate.section.log.bytes"), log0 + 64);
    const Oid oid = *fase_pool->Zalloc(256);
    const uint64_t section = fase.NextSectionId();
    fase.SectionBegin(section);
    std::memset(fase_pool->Direct<uint8_t>(oid), 0x5A, 64);
    fase_pool->Persist(oid, 0, 64);
    const size_t open_tail = fase.log_tail();
    EXPECT_EQ(CellValue("substrate.section.log.bytes"),
              log0 + static_cast<int64_t>(open_tail));
    fase.SectionEnd(section);
    EXPECT_LT(fase.log_tail(), open_tail);  // pruned at commit
    EXPECT_EQ(CellValue("substrate.section.log.bytes"),
              log0 + static_cast<int64_t>(fase.log_tail()));
    EXPECT_EQ(
        CellValue("pmem.pool.used.bytes"),
        used0 + used() +
            static_cast<int64_t>(fase_pool->stats().used_bytes.load()));
    fase.Detach();
  }
  // The owners are gone, and their bytes with them.
  EXPECT_EQ(CellValue("checkpoint.retained.versions"), versions0);
  EXPECT_EQ(CellValue("pmem.pool.used.bytes"), used0);
  EXPECT_EQ(CellValue("substrate.section.log.bytes"), log0);
}

TEST(ResourceCellPublicationTest, LivePoolsSumAndDestroyedPoolsLeave) {
  const int64_t used0 = CellValue("pmem.pool.used.bytes");
  auto a = *PmemPool::Create("sum.a", 256 * 1024);
  auto b = *PmemPool::Create("sum.b", 256 * 1024);
  ASSERT_TRUE(a->Zalloc(1000).ok());
  ASSERT_TRUE(b->Zalloc(300).ok());
  const int64_t a_used = static_cast<int64_t>(a->stats().used_bytes.load());
  const int64_t b_used = static_cast<int64_t>(b->stats().used_bytes.load());
  EXPECT_GT(a_used, 0);
  EXPECT_GT(b_used, 0);
  EXPECT_EQ(CellValue("pmem.pool.used.bytes"), used0 + a_used + b_used);
  a.reset();
  EXPECT_EQ(CellValue("pmem.pool.used.bytes"), used0 + b_used);
  b.reset();
  EXPECT_EQ(CellValue("pmem.pool.used.bytes"), used0);
}

// Snapshots race owners that persist, churn arenas, and are built and
// destroyed (the TSan job runs this binary). Once the threads are joined
// every cell equals its baseline plus the sum over the owners still alive.
TEST(ResourceCellPublicationTest, SnapshotsRacingOwnersSettleOnLiveSum) {
  ResourceAccountant& accountant = ResourceAccountant::Global();
  const char* const kCells[] = {
      "checkpoint.arena.bytes",       "checkpoint.arena.live.bytes",
      "checkpoint.arena.freelist.bytes", "checkpoint.index.bytes",
      "checkpoint.retained.versions", "pmem.pool.used.bytes"};
  std::map<std::string, int64_t> base;
  for (const char* name : kCells) {
    base[name] = CellValue(name);
  }

  struct Owners {
    std::unique_ptr<PmemPool> pool;
    std::unique_ptr<CheckpointLog> log;
    std::unique_ptr<PayloadArena> arena;
  };
  constexpr int kThreads = 4;
  std::vector<Owners> owners(kThreads);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots{0};
  std::thread reader([&] {
    while (!done.load()) {
      (void)accountant.Snapshot(/*include_process=*/false);
      snapshots.fetch_add(1);
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&owners, t] {
      Owners& mine = owners[t];
      mine.pool = *PmemPool::Create("race." + std::to_string(t), 256 * 1024);
      mine.log = std::make_unique<CheckpointLog>(*mine.pool);
      mine.arena = std::make_unique<PayloadArena>();
      const Oid oid = *mine.pool->Zalloc(128);
      std::vector<uint8_t> payload(200, 0x42);
      for (int round = 0; round < 100; round++) {
        mine.pool->Direct<uint8_t>(oid)[round % 128] =
            static_cast<uint8_t>(round);
        mine.pool->Persist(oid, 0, 128);
        const PayloadRef ref = mine.arena->Store(payload.data(), 200);
        if (round % 3 != 0) {
          mine.arena->Release(ref);
        }
        auto scratch = *PmemPool::Create("race.scratch", 64 * 1024);
        (void)scratch->Zalloc(64);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  done.store(true);
  reader.join();
  EXPECT_GT(snapshots.load(), 0u);

  // Baseline plus the live owners' own counts. The logs' arenas hold
  // spans this test cannot count one by one, so the live/freelist cells
  // are checked once the logs are gone.
  auto expect_live_sum = [&](bool logs_alive) {
    std::map<std::string, int64_t> want = base;
    for (const Owners& o : owners) {
      if (o.pool != nullptr) {
        want["pmem.pool.used.bytes"] += o.pool->stats().used_bytes.load();
      }
      if (o.log != nullptr) {
        want["checkpoint.arena.bytes"] += o.log->arena_bytes();
        want["checkpoint.index.bytes"] += o.log->index_bytes();
        want["checkpoint.retained.versions"] += o.log->retained_versions();
      }
      if (o.arena != nullptr) {
        want["checkpoint.arena.bytes"] += o.arena->allocated_bytes();
        want["checkpoint.arena.live.bytes"] += o.arena->live_bytes();
        want["checkpoint.arena.freelist.bytes"] += o.arena->freelist_bytes();
      }
    }
    for (const char* name : kCells) {
      const std::string cell = name;
      if (logs_alive && (cell == "checkpoint.arena.live.bytes" ||
                         cell == "checkpoint.arena.freelist.bytes")) {
        continue;
      }
      EXPECT_EQ(CellValue(cell), want[cell]) << cell;
    }
  };
  expect_live_sum(/*logs_alive=*/true);
  for (Owners& o : owners) {
    o.log.reset();
  }
  expect_live_sum(false);
  for (Owners& o : owners) {
    o.pool.reset();
  }
  expect_live_sum(false);
  for (Owners& o : owners) {
    o.arena.reset();
  }
  expect_live_sum(false);
  for (const char* name : kCells) {
    EXPECT_EQ(CellValue(name), base[name]) << name;
  }
}

// --- Histogram::CountAbove ----------------------------------------------

TEST(CountAboveTest, CountsTailAtBucketGranularity) {
  Histogram hist;
  for (int i = 0; i < 1000; i++) {
    hist.Record(100);  // well under any interesting threshold
  }
  for (int i = 0; i < 10; i++) {
    hist.Record(1000000);  // 1 ms outliers
  }
  EXPECT_EQ(hist.CountAbove(0), hist.count());
  EXPECT_EQ(hist.CountAbove(10000), 10u);
  EXPECT_EQ(hist.CountAbove(10000000), 0u);
  // A threshold inside the straddling bucket is apportioned, never more
  // than the bucket holds.
  EXPECT_LE(hist.CountAbove(999999), 10u + 0u);
}

// --- GrowthAnalyzer -----------------------------------------------------

std::vector<TimelinePoint> MakeSeries(const std::vector<double>& values,
                                      int64_t step_ns = 1000000000) {
  std::vector<TimelinePoint> points;
  int64_t t = 1000000000;
  for (const double v : values) {
    TimelinePoint p;
    p.t_ns = t;
    p.value = v;
    points.push_back(p);
    t += step_ns;
  }
  return points;
}

TEST(GrowthAnalyzerTest, ClassifiesFlatSeries) {
  std::vector<double> values(20, 1000000);
  const GrowthVerdict v =
      GrowthAnalyzer().AnalyzeSeries("flat", MakeSeries(values));
  EXPECT_EQ(v.cls, GrowthClass::kFlat);
  EXPECT_EQ(v.time_to_budget_sec, -1);
}

TEST(GrowthAnalyzerTest, ClassifiesLinearGrowthAndForecasts) {
  std::vector<double> values;
  for (int i = 0; i < 20; i++) {
    values.push_back(1000.0 * i);
  }
  const GrowthVerdict v = GrowthAnalyzer().AnalyzeSeries(
      "linear", MakeSeries(values), /*budget=*/100000);
  EXPECT_EQ(v.cls, GrowthClass::kLinearGrowth);
  EXPECT_NEAR(v.slope_per_sec, 1000, 1);
  // (budget - last) / slope = (100000 - 19000) / 1000 = 81 s.
  EXPECT_NEAR(v.time_to_budget_sec, 81, 1);
}

TEST(GrowthAnalyzerTest, StaircaseGrowthReportsPositiveEndpointSlope) {
  // Growth arriving in steps rarer than the half-window pair baseline
  // (whole arena chunks): the median pairwise slope sits on a plateau at
  // exactly 0, but the series plainly climbed and keeps climbing into
  // the tail. The verdict must be linear-growth with the endpoint slope
  // (never a non-positive slope), so the forecast stays finite.
  std::vector<double> values;
  for (int i = 0; i < 40; i++) {
    values.push_back(i < 3 ? 0.0 : (i < 38 ? 2097152.0 : 4194304.0));
  }
  const GrowthVerdict v = GrowthAnalyzer().AnalyzeSeries(
      "staircase", MakeSeries(values), /*budget=*/8388608);
  EXPECT_EQ(v.cls, GrowthClass::kLinearGrowth);
  // Endpoint slope: 4 MB over 39 s.
  EXPECT_NEAR(v.slope_per_sec, 4194304.0 / 39.0, 1);
  EXPECT_GT(v.time_to_budget_sec, 0);
}

TEST(GrowthAnalyzerTest, RampThenPlateauIsBoundedNotFlat) {
  std::vector<double> values;
  for (int i = 0; i < 10; i++) {
    values.push_back(10000.0 * i);
  }
  for (int i = 0; i < 30; i++) {
    values.push_back(90000.0);
  }
  const GrowthVerdict v =
      GrowthAnalyzer().AnalyzeSeries("plateau", MakeSeries(values));
  // It moved 90 KB overall (not flat), but the second half is still —
  // a warm-up allocation, not a leak.
  EXPECT_EQ(v.cls, GrowthClass::kBounded);
}

TEST(GrowthAnalyzerTest, ShrinkingSeriesIsBounded) {
  std::vector<double> values;
  for (int i = 0; i < 20; i++) {
    values.push_back(100000.0 - 5000.0 * i);
  }
  const GrowthVerdict v =
      GrowthAnalyzer().AnalyzeSeries("shrink", MakeSeries(values));
  EXPECT_EQ(v.cls, GrowthClass::kBounded);
}

TEST(GrowthAnalyzerTest, ShortSeriesIsInsufficient) {
  const GrowthVerdict few =
      GrowthAnalyzer().AnalyzeSeries("few", MakeSeries({1, 2, 3, 4}));
  EXPECT_EQ(few.cls, GrowthClass::kInsufficientData);
  // Enough points but a sub-second window.
  std::vector<double> values(20, 5);
  const GrowthVerdict narrow = GrowthAnalyzer().AnalyzeSeries(
      "narrow", MakeSeries(values, /*step_ns=*/1000000));
  EXPECT_EQ(narrow.cls, GrowthClass::kInsufficientData);
}

TEST(GrowthAnalyzerTest, ClassTokensRoundTrip) {
  for (const GrowthClass cls :
       {GrowthClass::kInsufficientData, GrowthClass::kFlat,
        GrowthClass::kBounded, GrowthClass::kLinearGrowth}) {
    GrowthClass parsed;
    ASSERT_TRUE(obs::ParseGrowthClass(obs::GrowthClassName(cls), &parsed));
    EXPECT_EQ(parsed, cls);
  }
  GrowthClass parsed;
  EXPECT_FALSE(obs::ParseGrowthClass("exponential", &parsed));
}

TEST(GrowthAnalyzerTest, AnalyzeSamplerSkipsCountersAndJoinsBudgets) {
  TelemetrySampler sampler;
  std::atomic<double> level{0};
  sampler.RegisterProbe("resource.test.analyzed", ProbeKind::kGauge,
                        [&level] { return level.load(); });
  sampler.RegisterProbe("test.analyzed.rate", ProbeKind::kCounter,
                        [&level] { return level.load(); });
  for (int i = 0; i < 10; i++) {
    level.store(1000.0 * i);
    sampler.SampleNow();
  }

  GrowthConfig config;
  config.min_points = 4;
  config.min_window_ns = 0;  // synthetic ticks land microseconds apart
  const auto verdicts = GrowthAnalyzer(config).AnalyzeSampler(
      sampler, "resource.", {{"resource.test.analyzed", 500000.0}});
  ASSERT_EQ(verdicts.size(), 1u);  // the counter and off-prefix series skip
  EXPECT_EQ(verdicts[0].series, "resource.test.analyzed");
  EXPECT_EQ(verdicts[0].budget, 500000.0);
}

// --- SloTracker ---------------------------------------------------------

TEST(SloTrackerTest, BurnRatesBreachAndRecover) {
  const std::string hist_name = "test.slo.lat_ns";
  Histogram& hist = MetricsRegistry::Global().GetHistogram(hist_name);
  hist.Reset();

  SloTarget target;
  target.histogram = hist_name;
  target.label = "p90";
  target.objective = 0.9;  // error budget: 10% may exceed the threshold
  target.threshold_ns = 1000;
  SloTracker tracker;
  // Not Global(): a private tracker keeps this test independent of the
  // health-endpoint tests sharing the process.
  tracker.Configure({target}, {1, 10});
  ASSERT_TRUE(tracker.configured());

  const int64_t sec = 1000000000;
  tracker.Sample(1 * sec);
  for (int i = 0; i < 100; i++) {
    hist.Record(100);  // all good
  }
  tracker.Sample(2 * sec);
  EXPECT_LE(tracker.BurnRate("p90", 10), 0.001);
  EXPECT_FALSE(tracker.AnyBreached());

  for (int i = 0; i < 100; i++) {
    hist.Record(100000);  // all bad
  }
  tracker.Sample(3 * sec);
  // 1 s window: 100 of 100 bad -> fraction 1.0 -> burn 10.
  EXPECT_NEAR(tracker.BurnRate("p90", 1), 10, 0.5);
  // 10 s window (partial): 100 of 200 bad -> fraction 0.5 -> burn 5.
  EXPECT_NEAR(tracker.BurnRate("p90", 10), 5, 0.5);
  EXPECT_TRUE(tracker.AnyBreached());
  EXPECT_NEAR(tracker.WorstBurnRate(), 10, 0.5);

  const auto reports = tracker.Report();
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].windows.size(), 2u);
  EXPECT_TRUE(reports[0].breached);

  // A clean stretch clears the short window first (multi-window shape:
  // the breach alarm needs ALL windows burning). 100 good requests: the
  // 10 s window still holds 100 bad of 300 -> burn 3.3, but the trailing
  // 1 s window is clean.
  for (int i = 0; i < 100; i++) {
    hist.Record(100);
  }
  tracker.Sample(5 * sec);
  EXPECT_LE(tracker.BurnRate("p90", 1), 0.001);
  EXPECT_FALSE(tracker.AnyBreached());
  EXPECT_GT(tracker.BurnRate("p90", 10), 1.0);  // the long window remembers

  tracker.Clear();
  EXPECT_FALSE(tracker.configured());
}

TEST(SloTrackerTest, SampleDedupesCloseRows) {
  const std::string hist_name = "test.slo.dedup_ns";
  Histogram& hist = MetricsRegistry::Global().GetHistogram(hist_name);
  hist.Reset();
  SloTarget target;
  target.histogram = hist_name;
  target.label = "p50";
  target.objective = 0.5;
  target.threshold_ns = 1000;
  SloTracker tracker;
  tracker.Configure({target}, {1});

  const int64_t sec = 1000000000;
  tracker.Sample(1 * sec);
  hist.Record(100000);
  tracker.Sample(1 * sec + 1000000);  // 1 ms later: dropped (gap < 100 ms)
  EXPECT_EQ(tracker.BurnRate("p50", 1), 0);
  tracker.Sample(1 * sec + 200000000);  // 200 ms later: appended
  EXPECT_GT(tracker.BurnRate("p50", 1), 0);
}

TEST(SloTrackerTest, DefaultTargetsCoverTailObjectives) {
  const auto targets = obs::DefaultNetSloTargets();
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0].label, "p99");
  EXPECT_EQ(targets[1].label, "p999");
  EXPECT_LT(targets[0].threshold_ns, targets[1].threshold_ns);
  EXPECT_LT(targets[0].objective, targets[1].objective);
}

}  // namespace
}  // namespace arthas
