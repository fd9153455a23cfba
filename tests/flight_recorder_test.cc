// Durability flight recorder + crash forensics tests: ring wraparound
// ordering, the runtime toggle, multi-threaded capture merge (run under
// TSan in CI), crash survival, and the forensics golden scenario — a
// seeded crash mid-transaction whose report must name every lost cache
// line with its last writer and the durability step it missed.

#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/forensics.h"
#include "obs/json.h"
#include "pmem/device.h"
#include "pmem/pool.h"

namespace arthas {
namespace {

using obs::FlightRecord;
using obs::FlightRecorder;
using obs::FrReason;
using obs::FrType;

TEST(FlightRecorderTest, WraparoundKeepsNewestRecordsInSeqOrder) {
  FlightRecorder recorder(/*ring_capacity=*/16);
  for (uint64_t i = 1; i <= 40; i++) {
    recorder.Record(FrType::kPersist, 1, i * 64, 64, i);
  }
  EXPECT_EQ(recorder.total_recorded(), 40u);
  EXPECT_EQ(recorder.dropped(), 24u);
  std::vector<FlightRecord> snap = recorder.Snapshot();
  ASSERT_EQ(snap.size(), 16u);
  // The ring overwrote the oldest 24 records; the survivors are the newest
  // 16 in global seq order, payloads intact.
  for (size_t i = 0; i < snap.size(); i++) {
    const uint64_t expected_seq = 40 - 16 + 1 + i;
    EXPECT_EQ(snap[i].seq, expected_seq);
    EXPECT_EQ(snap[i].arg, expected_seq);
    EXPECT_EQ(snap[i].addr, expected_seq * 64);
    EXPECT_EQ(snap[i].type, FrType::kPersist);
  }

  // A thread alternating between two recorders keeps one ring in each, so
  // its footprint stays bounded: a switch must not register a fresh ring.
  FlightRecorder a(4);
  FlightRecorder b(4);
  for (uint64_t i = 1; i <= 10; i++) {
    a.Record(FrType::kPersist, 1, i * 64, 64, i);
    b.Record(FrType::kPersist, 1, i * 64, 64, i);
  }
  for (const FlightRecorder* r : {&a, &b}) {
    EXPECT_EQ(r->Snapshot().size(), 4u);
    EXPECT_EQ(r->dropped(), 6u);
  }
}

TEST(FlightRecorderTest, RuntimeToggleStopsRecording) {
  FlightRecorder recorder(16);
  recorder.set_enabled(false);
  recorder.Record(FrType::kFlush, 1, 0, 64, 0);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
  recorder.set_enabled(true);
  recorder.Record(FrType::kFlush, 1, 0, 64, 0);
  EXPECT_EQ(recorder.Snapshot().size(), 1u);
}

TEST(FlightRecorderTest, FourThreadCaptureMergesIntoTotalOrder) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  FlightRecorder recorder(4096);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; i++) {
        recorder.Record(FrType::kFlush, 1,
                        static_cast<uint64_t>(t) * (1u << 20) +
                            static_cast<uint64_t>(i) * 64,
                        64, static_cast<uint64_t>(t));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  std::vector<FlightRecord> snap = recorder.Snapshot();
  ASSERT_EQ(snap.size(), static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_EQ(recorder.dropped(), 0u);
  // The merged view is strictly ordered by the global seq, every writer is
  // present, and each thread's records appear in its program order.
  std::set<uint16_t> tids;
  std::map<uint16_t, uint64_t> last_addr_by_tid;
  for (size_t i = 0; i < snap.size(); i++) {
    if (i > 0) {
      EXPECT_LT(snap[i - 1].seq, snap[i].seq);
    }
    tids.insert(snap[i].tid);
    auto it = last_addr_by_tid.find(snap[i].tid);
    if (it != last_addr_by_tid.end()) {
      EXPECT_LT(it->second, snap[i].addr);
    }
    last_addr_by_tid[snap[i].tid] = snap[i].addr;
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

#ifndef ARTHAS_OBS_DISABLED

TEST(FlightRecorderTest, CaptureSurvivesDeviceCrash) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Clear();
  auto pool = *PmemPool::Create("fr_crash", 1 << 20);
  const uint32_t device_id = pool->device().device_id();

  // Four writer threads persisting disjoint objects, then a crash: the
  // recorder lives outside the device, so the timeline of who persisted
  // what survives the crash that discards the live image.
  constexpr int kThreads = 4;
  std::vector<Oid> oids;
  for (int t = 0; t < kThreads; t++) {
    oids.push_back(*pool->Zalloc(1024));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&pool, &oids, t] {
      for (int i = 0; i < 50; i++) {
        pool->Persist(oids[static_cast<size_t>(t)], 0, 1024);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  pool->device().Crash();

  std::vector<FlightRecord> snap = recorder.Snapshot();
  std::set<uint16_t> persist_tids;
  bool saw_crash = false;
  for (const FlightRecord& r : snap) {
    if (r.device_id != device_id) {
      continue;
    }
    if (r.type == FrType::kPersist) {
      persist_tids.insert(r.tid);
    }
    saw_crash |= r.type == FrType::kCrash;
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_GE(persist_tids.size(), static_cast<size_t>(kThreads));
}

// The golden scenario from the paper's case studies: a crash lands in the
// middle of a transaction after one dirty line was staged (clwb) but not
// fenced and another was never flushed at all. The forensics report must
// name both lines, their last writers, and the exact durability step each
// one missed.
TEST(ForensicsTest, NamesEveryLostLineWithWriterAndMissingStep) {
  FlightRecorder::Global().Clear();
  obs::ClearLatestForensics();
  auto pool = *PmemPool::Create("forensics", 1 << 20);
  PmemDevice& device = pool->device();

  Oid obj = *pool->Zalloc(256);
  pool->Persist(obj, 0, 256);  // durable baseline
  ASSERT_TRUE(pool->TxBegin().ok());
  ASSERT_TRUE(pool->TxAddRange(obj, 0, 128).ok());

  uint8_t* p = pool->Direct<uint8_t>(obj);
  p[0] = 0xAB;    // staged below, never fenced
  p[127] = 0xCD;  // never flushed at all
  const PmOffset line_a = obj.off & ~static_cast<PmOffset>(63);
  const PmOffset line_b = (obj.off + 127) & ~static_cast<PmOffset>(63);
  ASSERT_NE(line_a, line_b);
  device.FlushLines(obj.off, 1);  // clwb for line_a; the sfence never comes
  device.Crash();

  obs::ForensicsReport report = obs::AnalyzeCrash(device);
  ASSERT_TRUE(report.present);
  EXPECT_EQ(report.device_id, device.device_id());

  const obs::LostLineReport* a = nullptr;
  const obs::LostLineReport* b = nullptr;
  for (const obs::LostLineReport& line : report.lost_lines) {
    if (line.line_offset == line_a) {
      a = &line;
    } else if (line.line_offset == line_b) {
      b = &line;
    }
    // Every lost line is attributed: a concrete missing step and a
    // recorded last writer.
    EXPECT_TRUE(line.missing == FrReason::kNeverFlushed ||
                line.missing == FrReason::kFlushedNotDrained);
    EXPECT_NE(line.last_writer_tid, 0);
    EXPECT_NE(line.last_writer_seq, 0u);
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->missing, FrReason::kFlushedNotDrained);
  EXPECT_EQ(a->last_writer_event, FrType::kFlush);
  EXPECT_TRUE(a->undo_covered);
  EXPECT_NE(a->tx_id, 0u);
  EXPECT_EQ(b->missing, FrReason::kNeverFlushed);
  EXPECT_EQ(b->last_writer_event, FrType::kTxAddRange);
  EXPECT_TRUE(b->undo_covered);
  EXPECT_EQ(b->tx_id, a->tx_id);

  // The transaction is reported open with both lost lines inside its
  // declared range.
  ASSERT_EQ(report.open_txs.size(), 1u);
  EXPECT_EQ(report.open_txs[0].tx_id, a->tx_id);
  EXPECT_GE(report.open_txs[0].ranges, 1u);
  EXPECT_GE(report.open_txs[0].lost_lines, 2u);
  EXPECT_FALSE(report.summary.empty());

  // JSON round-trip with the pinned schema version.
  auto parsed = obs::JsonValue::Parse(report.ToJsonString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("schema_version")->AsDouble(),
            obs::kForensicsSchemaVersion);
  EXPECT_TRUE(parsed->Get("present")->AsBool());
  EXPECT_EQ(parsed->Get("lost_lines")->items().size(),
            report.lost_lines.size());
}

TEST(ForensicsTest, NoCrashMeansNoReport) {
  FlightRecorder::Global().Clear();
  auto pool = *PmemPool::Create("no_crash", 1 << 20);
  pool->Persist(*pool->Zalloc(64), 0, 64);
  obs::ForensicsReport report = obs::AnalyzeCrash(pool->device());
  EXPECT_FALSE(report.present);
  EXPECT_FALSE(report.summary.empty());  // "no crash recorded" narrative
}

#endif  // ARTHAS_OBS_DISABLED

}  // namespace
}  // namespace arthas
