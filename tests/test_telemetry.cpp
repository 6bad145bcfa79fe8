// Telemetry layer: metrics aggregation across rank threads, span ring
// semantics (wrap-around, survival of a killed node's spans), failpoint
// instants in the exported Chrome trace, and RunReport JSON shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ckpt_harness.hpp"
#include "json_reader.hpp"
#include "mpi/launcher.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "testing.hpp"

namespace skt::telemetry {
namespace {

using skt::testing::CkptAppConfig;
using skt::testing::checkpointed_app;
using skt::testing::MiniCluster;

/// Every test starts from an enabled, empty registry and tracer and leaves
/// telemetry off again (the process default other suites expect).
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    metrics().reset_values();
    Tracer::instance().clear();
  }
  void TearDown() override { set_enabled(false); }
};

TEST_F(TelemetryTest, CountersAggregateAcrossRanks) {
  MiniCluster mc(4, 0);
  const auto result = mc.run(4, [](mpi::Comm& w) {
    // Each rank contributes rank+1; the process-wide registry IS the
    // job-wide aggregate because ranks are threads.
    metrics().counter("test.rank_sum").add(static_cast<std::uint64_t>(w.rank()) + 1);
    w.barrier();
  });
  ASSERT_TRUE(result.completed) << result.abort_reason;

  const auto snap = metrics().snapshot();
  ASSERT_TRUE(snap.counters.count("test.rank_sum"));
  EXPECT_EQ(snap.counters.at("test.rank_sum"), 1u + 2u + 3u + 4u);
  // The runtime's own wire accounting rode along (the barrier exchanged
  // messages).
  ASSERT_TRUE(snap.counters.count("mpi.wire_messages"));
  EXPECT_GT(snap.counters.at("mpi.wire_messages"), 0u);
}

TEST_F(TelemetryTest, HistogramSummarizesQuantiles) {
  Histogram& h = metrics().histogram("test.latency");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));

  const HistogramSummary s = h.summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_NEAR(s.quantiles.p50, 50.5, 1.0);
  EXPECT_NEAR(s.quantiles.p90, 90.1, 1.0);
  EXPECT_NEAR(s.quantiles.p99, 99.0, 1.0);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t b : s.buckets) bucketed += b;
  EXPECT_EQ(bucketed, 100u);
}

TEST_F(TelemetryTest, HistogramIsNoopWhileDisabled) {
  Histogram& h = metrics().histogram("test.gated");
  set_enabled(false);
  h.record(1.0);
  EXPECT_EQ(h.summarize().count, 0u);
  set_enabled(true);
  h.record(1.0);
  EXPECT_EQ(h.summarize().count, 1u);
}

TEST_F(TelemetryTest, SpanRingWrapsAndCountsDropped) {
  SpanRecord rec;
  std::strncpy(rec.name, "test.flood", sizeof(rec.name) - 1);
  rec.rank = 7;
  const std::uint64_t extra = 10;
  for (std::uint64_t i = 0; i < Tracer::kRingCapacity + extra; ++i) {
    rec.t0_us = static_cast<double>(i);
    Tracer::instance().push(rec);
  }
  EXPECT_EQ(Tracer::instance().total_dropped(), extra);
  const auto records = Tracer::instance().collect();
  ASSERT_EQ(records.size(), Tracer::kRingCapacity);
  // Oldest entries were overwritten; the survivors are the newest ones.
  EXPECT_DOUBLE_EQ(records.front().t0_us, static_cast<double>(extra));
}

TEST_F(TelemetryTest, NestedSpansRecordParent) {
  {
    SKT_SPAN("test.outer");
    SKT_SPAN("test.inner");
  }
  const auto records = Tracer::instance().collect();
  ASSERT_EQ(records.size(), 2u);
  // Inner closes first but starts later; collect() sorts by start time.
  EXPECT_STREQ(records[0].name, "test.outer");
  EXPECT_STREQ(records[1].name, "test.inner");
  EXPECT_STREQ(records[1].parent, "test.outer");
  EXPECT_EQ(records[1].depth, 1u);
  EXPECT_STREQ(records[0].parent, "");
}

TEST_F(TelemetryTest, DisabledSpanRecordsNothing) {
  set_enabled(false);
  {
    SKT_SPAN("test.invisible");
  }
  EXPECT_TRUE(Tracer::instance().collect().empty());
}

// The headline scenario: a node is powered off mid-flush (CASE 2). The
// spans its rank recorded before dying must survive in the tracer — the
// rings belong to the process-wide Tracer, not to the dead thread — and
// the exported trace must show the failpoint hit, the launcher recovery
// cycle, and the restore.
TEST_F(TelemetryTest, SpansSurviveKilledNodeAndTraceShowsRecovery) {
  MiniCluster mc(4, 2);
  CkptAppConfig config;
  config.strategy = ckpt::Strategy::kSelf;
  config.group_size = 4;
  config.iterations = 4;

  sim::FailureInjector injector;
  injector.add_rule({.point = "ckpt.mid_flush", .world_rank = 1, .hit = 2, .repeat = false});
  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 3, .ranks_per_node = 1});
  const auto result = launcher.run(4, [&](mpi::Comm& w) { checkpointed_app(w, config); });
  ASSERT_TRUE(result.success) << result.failure;
  ASSERT_EQ(injector.triggered_count(), 1u);

  bool saw_fail = false;
  bool saw_restore = false;
  bool saw_replace = false;
  std::set<int> commit_ranks;
  for (const auto& rec : Tracer::instance().collect()) {
    if (std::strcmp(rec.name, "fail:ckpt.mid_flush") == 0 && rec.instant()) {
      saw_fail = true;
      EXPECT_EQ(rec.rank, 1);  // recorded on the victim's row before the kill
    }
    if (std::strcmp(rec.name, "ckpt.restore") == 0) saw_restore = true;
    if (std::strcmp(rec.name, "launcher.replace") == 0) saw_replace = true;
    if (std::strcmp(rec.name, "ckpt.commit") == 0) commit_ranks.insert(rec.rank);
  }
  EXPECT_TRUE(saw_fail);
  EXPECT_TRUE(saw_restore);
  EXPECT_TRUE(saw_replace);
  // Every rank's commit spans are present — including the killed rank's
  // pre-kill commit (epoch 1 completed before the hit-2 kill).
  EXPECT_EQ(commit_ranks, (std::set<int>{0, 1, 2, 3}));

  const auto snap = metrics().snapshot();
  EXPECT_GT(snap.counters.at("ckpt.commits"), 0u);
  EXPECT_GT(snap.counters.at("ckpt.restores"), 0u);

  // The Chrome export carries the same evidence as named events.
  const std::string json = Tracer::instance().chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("fail:ckpt.mid_flush"), std::string::npos);
  EXPECT_NE(json.find("ckpt.restore"), std::string::npos);
  EXPECT_NE(json.find("launcher.replace"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

// A restore splits into child spans: epoch agreement, the rebuild (on the
// group that lost a member), the reloads and the closing world barrier.
// Each child must name ckpt.restore as its parent and start and end
// inside one ckpt.restore span of its own rank, for every in-memory
// strategy.
TEST_F(TelemetryTest, RestoreChildSpansNestInsideTheRestore) {
  for (const ckpt::Strategy strategy :
       {ckpt::Strategy::kSelf, ckpt::Strategy::kSingle, ckpt::Strategy::kDouble}) {
    Tracer::instance().clear();
    MiniCluster mc(4, 2);
    CkptAppConfig config;
    config.strategy = strategy;
    config.group_size = 4;
    config.iterations = 4;
    sim::FailureInjector injector;
    injector.add_rule({.point = "app.work", .world_rank = 2, .hit = 3, .repeat = false});
    mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 3, .ranks_per_node = 1});
    const auto result = launcher.run(4, [&](mpi::Comm& w) { checkpointed_app(w, config); });
    ASSERT_TRUE(result.success) << result.failure;
    ASSERT_EQ(injector.triggered_count(), 1u);

    const std::vector<SpanRecord> records = Tracer::instance().collect();
    std::map<std::string, std::set<int>> child_ranks;
    for (const SpanRecord& child : records) {
      const std::string name = child.name;
      if (name.rfind("ckpt.restore.", 0) != 0) continue;
      EXPECT_STREQ(child.parent, "ckpt.restore") << name;
      const bool nested = std::any_of(records.begin(), records.end(), [&](const SpanRecord& p) {
        return std::strcmp(p.name, "ckpt.restore") == 0 && p.rank == child.rank &&
               p.t0_us <= child.t0_us && child.t0_us + child.dur_us <= p.t0_us + p.dur_us;
      });
      EXPECT_TRUE(nested) << name << " on rank " << child.rank << " escapes its ckpt.restore";
      child_ranks[name].insert(child.rank);
    }
    const std::set<int> all{0, 1, 2, 3};
    EXPECT_EQ(child_ranks["ckpt.restore.agree"], all) << ckpt::to_string(strategy);
    EXPECT_EQ(child_ranks["ckpt.restore.rebuild"], all) << ckpt::to_string(strategy);
    EXPECT_EQ(child_ranks["ckpt.restore.reload"], all) << ckpt::to_string(strategy);
    EXPECT_EQ(child_ranks["ckpt.restore.barrier"], all) << ckpt::to_string(strategy);
  }
}

// Chrome-trace export well-formedness, checked with a real JSON parser
// rather than substring probes: the document parses, complete ("X") spans
// on one row nest properly (no partial overlap — what chrome://tracing
// renders as a broken flame graph), and failpoint instants carry the
// victim's rank row and the epoch that was being committed.
TEST_F(TelemetryTest, ChromeTraceExportIsWellFormedJson) {
  MiniCluster mc(4, 2);
  CkptAppConfig config;
  config.strategy = ckpt::Strategy::kSelf;
  config.group_size = 4;
  config.iterations = 4;

  sim::FailureInjector injector;
  injector.add_rule({.point = "ckpt.mid_flush", .world_rank = 1, .hit = 2, .repeat = false});
  mpi::JobLauncher launcher(mc.cluster, &injector, {.max_restarts = 3, .ranks_per_node = 1});
  const auto result = launcher.run(4, [&](mpi::Comm& w) { checkpointed_app(w, config); });
  ASSERT_TRUE(result.success) << result.failure;

  const std::string text = Tracer::instance().chrome_trace_json();
  testing::json::Value doc;
  ASSERT_NO_THROW(doc = testing::json::parse(text)) << "export is not valid JSON";
  ASSERT_TRUE(doc.has("traceEvents"));
  const auto& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GT(events.size(), 0u);

  struct SpanEvt {
    double ts, dur;
    std::string name;
  };
  std::map<std::int64_t, std::vector<SpanEvt>> spans_by_tid;
  bool saw_fail_instant = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events.at(i);
    ASSERT_TRUE(e.has("name") && e.has("ph") && e.has("pid") && e.has("tid"));
    const std::string ph = e.at("ph").string;
    if (ph == "X") {
      ASSERT_TRUE(e.has("ts") && e.has("dur"));
      EXPECT_GE(e.at("dur").number, 0.0);
      spans_by_tid[static_cast<std::int64_t>(e.at("tid").number)].push_back(
          {e.at("ts").number, e.at("dur").number, e.at("name").string});
    } else if (ph == "i" && e.at("name").string == "fail:ckpt.mid_flush") {
      saw_fail_instant = true;
      // Right rank: the instant sits on the victim's row. Right epoch: the
      // kill landed inside the commit of epoch 2 (hit 2 of a per-iteration
      // commit cadence), which the protocol stamps at commit entry.
      EXPECT_EQ(static_cast<int>(e.at("tid").number), 1);
      ASSERT_TRUE(e.at("args").has("epoch"));
      EXPECT_EQ(static_cast<std::uint64_t>(e.at("args").at("epoch").number), 2u);
    }
  }
  EXPECT_TRUE(saw_fail_instant);

  // Nesting balance per row: any two complete spans are either disjoint or
  // one fully contains the other. Partial overlap means a begin/end pair
  // crossed — a malformed flame graph.
  for (auto& [tid, spans] : spans_by_tid) {
    std::sort(spans.begin(), spans.end(),
              [](const SpanEvt& a, const SpanEvt& b) { return a.ts < b.ts; });
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double a_end = spans[i].ts + spans[i].dur;
      for (std::size_t j = i + 1; j < spans.size(); ++j) {
        if (spans[j].ts >= a_end) break;  // disjoint from here on (sorted)
        EXPECT_LE(spans[j].ts + spans[j].dur, a_end + 1e-6)
            << "row " << tid << ": span '" << spans[j].name
            << "' partially overlaps '" << spans[i].name << "'";
      }
    }
  }
}

// The report's drop accounting: flooding one rank's ring past capacity
// must show up both in the total and in the per-rank breakdown.
TEST_F(TelemetryTest, RunReportCarriesPerRankDropCounts) {
  SpanRecord rec;
  std::strncpy(rec.name, "test.flood", sizeof(rec.name) - 1);
  rec.rank = 3;
  const std::uint64_t extra = 17;
  for (std::uint64_t i = 0; i < Tracer::kRingCapacity + extra; ++i) {
    rec.t0_us = static_cast<double>(i);
    Tracer::instance().push(rec);
  }
  const auto by_rank = Tracer::instance().dropped_by_rank();
  ASSERT_EQ(by_rank.size(), 1u);
  EXPECT_EQ(by_rank.at(3), extra);

  const auto doc = testing::json::parse(RunReport("drops").json());
  EXPECT_EQ(static_cast<std::uint64_t>(doc.at("trace_spans_dropped").number), extra);
  EXPECT_EQ(static_cast<std::uint64_t>(doc.at("trace_dropped_by_rank").at("3").number),
            extra);
}

TEST_F(TelemetryTest, RunReportCarriesScalarsAndMetrics) {
  metrics().counter("test.bytes").add(42);
  Histogram& h = metrics().histogram("test.phase_s");
  h.record(2.0);
  h.record(4.0);

  RunReport report("unit");
  report.set("n", static_cast<std::int64_t>(384));
  report.set("residual", 1.5e-9);
  report.set("passed", true);
  report.set("strategy", "self-checkpoint");
  report.set("n", static_cast<std::int64_t>(512));  // overwrite in place

  const std::string json = report.json();
  EXPECT_NE(json.find("\"report\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"n\": 512"), std::string::npos);
  EXPECT_EQ(json.find("\"n\": 384"), std::string::npos);
  EXPECT_NE(json.find("\"passed\": true"), std::string::npos);
  EXPECT_NE(json.find("self-checkpoint"), std::string::npos);
  EXPECT_NE(json.find("\"test.bytes\": 42"), std::string::npos);
  EXPECT_NE(json.find("test.phase_s"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);

  RunReport bare("bare");
  bare.set_include_metrics(false);
  EXPECT_EQ(bare.json().find("test.bytes"), std::string::npos);
}

}  // namespace
}  // namespace skt::telemetry
