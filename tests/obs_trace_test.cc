// Observability layer (DESIGN.md §13): TraceSink / MetricsRegistry unit
// tests plus the golden-trace regression test.
//
// The golden test runs a fixed-seed 4-AP CellFi scenario with tracing
// enabled, serializes the interference-manager hop/share_recalc events
// (integer-only fields, so the lines are formatting-stable) and compares
// them byte-for-byte against tests/golden/obs_trace_4ap.jsonl. Any change
// to IM decision order, sim-time bookkeeping or trace formatting shows up
// as a diff here. Regenerate deliberately with
// `CELLFI_UPDATE_GOLDEN=1 ./build/tests/obs_trace_test`.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "cellfi/obs/metrics.h"
#include "cellfi/obs/trace.h"
#include "cellfi/scenario/harness.h"

namespace cellfi::obs {
namespace {

TEST(TraceSinkTest, ToJsonlRendersFieldsInEmissionOrder) {
  TraceEvent ev;
  ev.sim_time_us = 1234;
  ev.component = "im";
  ev.event = "hop";
  ev.fields = {{"cell", 3}, {"from", 1}, {"to", 5}};
  EXPECT_EQ(TraceSink::ToJsonl(ev),
            R"({"t_us":1234,"component":"im","event":"hop","cell":3,"from":1,"to":5})");
}

TEST(TraceSinkTest, ToJsonlRendersTypesDeterministically) {
  TraceEvent ev;
  ev.sim_time_us = 0;
  ev.component = "x";
  ev.event = "types";
  ev.fields = {{"i", -7},
               {"d", 0.5},
               {"s", "a\"b\\c\n"},
               {"b", true}};
  EXPECT_EQ(
      TraceSink::ToJsonl(ev),
      R"({"t_us":0,"component":"x","event":"types","i":-7,"d":0.5,"s":"a\"b\\c\n","b":1})");
}

TEST(TraceSinkTest, RingOverwritesOldestAndReportsDrops) {
  TraceSinkConfig cfg;
  cfg.ring_capacity = 4;
  TraceSink sink(cfg);
  for (int i = 0; i < 6; ++i) {
    sink.Emit(i * kMicrosecond, "c", "e", {{"i", i}});
  }
  EXPECT_EQ(sink.emitted(), 6u);
  EXPECT_EQ(sink.dropped(), 2u);
  const auto events = sink.Events();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    // Oldest-first: events 2..5 survive.
    EXPECT_EQ(events[static_cast<std::size_t>(i)].Find("i")->as_int(), i + 2);
  }
}

TEST(TraceSinkTest, EventsFilterByComponentAndEvent) {
  TraceSink sink;
  sink.Emit(kMicrosecond, "im", "hop", {{"cell", 0}});
  sink.Emit(2 * kMicrosecond, "im", "grow", {{"cell", 0}});
  sink.Emit(3 * kMicrosecond, "prach", "contention", {{"cell", 1}});
  sink.Emit(4 * kMicrosecond, "im", "hop", {{"cell", 1}});
  EXPECT_EQ(sink.Events("im").size(), 3u);
  EXPECT_EQ(sink.Events("im", "hop").size(), 2u);
  EXPECT_EQ(sink.Events("prach").size(), 1u);
  EXPECT_EQ(sink.Events("wifi").size(), 0u);
}

TEST(TraceSinkTest, JsonlFileMatchesToJsonl) {
  // Per process: ctest may run this test alone and inside the whole-binary
  // trace suite at the same time.
  const std::string path =
      testing::TempDir() + "/obs_trace_test_out_" + std::to_string(getpid()) + ".jsonl";
  {
    TraceSinkConfig cfg;
    cfg.jsonl_path = path;
    TraceSink sink(cfg);
    sink.Emit(kMicrosecond, "im", "hop", {{"cell", 0}, {"from", 1}, {"to", 2}});
    sink.Emit(2 * kMicrosecond, "prach", "contention", {{"own", 3}});
    // Destructor flushes and closes.
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            R"({"t_us":1,"component":"im","event":"hop","cell":0,"from":1,"to":2})");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            R"({"t_us":2,"component":"prach","event":"contention","own":3})");
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

TEST(AmbientContextTest, NullWithoutScopeAndNestsWithScopes) {
  EXPECT_EQ(ActiveTrace(), nullptr);
  EXPECT_EQ(ActiveMetrics(), nullptr);
  EXPECT_EQ(AmbientNow(), 0);

  TraceSink outer_sink;
  MetricsRegistry outer_metrics;
  {
    ObsScope outer(&outer_sink, &outer_metrics);
    EXPECT_EQ(ActiveTrace(), &outer_sink);
    EXPECT_EQ(ActiveMetrics(), &outer_metrics);
    TraceSink inner_sink;
    {
      ObsScope inner(&inner_sink, nullptr);
      EXPECT_EQ(ActiveTrace(), &inner_sink);
      EXPECT_EQ(ActiveMetrics(), nullptr);
    }
    EXPECT_EQ(ActiveTrace(), &outer_sink);
    EXPECT_EQ(ActiveMetrics(), &outer_metrics);
  }
  EXPECT_EQ(ActiveTrace(), nullptr);
  EXPECT_EQ(ActiveMetrics(), nullptr);
}

TEST(AmbientContextTest, ClockScopeSuppliesAmbientNow) {
  SimTime t = 42 * kMicrosecond;
  {
    ClockScope clock([&t] { return t; });
    EXPECT_EQ(AmbientNow(), 42 * kMicrosecond);
    t = 43 * kMicrosecond;
    EXPECT_EQ(AmbientNow(), 43 * kMicrosecond);
    {
      ClockScope inner([] { return SimTime{7}; });
      EXPECT_EQ(AmbientNow(), 7);
    }
    EXPECT_EQ(AmbientNow(), 43 * kMicrosecond);
  }
  EXPECT_EQ(AmbientNow(), 0);
}

TEST(MetricsRegistryTest, CountersGaugesAndGetOrCreate) {
  MetricsRegistry m;
  const auto c = m.Counter("a.count");
  m.Add(c);
  m.Add(c, 4);
  EXPECT_EQ(m.Counter("a.count"), c);  // same name -> same id
  EXPECT_EQ(m.counter("a.count"), 5u);
  EXPECT_EQ(m.counter("missing"), 0u);

  const auto g = m.Gauge("a.gauge");
  m.Set(g, 1.5);
  m.Set(g, -2.0);  // gauges keep the last value
  EXPECT_EQ(m.gauge("a.gauge"), -2.0);
  EXPECT_EQ(m.size(), 2u);
}

TEST(MetricsRegistryTest, HistogramBucketsAndOverflow) {
  MetricsRegistry m;
  const auto h = m.Histogram("sinr", SinrDbBounds());
  m.Observe(h, -20.0);  // first bucket (<= -10)
  m.Observe(h, -10.0);  // boundary lands in its own bucket
  m.Observe(h, 12.0);   // <= 15
  m.Observe(h, 100.0);  // overflow
  const auto* data = m.histogram("sinr");
  ASSERT_NE(data, nullptr);
  ASSERT_EQ(data->counts.size(), SinrDbBounds().size() + 1);
  EXPECT_EQ(data->counts[0], 2u);
  EXPECT_EQ(data->counts[5], 1u);  // bound 15
  EXPECT_EQ(data->counts.back(), 1u);
  EXPECT_EQ(data->total, 4u);
  EXPECT_DOUBLE_EQ(data->sum, -20.0 - 10.0 + 12.0 + 100.0);
  // Re-registration keeps the first bounds.
  const auto h2 = m.Histogram("sinr", FractionBounds());
  EXPECT_EQ(h2, h);
  EXPECT_EQ(m.histogram("sinr")->upper_bounds, SinrDbBounds());
}

TEST(MetricsRegistryTest, SnapshotSerializesInRegistrationOrder) {
  MetricsRegistry m;
  m.Add(m.Counter("z.second"));
  m.Add(m.Counter("a.first"));  // registered later despite sorting earlier
  m.Set(m.Gauge("g"), 2.5);
  m.Observe(m.Histogram("h", {1.0, 2.0}), 1.5);
  const auto snap = m.Snapshot();
  const auto& counters = snap.Find("counters")->as_array();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].Find("name")->as_string(), "z.second");
  EXPECT_EQ(counters[1].Find("name")->as_string(), "a.first");
  const auto& gauges = snap.Find("gauges")->as_array();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].Find("name")->as_string(), "g");
  const auto& hists = snap.Find("histograms")->as_array();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].Find("name")->as_string(), "h");
  const auto& counts = hists[0].Find("counts")->as_array();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[1].as_integer<int>(), 1);
  EXPECT_EQ(hists[0].Find("count")->as_integer<int>(), 1);
}

// ---------------------------------------------------------------------------
// Golden trace.

scenario::ScenarioConfig GoldenConfig() {
  scenario::ScenarioConfig cfg;
  cfg.tech = scenario::Technology::kCellFi;
  cfg.workload = scenario::WorkloadKind::kBacklogged;
  // Tight area so the four cells genuinely contend (hops occur), short
  // enough that the golden slice stays a few dozen lines.
  cfg.topology.area_m = 500.0;
  cfg.topology.num_aps = 4;
  cfg.topology.clients_per_ap = 2;
  cfg.warmup = 100 * kMillisecond;
  cfg.duration = 5 * kSecond;
  cfg.seed = 11;  // this seed exercises bucket-exhaustion hops, not just
                  // share recalculations
  cfg.obs.enabled = true;
  return cfg;
}

/// The golden slice: interference-manager hop + share_recalc events.
/// Both carry only integer fields, so the serialized lines are immune to
/// floating-point formatting concerns.
std::vector<std::string> GoldenLines(const scenario::ScenarioConfig& cfg) {
  const auto result = scenario::RunScenario(cfg);
  std::vector<std::string> lines;
  if (result.trace == nullptr) {
    ADD_FAILURE() << "obs.enabled run returned no trace sink";
    return lines;
  }
  EXPECT_EQ(result.trace->dropped(), 0u)
      << "golden scenario overflowed the trace ring";
  for (const auto& ev : result.trace->Events("im")) {
    if (ev.event == "hop" || ev.event == "share_recalc") {
      lines.push_back(TraceSink::ToJsonl(ev));
    }
  }
  return lines;
}

std::string Joined(const std::vector<std::string>& lines) {
  std::ostringstream out;
  for (const auto& line : lines) out << line << "\n";
  return out.str();
}

TEST(GoldenTraceTest, MatchesCheckedInGolden) {
  const std::string golden_path =
      std::string(CELLFI_SOURCE_DIR) + "/tests/golden/obs_trace_4ap.jsonl";
  const auto lines = GoldenLines(GoldenConfig());
  ASSERT_FALSE(lines.empty()) << "fixed-seed 4-AP scenario emitted no "
                                 "im hop/share_recalc events";

  if (std::getenv("CELLFI_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << golden_path;
    out << Joined(lines);
    std::cout << "updated " << golden_path << " (" << lines.size()
              << " events)\n";
    return;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.is_open())
      << "missing " << golden_path
      << " — regenerate with CELLFI_UPDATE_GOLDEN=1 ./build/tests/obs_trace_test";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), Joined(lines))
      << "golden trace drifted; if the change is intentional regenerate "
         "with CELLFI_UPDATE_GOLDEN=1 ./build/tests/obs_trace_test";
}

TEST(GoldenTraceTest, IdenticalAcrossRuns) {
  const auto a = GoldenLines(GoldenConfig());
  const auto b = GoldenLines(GoldenConfig());
  EXPECT_EQ(a, b);
}

TEST(GoldenTraceTest, SensitiveToBucketLambdaPerturbation) {
  auto cfg = GoldenConfig();
  cfg.cellfi.im.bucket_lambda = 2.0;  // paper default is 10
  const auto perturbed = GoldenLines(cfg);
  const auto baseline = GoldenLines(GoldenConfig());
  // A harsher bucket distribution changes hop decisions; the trace must
  // notice (this is what makes the golden test a tripwire, not a tautology).
  EXPECT_NE(baseline, perturbed);
}

}  // namespace
}  // namespace cellfi::obs
