// Tests for the parallel replication runner (scenario/sweep).
//
// The load-bearing property is the determinism contract: a replication's
// outcome depends only on its config and topology, never on the thread
// count or completion order. We check bit-identical results between a
// single-threaded and a 4-thread runner, exception isolation, seed
// derivation, and the env-var knobs.
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "cellfi/common/json.h"
#include "cellfi/scenario/report.h"
#include "cellfi/scenario/supervisor.h"
#include "cellfi/scenario/sweep.h"

namespace cellfi::scenario {
namespace {

ScenarioConfig SmallConfig(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.tech = Technology::kCellFi;
  cfg.workload = WorkloadKind::kBacklogged;
  cfg.topology.area_m = 800.0;
  cfg.topology.num_aps = 2;
  cfg.topology.clients_per_ap = 2;
  cfg.warmup = 100 * kMillisecond;
  cfg.duration = 1 * kSecond;
  cfg.seed = seed;
  return cfg;
}

std::vector<Replication> SmallJobs() {
  std::vector<Replication> jobs;
  for (int rep = 0; rep < 4; ++rep) {
    jobs.push_back(Replication{SmallConfig(100 + static_cast<std::uint64_t>(rep)),
                               nullptr, 0, rep, {}});
  }
  return jobs;
}

TEST(SweepSeedTest, DeterministicAndDistinct) {
  EXPECT_EQ(SweepSeed(1, 2, 3), SweepSeed(1, 2, 3));
  EXPECT_NE(SweepSeed(1, 2, 3), SweepSeed(1, 2, 4));
  EXPECT_NE(SweepSeed(1, 2, 3), SweepSeed(1, 3, 3));
  EXPECT_NE(SweepSeed(1, 2, 3), SweepSeed(2, 2, 3));
  // Nearby (point, rep) pairs must not collide the way additive schemes do
  // (base + point + rep would alias (2,3) with (3,2)).
  EXPECT_NE(SweepSeed(1, 2, 3), SweepSeed(1, 3, 2));
}

TEST(SweepRunnerTest, ResultsIndependentOfThreadCount) {
  const auto jobs = SmallJobs();

  SweepOptions seq;
  seq.threads = 1;
  const auto a = SweepRunner(seq).Run(jobs);

  SweepOptions par;
  par.threads = 4;
  const auto b = SweepRunner(par).Run(jobs);

  ASSERT_EQ(a.size(), jobs.size());
  ASSERT_EQ(b.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Outcomes come back in job order regardless of completion order.
    EXPECT_EQ(a[i].rep, jobs[i].rep);
    EXPECT_EQ(b[i].rep, jobs[i].rep);
    EXPECT_EQ(a[i].error, nullptr);
    EXPECT_EQ(b[i].error, nullptr);
    // Bit-identical, not approximately equal: the contract is that thread
    // count never changes results.
    EXPECT_EQ(a[i].result.fraction_connected, b[i].result.fraction_connected);
    EXPECT_EQ(a[i].result.fraction_starved, b[i].result.fraction_starved);
    EXPECT_EQ(a[i].result.total_throughput_bps, b[i].result.total_throughput_bps);
    ASSERT_EQ(a[i].result.clients.size(), b[i].result.clients.size());
    for (std::size_t c = 0; c < a[i].result.clients.size(); ++c) {
      EXPECT_EQ(a[i].result.clients[c].throughput_bps,
                b[i].result.clients[c].throughput_bps);
    }
  }
}

TEST(SweepRunnerTest, ExceptionInOneReplicationDoesNotPoisonOthers) {
  const auto jobs = SmallJobs();
  std::atomic<int> bodies_run{0};

  SweepOptions opts;
  opts.threads = 2;
  SweepRunner runner(opts);
  const auto outcomes = runner.Run(jobs, [&](const Replication& job) {
    bodies_run.fetch_add(1);
    if (job.rep == 1) throw std::runtime_error("injected failure in rep 1");
    ScenarioResult r;
    r.fraction_connected = 1.0;
    return r;
  });

  // Every replication ran despite the failure in rep 1.
  EXPECT_EQ(bodies_run.load(), 4);
  ASSERT_EQ(outcomes.size(), jobs.size());
  for (const auto& out : outcomes) {
    if (out.rep == 1) {
      EXPECT_NE(out.error, nullptr);
    } else {
      EXPECT_EQ(out.error, nullptr);
      EXPECT_EQ(out.result.fraction_connected, 1.0);
    }
  }
  EXPECT_THROW(ThrowIfFailed(outcomes), std::runtime_error);
}

TEST(SweepRunnerTest, RunTasksRethrowsFirstFailureByIndex) {
  SweepOptions opts;
  opts.threads = 3;
  SweepRunner runner(opts);
  std::atomic<int> done{0};
  try {
    runner.RunTasks(8, [&](std::size_t i) {
      if (i == 2 || i == 5) throw std::runtime_error("task " + std::to_string(i));
      done.fetch_add(1);
    });
    FAIL() << "RunTasks should rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2");
  }
  // The batch drains fully before the rethrow.
  EXPECT_EQ(done.load(), 6);
}

TEST(SweepRunnerTest, PointSummaryFiltersByPoint) {
  std::vector<ReplicationOutcome> outcomes(4);
  for (int i = 0; i < 4; ++i) {
    outcomes[static_cast<std::size_t>(i)].point = i % 2;
    outcomes[static_cast<std::size_t>(i)].result.fraction_connected = 0.25 * i;
  }
  const Summary s = PointSummary(outcomes, 1, [](const ScenarioResult& r) {
    return r.fraction_connected;
  });
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), (0.25 + 0.75) / 2.0);
}

TEST(SweepEnvTest, ResolveThreadsAndRepsHonourEnv) {
  ::setenv("CELLFI_BENCH_THREADS", "3", 1);
  ::setenv("CELLFI_BENCH_REPS", "7", 1);
  EXPECT_EQ(ResolveThreads(0), 3);
  EXPECT_EQ(ResolveReps(20), 7);
  // An explicit request beats the env var.
  EXPECT_EQ(ResolveThreads(2), 2);
  ::unsetenv("CELLFI_BENCH_THREADS");
  ::unsetenv("CELLFI_BENCH_REPS");
  const int default_threads = ResolveThreads(0);
  EXPECT_GE(default_threads, 1);
  EXPECT_EQ(ResolveReps(20), 20);
  // Only a whole, in-range, positive integer counts; anything else is
  // unset. Only the Resolve* functions run here: nothing is started with
  // these values.
  for (const char* bad : {"2x", "-3", "", "99999999999"}) {
    SCOPED_TRACE(std::string("value=\"") + bad + "\"");
    ::setenv("CELLFI_BENCH_THREADS", bad, 1);
    ::setenv("CELLFI_BENCH_REPS", bad, 1);
    EXPECT_EQ(ResolveThreads(0), default_threads);
    EXPECT_EQ(ResolveReps(20), 20);
  }
  ::unsetenv("CELLFI_BENCH_THREADS");
  ::unsetenv("CELLFI_BENCH_REPS");
}

// Observer-effect test (DESIGN.md §13): instrumentation is strictly
// passive, so running the identical replication set with tracing+metrics
// enabled must reproduce every report byte — under both the sequential
// and the multi-threaded runner (per-replication thread-local sinks).
TEST(ObserverEffectTest, TracingLeavesReportsBitIdentical) {
  auto jobs_with_obs = [](bool enabled) {
    auto jobs = SmallJobs();
    for (auto& job : jobs) job.config.obs.enabled = enabled;
    return jobs;
  };
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SweepOptions opts;
    opts.threads = threads;
    const auto off = SweepRunner(opts).Run(jobs_with_obs(false));
    const auto on = SweepRunner(opts).Run(jobs_with_obs(true));
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
      ASSERT_EQ(off[i].error, nullptr);
      ASSERT_EQ(on[i].error, nullptr);
      // Byte-compare the serialized reports, not individual fields: any
      // observer effect anywhere in the result surfaces here.
      EXPECT_EQ(ResultToJson(off[i].result).Dump(),
                ResultToJson(on[i].result).Dump());
      // The traced run really did observe something...
      ASSERT_NE(on[i].result.trace, nullptr);
      EXPECT_GT(on[i].result.trace->emitted(), 0u);
      ASSERT_NE(on[i].result.metrics, nullptr);
      EXPECT_GT(on[i].result.metrics->size(), 0u);
      // ...and the untraced run carried no observability state at all.
      EXPECT_EQ(off[i].result.trace, nullptr);
      EXPECT_EQ(off[i].result.metrics, nullptr);
    }
  }
}

TEST(BenchReportTest, WritesValidArtifact) {
  ::setenv("CELLFI_BENCH_OUT", ::testing::TempDir().c_str(), 1);
  BenchReport report("sweep_test", 2, 3);
  std::vector<ReplicationOutcome> outcomes(2);
  outcomes[0].point = 0;
  outcomes[0].wall_seconds = 0.5;
  outcomes[0].sim_seconds = 10.0;
  outcomes[1].point = 0;
  outcomes[1].wall_seconds = 0.25;
  outcomes[1].sim_seconds = 10.0;
  report.AddPoint("p0", outcomes, 0);
  const std::string path = report.Write();
  ::unsetenv("CELLFI_BENCH_OUT");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  const auto parsed = json::Parse(body.str());
  ASSERT_TRUE(parsed.has_value());
  json::Value doc = *parsed;
  EXPECT_EQ(doc["bench"].as_string(), "sweep_test");
  EXPECT_EQ(doc["threads"].as_integer<int>(), 2);
  ASSERT_EQ(doc["points"].as_array().size(), 1u);
  json::Value p0 = doc["points"].as_array()[0];
  EXPECT_EQ(p0["label"].as_string(), "p0");
  EXPECT_DOUBLE_EQ(p0["wall_s"].as_number(), 0.75);
  EXPECT_DOUBLE_EQ(p0["sim_s"].as_number(), 20.0);
}

// Regression: failure records used to carry only the seed and the exception
// text. In a multi-scenario sweep that left the reader reverse-engineering
// which scenario died from the seed alone — Replication::label must survive
// into the plain runner's BENCH_* failure entries, the supervisor's
// FailureRecord, and FailuresToJson.
TEST(FailureRecordTest, LabelIdentifiesTheFailingScenario) {
  auto jobs = SmallJobs();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].label = "scenario-" + std::to_string(i);
  }
  const ReplicationBody body = [](const Replication& job) -> ScenarioResult {
    if (job.rep == 2) throw std::runtime_error("died mid-epoch");
    return ScenarioResult{};
  };

  // Plain runner path: the label rides the outcome into the artifact.
  SweepOptions opts;
  opts.threads = 2;
  const auto outcomes = SweepRunner(opts).Run(jobs, body);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0].label, "scenario-0");
  EXPECT_EQ(outcomes[2].label, "scenario-2");
  ASSERT_NE(outcomes[2].error, nullptr);

  ::setenv("CELLFI_BENCH_OUT", ::testing::TempDir().c_str(), 1);
  BenchReport report("label_test", 2, 4);
  report.AddPoint("p0", outcomes, 0);
  const std::string path = report.Write();
  ::unsetenv("CELLFI_BENCH_OUT");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream artifact;
  artifact << in.rdbuf();
  const auto parsed = json::Parse(artifact.str());
  ASSERT_TRUE(parsed.has_value());
  json::Value doc = *parsed;
  ASSERT_EQ(doc["points"].as_array().size(), 1u);
  json::Value p0 = doc["points"].as_array()[0];
  ASSERT_EQ(p0["failures"].as_array().size(), 1u);
  json::Value failure = p0["failures"].as_array()[0];
  EXPECT_EQ(failure["rep"].as_integer<int>(), 2);
  EXPECT_EQ(failure["label"].as_string(), "scenario-2");
  EXPECT_EQ(failure["error"].as_string(), "died mid-epoch");

  // Supervised path: the FailureRecord and its JSON form carry the label.
  SupervisorOptions sup_opts;
  sup_opts.threads = 2;
  sup_opts.max_attempts = 1;
  SweepSupervisor supervisor(sup_opts);
  const auto supervised = supervisor.Run(jobs, body);
  ASSERT_EQ(supervised.size(), 4u);
  EXPECT_EQ(supervised[1].label, "scenario-1");
  ASSERT_EQ(supervisor.failures().size(), 1u);
  EXPECT_EQ(supervisor.failures()[0].rep, 2);
  EXPECT_EQ(supervisor.failures()[0].label, "scenario-2");
  json::Value failures_doc = supervisor.FailuresToJson();
  ASSERT_EQ(failures_doc["failures"].as_array().size(), 1u);
  json::Value record = failures_doc["failures"].as_array()[0];
  EXPECT_EQ(record["label"].as_string(), "scenario-2");
  EXPECT_EQ(record["error"].as_string(), "died mid-epoch");
}

}  // namespace
}  // namespace cellfi::scenario
