#include "cellfi/scenario/sweep.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "cellfi/common/env.h"
#include "cellfi/common/json.h"
#include "cellfi/common/simd.h"
#include "cellfi/scenario/report.h"
#include "cellfi/sim/worker_pool.h"

namespace cellfi::scenario {

namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t SweepSeed(std::uint64_t base, std::uint64_t point, std::uint64_t rep) {
  std::uint64_t h = SplitMix64(base);
  h = SplitMix64(h ^ point);
  h = SplitMix64(h ^ rep);
  return h;
}

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  if (const int env = EnvInt("CELLFI_BENCH_THREADS").value_or(0); env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int ResolveReps(int default_reps) {
  if (const int env = EnvInt("CELLFI_BENCH_REPS").value_or(0); env > 0) return env;
  return default_reps;
}

SweepRunner::SweepRunner(SweepOptions options) : progress_(options.progress) {
  const int n = ResolveThreads(options.threads);
  // Register with the nested-parallelism guard: while this pool is alive,
  // intra-replication shard pools (sim/worker_pool) derive their default
  // thread count as hardware / active sweep threads, so
  // sweep_threads x shard_threads never silently oversubscribes.
  AddActiveSweepThreads(n);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SweepRunner::~SweepRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  AddActiveSweepThreads(-static_cast<int>(workers_.size()));
}

void SweepRunner::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || next_ < count_; });
    if (stop_) return;
    const std::size_t index = next_++;
    lock.unlock();
    (*task_)(index);
    lock.lock();
    if (++completed_ == count_) done_cv_.notify_all();
  }
}

void SweepRunner::RunTasks(std::size_t count,
                           const std::function<void(std::size_t)>& task) {
  if (count == 0) return;

  // Exceptions never unwind through the pool: capture the first (by task
  // index, for determinism) and rethrow after the batch has drained.
  std::mutex error_mu;
  std::size_t error_index = count;
  std::exception_ptr error;
  const std::function<void(std::size_t)> guarded = [&](std::size_t i) {
    try {
      task(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (i < error_index) {
        error_index = i;
        error = std::current_exception();
      }
    }
  };

  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = &guarded;
    count_ = count;
    next_ = 0;
    completed_ = 0;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return completed_ == count_; });
    task_ = nullptr;
    count_ = 0;
    next_ = 0;
    completed_ = 0;
  }
  if (error) std::rethrow_exception(error);
}

ReplicationOutcome RunOneReplication(const Replication& job) {
  ReplicationOutcome out;
  out.point = job.point;
  out.rep = job.rep;
  out.seed = job.config.seed;
  out.label = job.label;
  out.sim_seconds = ToSeconds(job.config.duration);
  const auto start = std::chrono::steady_clock::now();
  try {
    if (job.topology != nullptr) {
      out.result = RunScenarioOn(job.config, *job.topology);
    } else {
      out.result = RunScenario(job.config);
    }
  } catch (const std::exception& e) {
    out.error = std::current_exception();
    out.error_text = e.what();
  } catch (...) {
    out.error = std::current_exception();
    out.error_text = "unknown exception";
  }
  out.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

std::vector<ReplicationOutcome> SweepRunner::Run(const std::vector<Replication>& jobs,
                                                const ReplicationBody& body) {
  std::vector<ReplicationOutcome> outcomes(jobs.size());
  std::mutex progress_mu;
  std::size_t finished = 0;
  RunTasks(jobs.size(), [&](std::size_t i) {
    const Replication& job = jobs[i];
    if (body) {
      ReplicationOutcome out;
      out.point = job.point;
      out.rep = job.rep;
      out.seed = job.config.seed;
      out.label = job.label;
      out.sim_seconds = ToSeconds(job.config.duration);
      const auto start = std::chrono::steady_clock::now();
      try {
        out.result = body(job);
      } catch (const std::exception& e) {
        out.error = std::current_exception();
        out.error_text = e.what();
      } catch (...) {
        out.error = std::current_exception();
        out.error_text = "unknown exception";
      }
      out.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      outcomes[i] = std::move(out);
    } else {
      outcomes[i] = RunOneReplication(job);
    }
    if (progress_) {
      std::lock_guard<std::mutex> lock(progress_mu);
      ++finished;
      std::fprintf(stderr, "[sweep] %zu/%zu point=%d rep=%d %.1fs%s\n", finished,
                   jobs.size(), job.point, job.rep, outcomes[i].wall_seconds,
                   outcomes[i].error ? " FAILED" : "");
    }
  });
  return outcomes;
}

void ThrowIfFailed(const std::vector<ReplicationOutcome>& outcomes) {
  for (const ReplicationOutcome& out : outcomes) {
    if (out.error) std::rethrow_exception(out.error);
  }
}

Summary PointSummary(const std::vector<ReplicationOutcome>& outcomes, int point,
                     const std::function<double(const ScenarioResult&)>& metric) {
  Summary s;
  for (const ReplicationOutcome& out : outcomes) {
    if (out.point == point && !out.error) s.Add(metric(out.result));
  }
  return s;
}

Distribution PointDistribution(
    const std::vector<ReplicationOutcome>& outcomes, int point,
    const std::function<void(const ScenarioResult&, Distribution&)>& add) {
  Distribution d;
  for (const ReplicationOutcome& out : outcomes) {
    if (out.point == point && !out.error) add(out.result, d);
  }
  return d;
}

BenchReport::BenchReport(std::string name, int threads, int reps)
    : name_(std::move(name)),
      threads_(threads),
      reps_(reps),
      start_(std::chrono::steady_clock::now()) {}

void BenchReport::AddPoint(const std::string& label,
                           const std::vector<ReplicationOutcome>& outcomes, int point) {
  Point p;
  p.label = label;
  for (const ReplicationOutcome& out : outcomes) {
    if (out.point != point) continue;
    ++p.reps;
    p.wall_seconds += out.wall_seconds;
    p.sim_seconds += out.sim_seconds;
    if (out.error == nullptr) {
      // Restored outcomes carry their snapshot through the checkpoint (no
      // live ScenarioResult to snapshot from); live outcomes snapshot here.
      json::Value snap =
          out.restored ? out.restored_obs : ObsSnapshotToJson(out.result);
      if (!snap.is_null()) {
        json::Value entry;
        entry["rep"] = out.rep;
        entry["obs"] = std::move(snap);
        p.obs.push_back(std::move(entry));
      }
    } else {
      // A failing replication leaves a structured record in the artifact —
      // the failing seed and exception text — never a silent hole in the
      // rep count.
      json::Value failure;
      failure["rep"] = out.rep;
      failure["seed"] = std::to_string(out.seed);
      if (!out.label.empty()) failure["label"] = out.label;
      failure["error"] = out.error_text.empty() ? "unknown exception" : out.error_text;
      if (out.attempts > 0) failure["attempts"] = out.attempts;
      if (out.quarantined) failure["quarantined"] = true;
      p.failures.push_back(std::move(failure));
    }
  }
  points_.push_back(std::move(p));
}

void BenchReport::AddPoint(const std::string& label, int reps, double wall_seconds,
                           double sim_seconds) {
  points_.push_back(Point{label, reps, wall_seconds, sim_seconds, {}, {}});
}

std::string BenchReport::Write() const {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  double total_sim = 0.0;
  double total_rep_wall = 0.0;
  json::Array points;
  for (const Point& p : points_) {
    json::Value v;
    v["label"] = p.label;
    v["reps"] = p.reps;
    v["wall_s"] = p.wall_seconds;
    v["sim_s"] = p.sim_seconds;
    v["sim_per_wall"] = p.wall_seconds > 0.0 ? p.sim_seconds / p.wall_seconds : 0.0;
    if (!p.obs.empty()) v["obs"] = p.obs;
    if (!p.failures.empty()) v["failures"] = p.failures;
    points.push_back(v);
    total_sim += p.sim_seconds;
    total_rep_wall += p.wall_seconds;
  }

  json::Value doc;
  doc["bench"] = name_;
  doc["threads"] = threads_;
  doc["reps"] = reps_;
  // Which simd.h kernel variant produced these numbers ("avx2", "sse2",
  // "neon" or "scalar") — recorded so baselines are only compared against
  // runs of the same kernel.
  doc["simd_kernel"] = simd::ActiveKernelName();
  doc["points"] = points;
  // `wall_s` is the bench's elapsed wall clock; `replication_wall_s` sums
  // the per-replication clocks, so their ratio is the achieved parallelism.
  doc["wall_s"] = elapsed;
  doc["replication_wall_s"] = total_rep_wall;
  doc["parallel_speedup"] = elapsed > 0.0 ? total_rep_wall / elapsed : 0.0;
  doc["sim_s"] = total_sim;
  doc["sim_per_wall"] = elapsed > 0.0 ? total_sim / elapsed : 0.0;

  std::string dir = ".";
  if (const char* env = std::getenv("CELLFI_BENCH_OUT")) {
    if (env[0] != '\0') dir = env;
  }
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream file(path);
  file << doc.Dump() << "\n";
  return path;
}

}  // namespace cellfi::scenario
