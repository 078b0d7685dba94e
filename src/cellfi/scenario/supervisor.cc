#include "cellfi/scenario/supervisor.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <optional>

#include "cellfi/scenario/report.h"

namespace cellfi::scenario {

/// One line of the checkpoint file: the durable outcome of a finished
/// replication, keyed by (point, rep, seed).
struct SweepSupervisor::Checkpoint {
  int point = 0;
  int rep = 0;
  std::uint64_t seed = 0;
  bool ok = false;
  int attempts = 0;
  double sim_seconds = 0.0;
  std::string error;
  json::Value obs;  // snapshot at completion; null when obs was off
};

SweepSupervisor::SweepSupervisor(SupervisorOptions options)
    : options_(std::move(options)) {
  resume_path_ = options_.resume_path;
  if (resume_path_.empty()) {
    if (const char* env = std::getenv("CELLFI_SWEEP_RESUME")) {
      if (env[0] != '\0') resume_path_ = env;
    }
  }
  options_.max_attempts = std::max(1, options_.max_attempts);
  runner_ = std::make_unique<SweepRunner>(
      SweepOptions{.threads = options_.threads, .progress = options_.progress});
  LoadCheckpoints();
}

SweepSupervisor::~SweepSupervisor() = default;

void SweepSupervisor::LoadCheckpoints() {
  if (resume_path_.empty()) return;
  std::ifstream file(resume_path_);
  if (!file.is_open()) return;  // fresh sweep: the file appears as reps finish
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    const auto parsed = json::Parse(line);
    if (!parsed || !parsed->is_object()) continue;  // torn tail write
    // The key fields are required and must read exactly; a line that lacks
    // one is skipped like a torn write, and its replication re-runs.
    const json::Value* point = parsed->Find("point");
    const json::Value* rep = parsed->Find("rep");
    const json::Value* seed = parsed->Find("seed");
    const json::Value* ok = parsed->Find("ok");
    const auto point_v = point != nullptr ? point->as_integer<int>() : std::nullopt;
    const auto rep_v = rep != nullptr ? rep->as_integer<int>() : std::nullopt;
    const auto seed_v = seed != nullptr ? seed->as_decimal_u64() : std::nullopt;
    if (!point_v || !rep_v || !seed_v || ok == nullptr || !ok->is_bool()) continue;
    Checkpoint cp;
    cp.point = *point_v;
    cp.rep = *rep_v;
    cp.seed = *seed_v;
    cp.ok = ok->as_bool();
    if (const json::Value* v = parsed->Find("attempts")) {
      const auto attempts = v->as_integer<int>();
      if (!attempts) continue;
      cp.attempts = *attempts;
    }
    if (const json::Value* v = parsed->Find("sim_s"); v != nullptr && v->is_number()) {
      cp.sim_seconds = v->as_number();
    }
    if (const json::Value* v = parsed->Find("error"); v != nullptr && v->is_string()) {
      cp.error = v->as_string();
    }
    if (const json::Value* v = parsed->Find("obs")) cp.obs = *v;
    checkpoints_.push_back(std::move(cp));
  }
}

void SweepSupervisor::AppendCheckpoint(const ReplicationOutcome& out) {
  if (resume_path_.empty()) return;
  json::Value doc;
  doc["point"] = out.point;
  doc["rep"] = out.rep;
  doc["seed"] = std::to_string(out.seed);
  doc["ok"] = out.error == nullptr;
  doc["attempts"] = out.attempts;
  doc["sim_s"] = out.sim_seconds;
  if (out.error != nullptr) {
    doc["error"] = out.error_text.empty() ? "unknown exception" : out.error_text;
  } else {
    json::Value snap = out.restored ? out.restored_obs : ObsSnapshotToJson(out.result);
    if (!snap.is_null()) doc["obs"] = std::move(snap);
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Append + flush per record: an interrupted sweep keeps every line
  // written before the interruption (a torn final line is skipped on load).
  std::ofstream file(resume_path_, std::ios::app);
  file << doc.Dump() << "\n" << std::flush;
}

std::vector<ReplicationOutcome> SweepSupervisor::Run(
    const std::vector<Replication>& jobs, const ReplicationBody& body) {
  failures_.clear();
  retries_ = 0;
  quarantined_ = 0;
  watchdog_expirations_ = 0;
  restored_ = 0;

  std::vector<ReplicationOutcome> outcomes(jobs.size());
  runner_->RunTasks(jobs.size(), [&](std::size_t i) {
    const Replication& job = jobs[i];

    // Resume: a successful checkpoint of this very replication — same
    // (point, rep) and same seed, so a file left by another sweep never
    // stands in — replaces the run. Failed checkpoints are retried from
    // scratch — a resumed sweep gets another chance at transient failures.
    const Checkpoint* resumed = nullptr;
    for (const Checkpoint& cp : checkpoints_) {
      if (cp.point == job.point && cp.rep == job.rep && cp.seed == job.config.seed &&
          cp.ok) {
        resumed = &cp;
        break;
      }
    }
    if (resumed != nullptr) {
      ReplicationOutcome out;
      out.point = job.point;
      out.rep = job.rep;
      out.seed = resumed->seed;
      out.sim_seconds = resumed->sim_seconds;
      out.attempts = resumed->attempts;
      out.restored = true;
      out.restored_obs = resumed->obs;
      outcomes[i] = std::move(out);
      std::lock_guard<std::mutex> lock(mu_);
      ++restored_;
      return;
    }

    ReplicationOutcome out;
    for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
      if (body) {
        out = ReplicationOutcome{};
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
        out.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      } else {
        out = RunOneReplication(job);
      }
      out.attempts = attempt;
      if (out.error == nullptr && options_.watchdog_seconds > 0.0 &&
          out.wall_seconds > options_.watchdog_seconds) {
        // Over the deadline: the result is suspect (runaway convergence,
        // event-loop livelock, overloaded host) — treat as a failure.
        out.result = ScenarioResult{};
        out.error_text = "watchdog deadline exceeded";
        try {
          throw std::runtime_error(out.error_text);
        } catch (...) {
          out.error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mu_);
        ++watchdog_expirations_;
      }
      if (out.error == nullptr) break;
      if (attempt < options_.max_attempts) {
        std::lock_guard<std::mutex> lock(mu_);
        ++retries_;
      }
    }

    if (out.error != nullptr) {
      out.quarantined = true;
      std::lock_guard<std::mutex> lock(mu_);
      ++quarantined_;
      failures_.push_back({job.point, job.rep, out.seed, out.attempts,
                           job.label,
                           out.error_text.empty() ? "unknown exception"
                                                  : out.error_text,
                           true});
    }
    AppendCheckpoint(out);
    outcomes[i] = std::move(out);
  });

  // Completion order is thread-dependent; the record order must not be.
  std::sort(failures_.begin(), failures_.end(),
            [](const FailureRecord& a, const FailureRecord& b) {
              return a.point != b.point ? a.point < b.point : a.rep < b.rep;
            });
  return outcomes;
}

json::Value SweepSupervisor::FailuresToJson() const {
  json::Array records;
  for (const FailureRecord& f : failures_) {
    json::Value v;
    v["point"] = f.point;
    v["rep"] = f.rep;
    v["seed"] = std::to_string(f.seed);
    if (!f.label.empty()) v["label"] = f.label;
    v["attempts"] = f.attempts;
    v["error"] = f.error;
    v["quarantined"] = f.quarantined;
    records.push_back(std::move(v));
  }
  json::Value doc;
  doc["failures"] = std::move(records);
  return doc;
}

}  // namespace cellfi::scenario
