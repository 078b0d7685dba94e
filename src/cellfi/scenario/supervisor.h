// Self-healing sweep supervisor (DESIGN.md §14).
//
// `SweepSupervisor` wraps the SweepRunner worker pool with a recovery
// state machine per replication:
//
//   run → ok                    → checkpoint, done
//   run → failed / over deadline → bounded same-seed retry
//   retries exhausted            → quarantine (structured failure record,
//                                  excluded from statistics, present in
//                                  the artifact)
//
// and with checkpoint/resume for long sweeps: every finished replication
// appends one JSONL record to the checkpoint file, and a later run with
// the same file (CELLFI_SWEEP_RESUME or SupervisorOptions::resume_path)
// restores completed replications — matched on (point, rep) and seed —
// instead of re-running them. Because a
// replication is a pure function of its config, a resumed sweep's
// artifact is byte-identical to an uninterrupted run's, modulo the
// wall-clock fields.
//
// Determinism: retries reuse the original seed (the point is detecting
// non-deterministic or environment-induced failures, not reshuffling the
// dice), outcomes land in input order, and failure records are sorted by
// (point, rep) — none of it depends on thread count or completion order.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cellfi/common/json.h"
#include "cellfi/scenario/sweep.h"

namespace cellfi::scenario {

struct SupervisorOptions {
  /// Worker threads; <= 0 resolves via ResolveThreads.
  int threads = 0;
  /// Total same-seed attempts per replication (1 = no retry).
  int max_attempts = 2;
  /// Cooperative per-replication deadline, seconds of wall clock; a
  /// replication exceeding it counts as failed (and is retried /
  /// quarantined like any failure). 0 disables the watchdog. Cooperative:
  /// the replication is not killed mid-run — the deadline is evaluated
  /// when it returns, which bounds damage from runaway reps without
  /// needing thread cancellation.
  double watchdog_seconds = 0.0;
  /// Checkpoint/resume file (JSONL). Empty resolves from the
  /// CELLFI_SWEEP_RESUME env knob; still empty disables checkpointing.
  std::string resume_path;
  bool progress = false;
};

/// One quarantined or failed replication, as recorded in artifacts.
struct FailureRecord {
  int point = 0;
  int rep = 0;
  std::uint64_t seed = 0;
  int attempts = 0;
  /// Scenario label of the failing replication (Replication::label) —
  /// a failure record identifies WHICH scenario died, not just its seed.
  std::string label;
  std::string error;
  bool quarantined = false;
};

class SweepSupervisor {
 public:
  explicit SweepSupervisor(SupervisorOptions options = {});
  ~SweepSupervisor();

  SweepSupervisor(const SweepSupervisor&) = delete;
  SweepSupervisor& operator=(const SweepSupervisor&) = delete;

  /// Run every replication under supervision. Outcomes are in input order;
  /// quarantined replications keep their error (so PointSummary and
  /// friends skip them) plus a failure record here and in the artifact.
  std::vector<ReplicationOutcome> Run(const std::vector<Replication>& jobs,
                                      const ReplicationBody& body = nullptr);

  /// Failure records of the last Run, sorted by (point, rep).
  const std::vector<FailureRecord>& failures() const { return failures_; }
  /// JSON form of `failures()` for embedding in sweep artifacts.
  json::Value FailuresToJson() const;

  std::uint64_t retries() const { return retries_; }
  std::uint64_t quarantined() const { return quarantined_; }
  std::uint64_t watchdog_expirations() const { return watchdog_expirations_; }
  /// Replications restored from the checkpoint instead of re-run.
  std::uint64_t restored() const { return restored_; }

  const std::string& resume_path() const { return resume_path_; }

 private:
  struct Checkpoint;

  void LoadCheckpoints();
  void AppendCheckpoint(const ReplicationOutcome& out);

  SupervisorOptions options_;
  std::string resume_path_;
  std::unique_ptr<SweepRunner> runner_;

  std::mutex mu_;  // guards failures_ and the checkpoint file
  std::vector<FailureRecord> failures_;
  std::vector<Checkpoint> checkpoints_;
  std::uint64_t retries_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t watchdog_expirations_ = 0;
  std::uint64_t restored_ = 0;
};

}  // namespace cellfi::scenario
