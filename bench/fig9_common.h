// Shared configuration for the Fig. 9 large-scale benches (paper Section
// 6.3.4): 2 km x 2 km, random AP placement, 5 MHz LTE TDD config 4 /
// 6 MHz Wi-Fi, 30 dBm APs, 20 dBm LTE clients, 30 dBm Wi-Fi clients.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "cellfi/chaos/invariants.h"
#include "cellfi/scenario/harness.h"
#include "cellfi/scenario/sweep.h"

namespace fig9 {

using namespace cellfi;
using namespace cellfi::scenario;

inline ScenarioConfig BaseConfig(Technology tech, int num_aps, int clients_per_ap,
                                 std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.tech = tech;
  cfg.workload = WorkloadKind::kBacklogged;
  cfg.propagation = PropagationKind::kSuburbanUhf;
  cfg.topology.area_m = 2000.0;
  cfg.topology.num_aps = num_aps;
  cfg.topology.clients_per_ap = clients_per_ap;
  cfg.topology.client_radius_m = 250.0;
  cfg.ap_power_dbm = 30.0;
  cfg.client_power_dbm = 20.0;
  cfg.wifi_client_power_dbm = 30.0;
  cfg.lte_bandwidth = LteBandwidth::k5MHz;
  cfg.lte_tdd_config = 4;
  cfg.wifi_channel_width_hz = 6e6;
  cfg.warmup = 3 * kSecond;
  cfg.duration = 15 * kSecond;
  cfg.seed = seed;
  return cfg;
}

/// Repetitions per data point; CELLFI_BENCH_REPS overrides (quick runs).
inline int Reps(int default_reps) { return ResolveReps(default_reps); }

inline const char* TechName(Technology tech) {
  switch (tech) {
    case Technology::kCellFi: return "CellFi";
    case Technology::kLte: return "LTE";
    case Technology::kOracle: return "Oracle";
    case Technology::kLaaLte: return "LAA-LTE";
    case Technology::kWifi80211af: return "802.11af";
    case Technology::kWifi80211ac: return "802.11ac";
  }
  return "?";
}

/// Runs every replication of a sweep under its own record-mode
/// chaos::InvariantChecker (DESIGN.md §14), so a bench enforces the
/// leased-transmit, vacate, share-sum and PRB invariants at the scale it
/// measures. Recording never changes a simulation outcome.
class InvariantTally {
 public:
  /// Body for SweepRunner::Run over jobs with a pre-built topology:
  /// RunScenarioOn inside an InvariantScope.
  ReplicationBody Body() {
    return [this](const Replication& job) {
      chaos::InvariantChecker checker;
      ScenarioResult result;
      {
        chaos::InvariantScope scope(&checker);
        result = RunScenarioOn(job.config, *job.topology);
      }
      std::lock_guard<std::mutex> lock(mu_);
      checks_ += checker.checks_run();
      for (const chaos::InvariantViolation& v : checker.violations()) {
        violations_.push_back(job.label + " rep " + std::to_string(job.rep) + ": " +
                              chaos::InvariantKindName(v.kind) + " at instance " +
                              std::to_string(v.instance) + ", " + v.detail);
      }
      return result;
    };
  }

  /// Prints the checks run and every violation; false if there was one.
  bool Report(std::ostream& out) {
    std::lock_guard<std::mutex> lock(mu_);
    std::sort(violations_.begin(), violations_.end());  // completion order varies
    out << "Invariant checks: " << checks_ << " run, " << violations_.size()
        << " violations\n";
    for (const std::string& v : violations_) out << "FAIL: invariant " << v << "\n";
    return violations_.empty();
  }

 private:
  std::mutex mu_;
  std::uint64_t checks_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace fig9
