// Aggregate-UE traffic tier scaling bench (DESIGN.md §18): total synthetic
// population swept 1k -> 1M background users over a fixed 10-AP CellFi
// deployment with 20 fully-simulated clients riding alongside.
//
// The tier is a fluid approximation whose per-epoch cost is
// O(cells x clusters), independent of the population, so the headline is
// that wall time stays ~flat from 1k to 1M users while PRB utilization,
// PRACH contention and the share dynamics respond to the population.
//
// Built-in bit-identity gate: every point runs twice with the same seed
// and shared topology; the two ScenarioResult JSON dumps must match to
// the last byte (the tier is counter-drawn — no stateful RNG anywhere in
// the generator path). Any mismatch fails the bench. Every replication
// also runs under a record-mode runtime invariant checker (DESIGN.md
// §14); the bench prints the checks run and fails on any violation.
//
// Populations default to 1k/10k/100k/1M (CELLFI_BENCH_USERS_POPS
// overrides, comma-separated, for targeted runs).
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cellfi/common/table.h"
#include "cellfi/scenario/report.h"
#include "fig9_common.h"

using namespace fig9;

namespace {

std::vector<int> Populations() {
  const char* env = std::getenv("CELLFI_BENCH_USERS_POPS");
  std::vector<int> fallback{1000, 10000, 100000, 1000000};
  if (env == nullptr || *env == '\0') return fallback;
  std::vector<int> out;
  std::stringstream ss(env);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const int n = std::atoi(item.c_str());
    if (n > 0) out.push_back(n);
  }
  return out.empty() ? fallback : out;
}

ScenarioConfig UsersConfig(int population, std::uint64_t seed) {
  // Fig. 9 deployment with the population spread evenly over the cells.
  // Demand per user is small (20 kbps) so utilization scales with the
  // population: ~0.17 at 1k total users, saturated at 100k+.
  ScenarioConfig cfg = BaseConfig(Technology::kCellFi, 10, 2, seed);
  cfg.warmup = 500 * kMillisecond;
  cfg.duration = 4 * kSecond;
  cfg.aggregate_load.users_per_cell = population / cfg.topology.num_aps;
  cfg.aggregate_load.per_user_demand_bps = 20e3;
  cfg.aggregate_load.steady_activity = 0.5;
  cfg.aggregate_load.activity_jitter = 0.2;
  cfg.aggregate_load.flash_rate_per_s = 0.02;
  cfg.aggregate_load.flash_duration_s = 2.0;
  cfg.aggregate_load.flash_multiplier = 3.0;
  return cfg;
}

}  // namespace

int main() {
  std::cout << "CellFi reproduction -- aggregate-tier population scaling bench\n\n";
  const std::vector<int> pops = Populations();
  // Two same-seed replications per point: the pair IS the bit-identity
  // gate, so it stays fixed regardless of CELLFI_BENCH_REPS.
  constexpr int kDuplicates = 2;

  SweepOptions opts;
  opts.progress = true;
  SweepRunner runner(opts);
  BenchReport report("users", runner.threads(), kDuplicates);

  std::vector<Replication> jobs;
  for (std::size_t pi = 0; pi < pops.size(); ++pi) {
    const std::uint64_t seed = SweepSeed(0xA66B, pi, 0);
    Rng rng(seed);
    auto topo = std::make_shared<const Topology>(
        GenerateTopology(UsersConfig(pops[pi], seed).topology, rng));
    for (int rep = 0; rep < kDuplicates; ++rep) {
      jobs.push_back(Replication{UsersConfig(pops[pi], seed), topo,
                                 static_cast<int>(pi), rep,
                                 "users=" + std::to_string(pops[pi])});
    }
  }
  InvariantTally invariants;
  const auto outcomes = runner.Run(jobs, invariants.Body());
  ThrowIfFailed(outcomes);
  if (!invariants.Report(std::cout)) return 1;

  // Bit-identity gate: rep 0 == rep 1 at every population.
  for (std::size_t pi = 0; pi < pops.size(); ++pi) {
    const ScenarioResult* r[kDuplicates] = {nullptr, nullptr};
    for (const ReplicationOutcome& o : outcomes) {
      if (o.point == static_cast<int>(pi)) r[o.rep] = &o.result;
    }
    if (r[0] == nullptr || r[1] == nullptr ||
        ResultToJson(*r[0]).Dump() != ResultToJson(*r[1]).Dump()) {
      std::cerr << "FAIL: same-seed duplicate diverges at users=" << pops[pi]
                << " (aggregate tier must be counter-deterministic)\n";
      return 1;
    }
  }
  std::cout << "Bit-identity check: same-seed duplicates match at every "
               "population\n\n";

  Table t({"total users", "wall s/run", "sim/wall", "total Mbps", "hops"});
  double wall_first = 0.0;
  double wall_last = 0.0;
  for (std::size_t pi = 0; pi < pops.size(); ++pi) {
    double wall = 0.0;
    double sim = 0.0;
    double mbps = 0.0;
    double hops = 0.0;
    for (const ReplicationOutcome& o : outcomes) {
      if (o.point != static_cast<int>(pi)) continue;
      wall += o.wall_seconds / kDuplicates;
      sim += o.sim_seconds / kDuplicates;
      mbps += o.result.total_throughput_bps / 1e6 / kDuplicates;
      hops += static_cast<double>(o.result.im_total_hops) / kDuplicates;
    }
    t.AddRow({std::to_string(pops[pi]), Table::Num(wall, 2),
              Table::Num(wall > 0.0 ? sim / wall : 0.0, 1), Table::Num(mbps, 1),
              Table::Num(hops, 0)});
    report.AddPoint("users=" + std::to_string(pops[pi]), outcomes,
                    static_cast<int>(pi));
    if (pi == 0) wall_first = wall;
    wall_last = wall;
  }
  t.Print(std::cout, "Population scaling (fluid tier: wall time ~flat)");

  if (wall_first > 0.0) {
    std::cout << "wall(" << pops.back() << ") / wall(" << pops.front()
              << ") = " << Table::Num(wall_last / wall_first, 2)
              << "x (fluid tier target: ~1x)\n";
  }
  std::cout << "Bench artifact: " << report.Write() << "\n";
  return 0;
}
