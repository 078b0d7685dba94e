// End-to-end evaluation harness: runs one technology over one topology and
// workload, and reports per-client outcomes.
//
// This is the engine behind the Fig. 2 / Fig. 9 benches: it binds
// propagation, the chosen MAC (CellFi / plain LTE / oracle-allocated LTE /
// 802.11af / 802.11ac), a traffic workload and the statistics collection,
// using identical placement and propagation across technologies so that
// differences are attributable to the MAC (paper Section 6.3.4).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cellfi/chaos/fault_plan.h"
#include "cellfi/common/stats.h"
#include "cellfi/common/time.h"
#include "cellfi/core/cellfi_controller.h"
#include "cellfi/obs/metrics.h"
#include "cellfi/obs/trace.h"
#include "cellfi/phy/resource_grid.h"
#include "cellfi/scenario/topology.h"
#include "cellfi/traffic/aggregate_load.h"
#include "cellfi/traffic/web_workload.h"

namespace cellfi::scenario {

enum class Technology {
  kCellFi,       // LTE + distributed interference management
  kLte,          // plain LTE, no coordination
  kOracle,       // LTE + centralized oracle allocation (FERMI-like bound)
  kLaaLte,       // LTE + listen-before-talk (LAA/MulteFire style, Section 8)
  kWifi80211af,  // CSMA in TVWS
  kWifi80211ac,  // CSMA indoor (Fig. 2 comparison)
};

enum class WorkloadKind { kBacklogged, kWeb };

/// Per-run observability (DESIGN.md §13). When enabled the harness scopes
/// a fresh TraceSink + MetricsRegistry around the replication (thread-local,
/// so parallel sweeps stay race-free) and hands both back on the result.
/// The determinism contract guarantees enabling this changes no simulation
/// outcome bytes.
struct ObsOptions {
  bool enabled = false;
  /// Stream events to this JSONL file as well (single-run use: parallel
  /// replications sharing one path would interleave arbitrarily).
  std::string trace_path;
  /// In-memory event ring capacity.
  int ring_capacity = 1 << 16;
};

enum class PropagationKind {
  kHataUrbanUhf,   // outdoor TVWS (600 MHz), gentle slope: long links
  kSuburbanUhf,    // log-distance n = 3.5 at 600 MHz: the Fig. 9 regime,
                   // where cell, interference and PRACH-hearing radii are
                   // comparable (a few hundred metres)
  kIndoor5GHz,     // log-distance n = 3.0 at 5.2 GHz (802.11ac)
};

struct ScenarioConfig {
  Technology tech = Technology::kCellFi;
  WorkloadKind workload = WorkloadKind::kBacklogged;
  TopologyConfig topology;
  PropagationKind propagation = PropagationKind::kHataUrbanUhf;

  double ap_power_dbm = 30.0;
  double client_power_dbm = 20.0;     // LTE clients (TVWS cap)
  double wifi_client_power_dbm = 30.0;  // paper: Wi-Fi runs 30/30

  LteBandwidth lte_bandwidth = LteBandwidth::k5MHz;
  int lte_tdd_config = 4;
  double wifi_channel_width_hz = 6e6;  // Fig. 9 setting; Fig. 2 uses 20 MHz
  /// MAC/PHY clock-down factor; 802.11af (TVHT) ~4x slower than 802.11ac.
  double wifi_clock_scale = 4.0;

  SimTime warmup = 3 * kSecond;
  SimTime duration = 23 * kSecond;  // measurement = duration - warmup

  bool enable_fading = true;
  double shadowing_sigma_db = 6.0;

  /// Must stay true: LTE subframes are always resolved through the
  /// per-epoch interference engine (DESIGN.md §12), and RunScenario throws
  /// std::invalid_argument on false for LTE-based technologies. The field
  /// exists only so perfbench/driver.cc, which still assigns it, compiles;
  /// the next change to perfbench deletes it.
  bool use_interference_engine = true;
  /// Negligible-interferer cull threshold (dB below the noise floor);
  /// <= 0 keeps every interferer (exact arithmetic).
  double interference_floor_db = 0.0;
  /// Intra-replication spatial shards (DESIGN.md §15): the LTE cell grid
  /// is partitioned into this many groups whose subframe work can run on
  /// the shard worker pool. Bit-identical results for any value; only wall
  /// clock changes.
  int shards = 1;
  /// Shard worker threads; 0 derives a default from CELLFI_SHARD_THREADS
  /// or hardware concurrency divided by active sweep workers.
  int shard_threads = 0;

  /// A client below this average rate counts as starved (10 % of the
  /// 1 Mbps per-user service floor from paper Section 2).
  double starvation_threshold_bps = 100e3;

  /// Clients attach only to their own network's AP (independent unplanned
  /// deployments: no cross-operator roaming). Disable to allow
  /// strongest-cell association, which models a single-operator network.
  bool home_ap_association = true;

  /// CellFi interference-management knobs (ablation studies); the seed is
  /// overridden per run.
  core::CellfiControllerConfig cellfi;

  traffic::WebWorkloadConfig web;

  /// Aggregate background-load tier (DESIGN.md §18): a fluid per-cell
  /// population riding alongside the fully-simulated UEs. Drives PRB
  /// occupancy (LteNetwork::SetBackgroundLoad) and synthetic PRACH
  /// contender counts (CellfiController::SetAggregateContenders) on every
  /// generator epoch. users_per_cell == 0 disables the tier; the
  /// CELLFI_AGG_LOAD env knob (background users per cell) provides an
  /// ad-hoc fallback when unset. The generator seed is derived from the
  /// scenario seed per run. LTE-based technologies only.
  traffic::AggregateLoadConfig aggregate_load;

  std::uint64_t seed = 1;

  /// Observability; defaults to fully off (and to the CELLFI_TRACE env
  /// knobs when unset — see README "Observability").
  ObsOptions obs;

  /// Chaos fault plan for the run (DESIGN.md §14). The LTE-based harness
  /// binds kApCrash (cell deactivated for the event's duration, default
  /// 2 s, then reactivated) and kLoadShock (backlogged offered load scaled
  /// by `magnitude` on the target cell); PAWS-level faults need the PAWS
  /// chain and are exercised by RunChaosCampaign. Unset falls back to the
  /// CELLFI_CHAOS_PLAN env knob (path of a fault-plan JSON file).
  std::optional<chaos::FaultPlan> chaos_plan;
};

struct ClientOutcome {
  double throughput_bps = 0.0;
  bool attached = false;  // associated / RRC-connected at any point
  bool starved = true;    // throughput below threshold
  int pages_completed = 0;
  int pages_started = 0;
  std::vector<double> page_load_times_s;
};

struct ScenarioResult {
  std::vector<ClientOutcome> clients;
  double fraction_connected = 0.0;  // attached and not starved
  double fraction_starved = 0.0;
  double total_throughput_bps = 0.0;
  Distribution client_throughput_mbps;
  Distribution page_load_times_s;
  /// CellFi-only convergence metrics.
  std::uint64_t im_total_hops = 0;
  int im_cells_still_hopping = 0;
  /// Faults the chaos scheduler actually injected (0 when no plan ran).
  /// Excluded from ResultToJson, like the obs handles below.
  std::uint64_t chaos_faults_injected = 0;
  /// Populated only when ScenarioConfig::obs (or CELLFI_TRACE) enabled
  /// observability for the run. Deliberately excluded from ResultToJson so
  /// report bytes stay identical with observability on or off.
  std::shared_ptr<obs::TraceSink> trace;
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

/// Run one scenario (builds everything, runs, tears down).
ScenarioResult RunScenario(const ScenarioConfig& config);

/// Run one scenario on a pre-built topology (for cross-technology
/// comparisons over identical placements).
ScenarioResult RunScenarioOn(const ScenarioConfig& config, const Topology& topo);

}  // namespace cellfi::scenario
