#include "cellfi/scenario/harness.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "cellfi/baseline/oracle_allocator.h"
#include "cellfi/chaos/fault_scheduler.h"
#include "cellfi/common/env.h"
#include "cellfi/common/units.h"
#include "cellfi/core/cellfi_controller.h"
#include "cellfi/lte/network.h"
#include "cellfi/radio/pathloss.h"
#include "cellfi/sim/event_queue.h"
#include "cellfi/traffic/flow_tracker.h"
#include "cellfi/wifi/wifi_network.h"

namespace cellfi::scenario {

namespace {

/// PRACH format 0 bandwidth — must match the constant LteNetwork::EmitPrach
/// uses so the aggregate tier's audibility precomputation applies the exact
/// detection rule real UEs face.
constexpr double kPrachBandwidthHz = 839 * 1250.0;
constexpr double kTau = 6.283185307179586;

const PathLossModel& PathLossFor(PropagationKind kind) {
  static const HataUrbanPathLoss hata(15.0, 1.5);
  static const LogDistancePathLoss suburban(3.5, 1.0);
  static const LogDistancePathLoss indoor(3.0, 1.0);
  switch (kind) {
    case PropagationKind::kIndoor5GHz: return indoor;
    case PropagationKind::kSuburbanUhf: return suburban;
    case PropagationKind::kHataUrbanUhf:
    default: return hata;
  }
}

/// Per-run observability scope (DESIGN.md §13). Owns the sink + registry
/// for one replication and installs them (plus a sim clock for components
/// without a Simulator handle) on the current thread for the run's
/// lifetime. Observation is strictly passive, so enabling it cannot
/// perturb the simulation.
struct ObsSession {
  std::shared_ptr<obs::TraceSink> trace;
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::optional<obs::ObsScope> scope;
  std::optional<obs::ClockScope> clock;

  ObsSession(const ScenarioConfig& cfg, Simulator& sim) {
    ObsOptions opt = cfg.obs;
    if (!opt.enabled) {
      // Env knobs for ad-hoc runs (see README "Observability").
      if (std::getenv("CELLFI_TRACE") != nullptr) opt.enabled = true;
      if (const char* path = std::getenv("CELLFI_TRACE_OUT")) {
        opt.enabled = true;
        if (opt.trace_path.empty()) opt.trace_path = path;
      }
      if (const std::optional<int> ring = EnvInt("CELLFI_TRACE_RING")) {
        opt.ring_capacity = std::max(1, *ring);
      }
    }
    if (opt.enabled) {
      obs::TraceSinkConfig sink_cfg;
      sink_cfg.ring_capacity = static_cast<std::size_t>(std::max(1, opt.ring_capacity));
      sink_cfg.jsonl_path = opt.trace_path;
      trace = std::make_shared<obs::TraceSink>(sink_cfg);
      metrics = std::make_shared<obs::MetricsRegistry>();
      scope.emplace(trace.get(), metrics.get());
    }
    // Install the clock whenever any sink is reachable (ours or one the
    // caller scoped in) so ambient emits carry real sim time.
    if (obs::ActiveTrace() != nullptr || obs::ActiveMetrics() != nullptr) {
      clock.emplace([&sim] { return sim.Now(); });
    }
  }

  void Export(ScenarioResult& result) const {
    result.trace = trace;
    result.metrics = metrics;
  }
};

/// Effective fault plan for the run: the config's, or one loaded from the
/// CELLFI_CHAOS_PLAN env knob (path of a fault-plan JSON file — see README
/// "Chaos engine"). A malformed or unreadable file yields no plan rather
/// than a half-applied one.
std::optional<chaos::FaultPlan> ResolveChaosPlan(const ScenarioConfig& cfg) {
  if (cfg.chaos_plan.has_value()) return cfg.chaos_plan;
  if (const char* path = std::getenv("CELLFI_CHAOS_PLAN")) {
    if (path[0] != '\0') {
      std::ifstream file(path);
      if (file.is_open()) {
        std::ostringstream text;
        text << file.rdbuf();
        return chaos::FaultPlan::FromJsonText(text.str());
      }
    }
  }
  return std::nullopt;
}

double CarrierFor(PropagationKind kind) {
  return kind == PropagationKind::kIndoor5GHz ? 5.2e9 : 600e6;
}

RadioEnvironmentConfig EnvConfigFor(const ScenarioConfig& cfg) {
  RadioEnvironmentConfig c;
  c.carrier_freq_hz = CarrierFor(cfg.propagation);
  c.shadowing_sigma_db = cfg.shadowing_sigma_db;
  c.enable_fading = cfg.enable_fading;
  c.interference_floor_db = cfg.interference_floor_db;
  c.seed = cfg.seed ^ 0xE17E17E17ull;
  return c;
}

void Finalize(ScenarioResult& result, const ScenarioConfig& cfg) {
  int connected = 0;
  int starved = 0;
  double total = 0.0;
  for (ClientOutcome& c : result.clients) {
    c.starved = c.throughput_bps < cfg.starvation_threshold_bps;
    if (c.attached && !c.starved) ++connected;
    if (c.starved) ++starved;
    total += c.throughput_bps;
    result.client_throughput_mbps.Add(c.throughput_bps / 1e6);
    for (double plt : c.page_load_times_s) result.page_load_times_s.Add(plt);
  }
  const double n = std::max<std::size_t>(result.clients.size(), 1);
  result.fraction_connected = connected / n;
  result.fraction_starved = starved / n;
  result.total_throughput_bps = total;
}

ScenarioResult RunLteBased(const ScenarioConfig& cfg, const Topology& topo) {
  Simulator sim;
  ObsSession obs_session(cfg, sim);
  RadioEnvironment env(PathLossFor(cfg.propagation), EnvConfigFor(cfg));
  lte::LteNetworkConfig net_cfg;
  net_cfg.use_interference_engine = cfg.use_interference_engine;
  net_cfg.shards = cfg.shards;
  net_cfg.shard_threads = cfg.shard_threads;
  net_cfg.seed = cfg.seed ^ 0x17;
  lte::LteNetwork net(sim, env, net_cfg);

  lte::LteMacConfig mac;
  mac.bandwidth = cfg.lte_bandwidth;
  mac.tdd_config = cfg.lte_tdd_config;
  if (cfg.tech == Technology::kLaaLte) {
    mac.access_mode = lte::AccessMode::kListenBeforeTalk;
  }

  std::vector<RadioNodeId> ap_radios;
  for (const Point& p : topo.aps) {
    const RadioNodeId r = env.AddNode({.position = p, .tx_power_dbm = cfg.ap_power_dbm});
    net.AddCell(mac, r);
    ap_radios.push_back(r);
  }
  std::vector<RadioNodeId> ue_radios;
  std::vector<lte::UeId> ues;
  for (std::size_t u = 0; u < topo.clients.size(); ++u) {
    const RadioNodeId r =
        env.AddNode({.position = topo.clients[u], .tx_power_dbm = cfg.client_power_dbm});
    ue_radios.push_back(r);
    const lte::CellId home =
        cfg.home_ap_association ? static_cast<lte::CellId>(topo.client_home_ap[u])
                                : lte::kInvalidCell;
    ues.push_back(net.AddUe(r, home));
  }

  // Oracle: centralized allocation from perfect topology knowledge.
  if (cfg.tech == Technology::kOracle) {
    const int s_total = lte::EnodeB(0, mac).grid().num_subchannels();
    const double subch_bw = lte::EnodeB(0, mac).grid().rbg_size() * kRbBandwidthHz;
    // Predict attachment (home AP, or strongest-cell when roaming is on).
    std::vector<int> clients_per_cell(topo.aps.size(), 0);
    std::vector<int> client_cell(ue_radios.size(), -1);
    for (std::size_t u = 0; u < ue_radios.size(); ++u) {
      if (cfg.home_ap_association) {
        client_cell[u] = topo.client_home_ap[u];
      } else {
        double best = -1e9;
        for (std::size_t a = 0; a < ap_radios.size(); ++a) {
          const double rsrp = env.MeanRxPowerDbm(ap_radios[a], ue_radios[u]);
          if (rsrp > best) {
            best = rsrp;
            client_cell[u] = static_cast<int>(a);
          }
        }
      }
      if (env.MeanSnrDb(ap_radios[static_cast<std::size_t>(client_cell[u])], ue_radios[u],
                        OccupiedBandwidthHz(cfg.lte_bandwidth)) < -6.7) {
        client_cell[u] = -1;  // out of range
      } else {
        ++clients_per_cell[static_cast<std::size_t>(client_cell[u])];
      }
    }
    // Conflict graph: cells i != j conflict if some client of i receives
    // cell j within 7 dB of its serving power (interference-limited link:
    // co-scheduling them on a subchannel would badly degrade the client).
    baseline::OracleInput oracle;
    oracle.num_subchannels = s_total;
    oracle.clients_per_cell = clients_per_cell;
    oracle.conflicts.assign(topo.aps.size(), {});
    (void)subch_bw;
    for (std::size_t i = 0; i < topo.aps.size(); ++i) {
      for (std::size_t j = 0; j < topo.aps.size(); ++j) {
        if (i == j) continue;
        bool conflict = false;
        for (std::size_t u = 0; u < ue_radios.size(); ++u) {
          if (client_cell[u] != static_cast<int>(i)) continue;
          const double sir = env.MeanRxPowerDbm(ap_radios[i], ue_radios[u]) -
                             env.MeanRxPowerDbm(ap_radios[j], ue_radios[u]);
          if (sir < 7.0) {
            conflict = true;
            break;
          }
        }
        if (conflict) oracle.conflicts[i].push_back(static_cast<int>(j));
      }
    }
    // Symmetrize.
    for (std::size_t i = 0; i < oracle.conflicts.size(); ++i) {
      for (int j : oracle.conflicts[i]) {
        auto& back = oracle.conflicts[static_cast<std::size_t>(j)];
        if (std::find(back.begin(), back.end(), static_cast<int>(i)) == back.end()) {
          back.push_back(static_cast<int>(i));
        }
      }
    }
    const auto masks = baseline::OracleAllocate(oracle);
    for (std::size_t c = 0; c < masks.size(); ++c) {
      net.SetAllowedMask(static_cast<lte::CellId>(c), masks[c]);
    }
  }

  std::unique_ptr<core::CellfiController> controller;
  if (cfg.tech == Technology::kCellFi) {
    core::CellfiControllerConfig ctl = cfg.cellfi;
    ctl.seed = cfg.seed ^ 0x51;
    controller = std::make_unique<core::CellfiController>(sim, net, ctl);
    controller->Start();
  }

  // --- Aggregate background-load tier (DESIGN.md §18) ------------------------
  // A fluid per-cell population rides alongside the fully-simulated UEs:
  // PRB occupancy enters through SetBackgroundLoad (real on-air
  // interference plus real scheduler pressure), PRACH contention through
  // the controller's aggregate sensor input. Every quantity below is
  // counter-drawn from the derived seed — no stateful RNG and no events
  // beyond the serial epoch tick — so enabling the tier preserves all
  // bit-identity gates (threads, shards, SIMD).
  traffic::AggregateLoadConfig agg_cfg = cfg.aggregate_load;
  if (agg_cfg.users_per_cell <= 0) {
    if (const std::optional<int> users = EnvInt("CELLFI_AGG_LOAD")) {
      agg_cfg.users_per_cell = std::max(0, *users);
    }
  }
  std::optional<traffic::AggregateLoad> agg;
  if (agg_cfg.users_per_cell > 0 && !topo.aps.empty()) {
    agg_cfg.seed = cfg.seed ^ 0xA66A;
    agg.emplace(agg_cfg);
    const int num_cells = static_cast<int>(topo.aps.size());
    const int clusters = std::max(1, agg_cfg.clusters_per_cell);

    // Cluster anchors stand in for the population's spatial mass: placed
    // uniformly in the client disc of their AP, they never transmit — the
    // environment only answers link-gain queries here, once, to decide
    // which observer cells would hear each cluster's preambles under the
    // same open-loop power control + detection threshold
    // LteNetwork::EmitPrach applies to real UEs.
    std::vector<std::vector<int>> audible(
        static_cast<std::size_t>(num_cells) * static_cast<std::size_t>(clusters));
    std::vector<std::uint8_t> pair_audible(
        static_cast<std::size_t>(num_cells) * static_cast<std::size_t>(num_cells), 0);
    for (int c = 0; c < num_cells; ++c) {
      for (int k = 0; k < clusters; ++k) {
        const double u1 = traffic::AggregateLoad::NormalizedDraw(
            agg_cfg.seed, static_cast<std::uint64_t>(c),
            static_cast<std::uint64_t>(k), 0xC1);
        const double u2 = traffic::AggregateLoad::NormalizedDraw(
            agg_cfg.seed, static_cast<std::uint64_t>(c),
            static_cast<std::uint64_t>(k), 0xC2);
        const double r = cfg.topology.client_radius_m * std::sqrt(u1);
        const Point ap = topo.aps[static_cast<std::size_t>(c)];
        const RadioNodeId cluster_radio = env.AddNode(
            {.position = Point{ap.x + r * std::cos(kTau * u2),
                               ap.y + r * std::sin(kTau * u2)},
             .tx_power_dbm = cfg.client_power_dbm});
        const double gain_to_serving =
            env.LinkGainDb(cluster_radio, ap_radios[static_cast<std::size_t>(c)]);
        const double tx_dbm =
            net_cfg.prach_power_control
                ? std::min(net_cfg.prach_target_rx_dbm - gain_to_serving,
                           cfg.client_power_dbm)
                : cfg.client_power_dbm;
        for (int o = 0; o < num_cells; ++o) {
          const double rx_dbm =
              tx_dbm + env.LinkGainDb(cluster_radio,
                                      ap_radios[static_cast<std::size_t>(o)]);
          const double snr =
              rx_dbm -
              NoisePowerDbm(kPrachBandwidthHz,
                            env.node(ap_radios[static_cast<std::size_t>(o)])
                                .noise_figure_db);
          if (snr < net_cfg.prach_detect_snr_db) continue;
          audible[static_cast<std::size_t>(c * clusters + k)].push_back(o);
          pair_audible[static_cast<std::size_t>(o * num_cells + c)] = 1;
        }
      }
    }

    const SimTime agg_period =
        static_cast<SimTime>(std::llround(agg_cfg.epoch_s * kSecond));
    // One tick per generator epoch, run serially on the event loop: push
    // each cell's utilization into the MAC, refresh every audible
    // (observer, serving) contender count (zeros included, so loads that
    // fall expire into fresh zeros instead of lingering), and emit the
    // per-cell offered-load gauge / utilization histogram / trace event.
    auto agg_step = std::make_shared<std::function<void()>>(
        [&sim, &net, &controller, &agg, num_cells, clusters,
         audible = std::move(audible), pair_audible = std::move(pair_audible),
         counts = std::vector<int>(
             static_cast<std::size_t>(num_cells) * static_cast<std::size_t>(num_cells),
             0),
         epoch = std::int64_t{0}]() mutable {
          std::fill(counts.begin(), counts.end(), 0);
          for (int c = 0; c < num_cells; ++c) {
            const traffic::CellLoadSample s = agg->Sample(c, epoch);
            net.SetBackgroundLoad(static_cast<lte::CellId>(c), s.utilization);
            if (controller != nullptr) {
              const std::vector<int> split = agg->ClusterSplit(s.active_users);
              for (int k = 0; k < clusters; ++k) {
                if (split[static_cast<std::size_t>(k)] == 0) continue;
                for (int o : audible[static_cast<std::size_t>(c * clusters + k)]) {
                  counts[static_cast<std::size_t>(o * num_cells + c)] +=
                      split[static_cast<std::size_t>(k)];
                }
              }
            }
            if (obs::MetricsRegistry* m = obs::ActiveMetrics()) {
              m->Set(m->Gauge("traffic.agg.offered_bps.c" + std::to_string(c)),
                     s.offered_bps);
              m->Observe(m->Histogram("traffic.agg.utilization",
                                      obs::FractionBounds()),
                         s.utilization);
            }
            if (obs::TraceSink* tr = obs::ActiveTrace()) {
              // Integer fields only (rounded percent for utilization) so
              // the golden diurnal trace stays byte-stable.
              tr->Emit(sim.Now(), "traffic", "agg_load",
                       {{"cell", c},
                        {"epoch", epoch},
                        {"active", s.active_users},
                        {"util_pct",
                         static_cast<int>(std::lround(s.utilization * 100.0))}});
            }
          }
          if (controller != nullptr) {
            for (int o = 0; o < num_cells; ++o) {
              for (int c = 0; c < num_cells; ++c) {
                if (!pair_audible[static_cast<std::size_t>(o * num_cells + c)]) continue;
                controller->SetAggregateContenders(
                    static_cast<lte::CellId>(o), static_cast<lte::CellId>(c),
                    counts[static_cast<std::size_t>(o * num_cells + c)]);
              }
            }
          }
          ++epoch;
        });
    // Epoch 0 applies at t = 0 (the tier is live from the first subframe),
    // then once per generator epoch.
    sim.ScheduleAfter(0, [&sim, agg_step, agg_period] {
      (*agg_step)();
      sim.SchedulePeriodic(agg_period, [agg_step] { (*agg_step)(); });
    });
  }

  // --- Chaos injection (DESIGN.md §14) ---------------------------------------
  // Crash events deactivate the cell (instant off-air) and reactivate it
  // after the event's reboot duration; load shocks scale the backlogged
  // offered load per cell. Without a plan the scale stays 1.0 and the
  // schedule below is byte-identical to a chaos-free run.
  std::vector<double> cell_load_scale(topo.aps.size(), 1.0);
  const std::optional<chaos::FaultPlan> chaos_plan = ResolveChaosPlan(cfg);
  std::optional<chaos::FaultScheduler> chaos_sched;
  if (chaos_plan.has_value()) {
    const int num_cells = static_cast<int>(topo.aps.size());
    chaos::FaultHooks hooks;
    hooks.crash_ap = [&sim, &net, num_cells](int ap, const chaos::FaultEvent& e) {
      if (ap < 0 || ap >= num_cells) return;
      const lte::CellId cell = static_cast<lte::CellId>(ap);
      net.SetCellActive(cell, false);
      const SimTime reboot = e.duration > 0 ? e.duration : 2 * kSecond;
      sim.ScheduleAfter(reboot, [&net, cell] { net.SetCellActive(cell, true); });
    };
    hooks.load_shock_begin = [&cell_load_scale](const chaos::FaultEvent& e) {
      const double scale = e.magnitude > 0.0 ? e.magnitude : 1.0;
      if (e.target < 0) {
        std::fill(cell_load_scale.begin(), cell_load_scale.end(), scale);
      } else if (e.target < static_cast<int>(cell_load_scale.size())) {
        cell_load_scale[static_cast<std::size_t>(e.target)] = scale;
      }
    };
    hooks.load_shock_end = [&cell_load_scale](const chaos::FaultEvent& e) {
      if (e.target < 0) {
        std::fill(cell_load_scale.begin(), cell_load_scale.end(), 1.0);
      } else if (e.target < static_cast<int>(cell_load_scale.size())) {
        cell_load_scale[static_cast<std::size_t>(e.target)] = 1.0;
      }
    };
    chaos_sched.emplace(sim, *chaos_plan, std::move(hooks), num_cells);
    chaos_sched->Arm();
  }

  // --- Traffic and accounting ------------------------------------------------
  std::vector<std::uint64_t> measured_bits(ues.size(), 0);
  traffic::FlowTracker tracker;
  std::vector<std::unique_ptr<traffic::WebSession>> sessions;

  net.on_dl_delivered = [&](lte::UeId ue, std::uint64_t bytes, SimTime now) {
    if (now >= cfg.warmup) measured_bits[static_cast<std::size_t>(ue)] += 8 * bytes;
    tracker.OnDelivered(static_cast<traffic::ClientId>(ue), bytes, now);
  };

  Rng traffic_rng(cfg.seed ^ 0x7EB);
  if (cfg.workload == WorkloadKind::kBacklogged) {
    // Keep every connected client's queue topped up; a load shock on the
    // client's home cell scales the offered bytes.
    sim.SchedulePeriodic(500 * kMillisecond, [&] {
      for (std::size_t u = 0; u < ues.size(); ++u) {
        const auto cell = static_cast<std::size_t>(topo.client_home_ap[u]);
        const double scale =
            cell < cell_load_scale.size() ? cell_load_scale[cell] : 1.0;
        net.OfferDownlink(ues[u],
                          static_cast<std::uint64_t>((4 << 20) * scale));
      }
    });
  } else {
    tracker.on_flow_complete = [&](const traffic::FlowRecord& rec) {
      sessions[static_cast<std::size_t>(rec.client)]->OnFlowComplete(rec);
    };
    for (std::size_t u = 0; u < ues.size(); ++u) {
      sessions.push_back(std::make_unique<traffic::WebSession>(
          sim, tracker, static_cast<traffic::ClientId>(ues[u]), cfg.web,
          [&](traffic::ClientId client, std::uint64_t bytes) {
            net.OfferDownlink(static_cast<lte::UeId>(client), bytes);
          },
          traffic_rng.Fork()));
      sessions.back()->Start();
    }
  }

  net.Start();
  sim.RunUntil(cfg.duration);

  ScenarioResult result;
  const double window_s = ToSeconds(cfg.duration - cfg.warmup);
  for (std::size_t u = 0; u < ues.size(); ++u) {
    ClientOutcome outcome;
    outcome.throughput_bps = static_cast<double>(measured_bits[u]) / window_s;
    outcome.attached = net.ue(ues[u]).connected_time > 0;
    if (!sessions.empty()) {
      outcome.pages_completed = sessions[u]->pages_completed();
      outcome.pages_started = sessions[u]->pages_started();
      outcome.page_load_times_s = sessions[u]->page_load_times();
    }
    result.clients.push_back(std::move(outcome));
  }
  if (controller != nullptr) {
    result.im_total_hops = controller->total_hops();
    result.im_cells_still_hopping = controller->cells_hopping_recently();
  }
  if (chaos_sched.has_value()) {
    result.chaos_faults_injected = chaos_sched->injected();
  }
  Finalize(result, cfg);
  obs_session.Export(result);
  return result;
}

ScenarioResult RunWifi(const ScenarioConfig& cfg, const Topology& topo) {
  Simulator sim;
  ObsSession obs_session(cfg, sim);
  RadioEnvironment env(PathLossFor(cfg.propagation), EnvConfigFor(cfg));
  wifi::WifiMacConfig mac;
  mac.channel_width_hz = cfg.wifi_channel_width_hz;
  mac.clock_scale =
      cfg.tech == Technology::kWifi80211af ? cfg.wifi_clock_scale : 1.0;
  wifi::WifiNetwork net(sim, env, mac, cfg.seed ^ 0x3F);

  for (const Point& p : topo.aps) {
    net.AddAp(env.AddNode({.position = p, .tx_power_dbm = cfg.ap_power_dbm}));
  }
  std::vector<wifi::StaId> stas;
  for (std::size_t u = 0; u < topo.clients.size(); ++u) {
    const wifi::ApId home =
        cfg.home_ap_association ? static_cast<wifi::ApId>(topo.client_home_ap[u]) : -1;
    stas.push_back(net.AddSta(
        env.AddNode({.position = topo.clients[u], .tx_power_dbm = cfg.wifi_client_power_dbm}),
        home));
  }

  std::vector<std::uint64_t> measured_bits(stas.size(), 0);
  traffic::FlowTracker tracker;
  std::vector<std::unique_ptr<traffic::WebSession>> sessions;

  net.on_delivered = [&](wifi::StaId sta, std::uint64_t bytes, SimTime now) {
    if (now >= cfg.warmup) measured_bits[static_cast<std::size_t>(sta)] += 8 * bytes;
    tracker.OnDelivered(static_cast<traffic::ClientId>(sta), bytes, now);
  };

  Rng traffic_rng(cfg.seed ^ 0x7EB);
  if (cfg.workload == WorkloadKind::kBacklogged) {
    sim.SchedulePeriodic(500 * kMillisecond, [&] {
      for (wifi::StaId sta : stas) {
        net.OfferDownlink(sta, 4 << 20);
      }
    });
  } else {
    tracker.on_flow_complete = [&](const traffic::FlowRecord& rec) {
      sessions[static_cast<std::size_t>(rec.client)]->OnFlowComplete(rec);
    };
    for (std::size_t s = 0; s < stas.size(); ++s) {
      sessions.push_back(std::make_unique<traffic::WebSession>(
          sim, tracker, static_cast<traffic::ClientId>(stas[s]), cfg.web,
          [&](traffic::ClientId client, std::uint64_t bytes) {
            net.OfferDownlink(static_cast<wifi::StaId>(client), bytes);
          },
          traffic_rng.Fork()));
      sessions.back()->Start();
    }
  }

  net.Start();
  sim.RunUntil(cfg.duration);

  ScenarioResult result;
  const double window_s = ToSeconds(cfg.duration - cfg.warmup);
  for (std::size_t s = 0; s < stas.size(); ++s) {
    ClientOutcome outcome;
    outcome.throughput_bps = static_cast<double>(measured_bits[s]) / window_s;
    outcome.attached = net.sta_stats(stas[s]).associated;
    if (!sessions.empty()) {
      outcome.pages_completed = sessions[s]->pages_completed();
      outcome.pages_started = sessions[s]->pages_started();
      outcome.page_load_times_s = sessions[s]->page_load_times();
    }
    result.clients.push_back(std::move(outcome));
  }
  Finalize(result, cfg);
  obs_session.Export(result);
  return result;
}

}  // namespace

ScenarioResult RunScenarioOn(const ScenarioConfig& cfg, const Topology& topo) {
  switch (cfg.tech) {
    case Technology::kWifi80211af:
    case Technology::kWifi80211ac:
      return RunWifi(cfg, topo);
    default:
      return RunLteBased(cfg, topo);
  }
}

ScenarioResult RunScenario(const ScenarioConfig& cfg) {
  Rng rng(cfg.seed);
  const Topology topo = GenerateTopology(cfg.topology, rng);
  return RunScenarioOn(cfg, topo);
}

}  // namespace cellfi::scenario
