// perfbench driver: one replication of a named benchmark workload, built
// layer by layer from the same public calls the scenario harness makes
// (GenerateTopology, RadioEnvironment::AddNode, LteNetwork::AddCell/AddUe/
// OfferDownlink/Start, CellfiController construction and Start), then
// advanced one 1 ms subframe at a time with Simulator::RunUntil.
//
// Building the stack by hand instead of calling RunScenarioOn lets the
// benchmark time set-up apart from the steady phase and, in traced mode,
// time every call into a layer from outside the program: the public hooks
// on_cqi_report / on_prach (installed by the CellfiController constructor)
// and on_dl_delivered are wrapped, and each setup call is bracketed.
//
//   perfbench_driver --workload <name> --seed <scenario seed> [--trace]
//       prints one JSON line describing the replication
//   perfbench_driver --workload <name> --seed <n> --repeat <k>
//       runs the replication k times in one process, one line each (the
//       second and later lines show the warm-process run-order artifact)
//   perfbench_driver --equivalence
//       checks, at reduced size, that this driver's ResultToJson bytes equal
//       RunScenarioOn's for fig9_cellfi and metro_lte on the same config and
//       topology (traced and untraced); exit 1 on any mismatch
//
// The driver refuses to run when any CELLFI_* environment knob is set, so
// the measured program always runs at its defaults.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cellfi/chaos/invariants.h"
#include "cellfi/common/simd.h"
#include "cellfi/core/cellfi_controller.h"
#include "cellfi/lte/network.h"
#include "cellfi/obs/metrics.h"
#include "cellfi/obs/trace.h"
#include "cellfi/radio/mobility.h"
#include "cellfi/radio/pathloss.h"
#include "cellfi/scenario/report.h"
#include "cellfi/traffic/flow_tracker.h"
#include "fig9_common.h"

extern char** environ;

namespace {

using namespace cellfi;
using namespace cellfi::scenario;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Spans ---------------------------------------------------------------------
// Aggregated per span name: calls, total duration, self time (duration
// minus the time covered by child spans) and the longest single call.
struct SpanStat {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  double max_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  void Open() { stack_.push_back(Frame{Clock::now(), 0.0}); }
  /// Closes the innermost span into `stat`; returns its self time.
  double Close(SpanStat& stat) {
    const Frame f = stack_.back();
    stack_.pop_back();
    const double dur = SecondsBetween(f.start, Clock::now());
    const double self = dur - f.child_s;
    ++stat.calls;
    stat.total_s += dur;
    stat.self_s += self;
    stat.max_s = std::max(stat.max_s, dur);
    if (!stack_.empty()) stack_.back().child_s += dur;
    return self;
  }

 private:
  struct Frame {
    Clock::time_point start;
    double child_s;
  };
  bool on_;
  std::vector<Frame> stack_;
};

/// RAII span; free when tracing is off.
class Span {
 public:
  Span(Tracer& tracer, SpanStat& stat) : tracer_(tracer.on() ? &tracer : nullptr), stat_(stat) {
    if (tracer_ != nullptr) tracer_->Open();
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->Close(stat_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  SpanStat& stat_;
};

struct LayerStats {
  SpanStat topology, add_node, add_cell_ue, core_init, start;
  SpanStat step, offer_downlink, cqi_report, prach, dl_delivered;
  double first_subframe_s = 0.0;  // includes any lazy first-step set-up
  std::vector<double> step_self_us;
  std::uint64_t moves = 0;
};

// --- Workloads -------------------------------------------------------------------
struct Workload {
  ScenarioConfig cfg;
  bool mobile = false;
};

std::optional<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                     bool reduced) {
  Workload w;
  if (name == "fig9_cellfi") {
    // Paper Section 6.3.4 dense variant: 14 random APs x 16 clients,
    // suburban UHF, fading on, backlogged, static clients.
    w.cfg = fig9::BaseConfig(Technology::kCellFi, reduced ? 4 : 14, reduced ? 4 : 16, seed);
    w.cfg.warmup = 1 * kSecond;
    w.cfg.duration = 2 * kSecond;
  } else if (name == "fig9_lte_mobile") {
    // Same deployment, plain LTE, roaming pedestrians with handover.
    w.cfg = fig9::BaseConfig(Technology::kLte, reduced ? 4 : 14, reduced ? 4 : 16, seed);
    w.cfg.home_ap_association = false;
    w.cfg.warmup = 1 * kSecond;
    w.cfg.duration = 2 * kSecond;
    w.mobile = true;
  } else if (name == "metro_lte") {
    // bench_scale's constant-density geometry at 128 cells x 3 clients,
    // fading off, static, short simulated time. At 256 cells the two N^2
    // link caches (8 MB each) live in the shared L3, and the steady phase
    // then measures the host's other tenants more than the program (see
    // README.md, "Noise on a shared host").
    const int cells = reduced ? 16 : 128;
    w.cfg = fig9::BaseConfig(Technology::kLte, cells, 3, seed);
    w.cfg.topology.area_m = 500.0 * std::sqrt(static_cast<double>(cells));
    w.cfg.enable_fading = false;
    w.cfg.warmup = 500 * kMillisecond;
    w.cfg.duration = (reduced ? 1 : 2) * kSecond;
  } else {
    return std::nullopt;
  }
  return w;
}

// --- Mirrors of the harness's private helpers (same values; the
// equivalence check proves they stay in step with RunScenarioOn). -----------
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

RadioEnvironmentConfig EnvConfigFor(const ScenarioConfig& cfg) {
  RadioEnvironmentConfig c;
  c.carrier_freq_hz = cfg.propagation == PropagationKind::kIndoor5GHz ? 5.2e9 : 600e6;
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
  }
  const double n = static_cast<double>(std::max<std::size_t>(result.clients.size(), 1));
  result.fraction_connected = connected / n;
  result.fraction_starved = starved / n;
  result.total_throughput_bps = total;
}

// --- One replication ----------------------------------------------------------------
struct ReplicationRun {
  ScenarioResult result;
  std::string result_json;
  std::uint64_t sim_events = 0;
  std::uint64_t dl_bits = 0;
  std::int64_t subframes = 0;
  double setup_s = 0.0;
  double steady_s = 0.0;
  std::vector<double> step_us;
  LayerStats layers;
  std::uint64_t handovers = 0;
  std::uint64_t disconnections = 0;
  int shards = 0;
  int shard_threads = 0;
  std::uint64_t invariant_checks = 0;
  std::uint64_t invariant_violations = 0;
  std::uint64_t harq_failures = 0;
  std::uint64_t dl_delivered_bytes = 0;
  std::uint64_t dl_blocks = 0;
  std::size_t radio_nodes = 0;
};

ReplicationRun RunReplication(const Workload& w, bool traced) {
  const ScenarioConfig& cfg = w.cfg;
  ReplicationRun rep;
  LayerStats& L = rep.layers;
  Tracer tracer(traced);

  // Invariants are checked in record mode on every run; obs metrics only
  // when traced (they feed lte.harq_fail_ratio).
  chaos::InvariantChecker checker;
  chaos::InvariantScope invariant_scope(&checker);
  obs::MetricsRegistry registry;
  std::optional<obs::ObsScope> obs_scope;
  if (traced) obs_scope.emplace(nullptr, &registry);

  const Clock::time_point t_setup = Clock::now();
  Simulator sim;
  std::optional<obs::ClockScope> clock_scope;
  if (traced) clock_scope.emplace([&sim] { return sim.Now(); });

  Topology topo;
  {
    Span span(tracer, L.topology);
    Rng rng(cfg.seed);
    topo = GenerateTopology(cfg.topology, rng);
  }

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

  const auto add_node = [&](Point p, double power_dbm) {
    Span span(tracer, L.add_node);
    return env.AddNode({.position = p, .tx_power_dbm = power_dbm});
  };
  for (const Point& p : topo.aps) {
    const RadioNodeId r = add_node(p, cfg.ap_power_dbm);
    Span span(tracer, L.add_cell_ue);
    net.AddCell(mac, r);
  }
  std::vector<RadioNodeId> ue_radios;
  std::vector<lte::UeId> ues;
  for (std::size_t u = 0; u < topo.clients.size(); ++u) {
    const RadioNodeId r = add_node(topo.clients[u], cfg.client_power_dbm);
    ue_radios.push_back(r);
    const lte::CellId home = cfg.home_ap_association
                                 ? static_cast<lte::CellId>(topo.client_home_ap[u])
                                 : lte::kInvalidCell;
    Span span(tracer, L.add_cell_ue);
    ues.push_back(net.AddUe(r, home));
  }

  std::unique_ptr<core::CellfiController> controller;
  if (cfg.tech == Technology::kCellFi) {
    Span span(tracer, L.core_init);
    core::CellfiControllerConfig ctl = cfg.cellfi;
    ctl.seed = cfg.seed ^ 0x51;
    controller = std::make_unique<core::CellfiController>(sim, net, ctl);
    controller->Start();
  }

  std::optional<RandomWaypointMobility> mobility;
  if (w.mobile) {
    MobilityConfig mcfg;
    mcfg.area_min = 0.0;
    mcfg.area_max = cfg.topology.area_m;
    mobility.emplace(sim, env, mcfg, cfg.seed ^ 0x30B1);
    for (RadioNodeId r : ue_radios) mobility->Attach(r);
    if (traced) mobility->on_moved = [&L](RadioNodeId, Point) { ++L.moves; };
  }

  // Layer hooks the controller installed, timed from outside when traced.
  if (traced && net.on_cqi_report) {
    net.on_cqi_report = [&tracer, &L, inner = net.on_cqi_report](
                            lte::CellId cell, lte::UeId ue, const CqiMeasurement& m) {
      Span span(tracer, L.cqi_report);
      inner(cell, ue, m);
    };
  }
  if (traced && net.on_prach) {
    net.on_prach = [&tracer, &L, inner = net.on_prach](const lte::PrachObservation& o) {
      Span span(tracer, L.prach);
      inner(o);
    };
  }

  std::vector<std::uint64_t> measured_bits(ues.size(), 0);
  traffic::FlowTracker tracker;
  net.on_dl_delivered = [&](lte::UeId ue, std::uint64_t bytes, SimTime now) {
    Span span(tracer, L.dl_delivered);
    rep.dl_bits += 8 * bytes;
    if (now >= cfg.warmup) measured_bits[static_cast<std::size_t>(ue)] += 8 * bytes;
    tracker.OnDelivered(static_cast<traffic::ClientId>(ue), bytes, now);
  };
  sim.SchedulePeriodic(500 * kMillisecond, [&] {
    for (lte::UeId ue : ues) {
      Span span(tracer, L.offer_downlink);
      net.OfferDownlink(ue, 4 << 20);
    }
  });

  {
    Span span(tracer, L.start);
    net.Start();
  }
  const Clock::time_point t_steady = Clock::now();
  rep.setup_s = SecondsBetween(t_setup, t_steady);

  rep.subframes = cfg.duration / kMillisecond;
  rep.step_us.reserve(static_cast<std::size_t>(rep.subframes));
  if (traced) L.step_self_us.reserve(static_cast<std::size_t>(rep.subframes));
  for (std::int64_t k = 1; k <= rep.subframes; ++k) {
    const Clock::time_point a = Clock::now();
    if (traced) tracer.Open();
    sim.RunUntil(k * kMillisecond);
    if (traced) L.step_self_us.push_back(tracer.Close(L.step) * 1e6);
    const Clock::time_point b = Clock::now();
    rep.step_us.push_back(SecondsBetween(a, b) * 1e6);
    if (k == 1) L.first_subframe_s = SecondsBetween(a, b);
  }
  rep.steady_s = SecondsBetween(t_steady, Clock::now());

  ScenarioResult& result = rep.result;
  const double window_s = ToSeconds(cfg.duration - cfg.warmup);
  for (std::size_t u = 0; u < ues.size(); ++u) {
    ClientOutcome outcome;
    outcome.throughput_bps = static_cast<double>(measured_bits[u]) / window_s;
    outcome.attached = net.ue(ues[u]).connected_time > 0;
    result.clients.push_back(std::move(outcome));
    rep.handovers += net.ue(ues[u]).handovers;
    rep.disconnections += net.ue(ues[u]).disconnections;
  }
  if (controller != nullptr) {
    result.im_total_hops = controller->total_hops();
    result.im_cells_still_hopping = controller->cells_hopping_recently();
  }
  Finalize(result, cfg);
  rep.result_json = ResultToJson(result).Dump();
  rep.sim_events = sim.executed_events();
  rep.radio_nodes = env.node_count();
  rep.shards = net.shard_count();
  rep.shard_threads = net.shard_thread_count();
  rep.invariant_checks = checker.checks_run();
  rep.invariant_violations = checker.violations().size();
  rep.harq_failures = registry.counter("lte.dl_harq_failures");
  rep.dl_delivered_bytes = registry.counter("lte.dl_delivered_bytes");
  rep.dl_blocks = L.dl_delivered.calls;
  return rep;
}

/// FNV-1a over the result bytes, the executed-event count and the
/// delivered downlink bits.
std::string Digest(const ReplicationRun& rep) {
  const std::string text = rep.result_json + "|" + std::to_string(rep.sim_events) + "|" +
                           std::to_string(rep.dl_bits);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

void PrintReplication(const std::string& workload, std::uint64_t seed, bool traced,
                      const ReplicationRun& rep) {
  const LayerStats& L = rep.layers;
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,\"simd_kernel\":\"%s\"",
              workload.c_str(), static_cast<unsigned long long>(seed),
              traced ? "true" : "false", simd::ActiveKernelName());
  std::printf(",\"digest\":\"%s\",\"sim_events\":%llu,\"dl_bits\":%llu,\"subframes\":%lld",
              Digest(rep).c_str(), static_cast<unsigned long long>(rep.sim_events),
              static_cast<unsigned long long>(rep.dl_bits),
              static_cast<long long>(rep.subframes));
  std::printf(",\"setup_s\":%.9g,\"steady_s\":%.9g,\"peak_rss_mb\":%.6f", rep.setup_s,
              rep.steady_s, PeakRssMb());
  std::printf(",\"invariant_checks\":%llu,\"invariant_violations\":%llu",
              static_cast<unsigned long long>(rep.invariant_checks),
              static_cast<unsigned long long>(rep.invariant_violations));
  std::printf(",\"step_us\":[");
  for (std::size_t i = 0; i < rep.step_us.size(); ++i) {
    std::printf(i == 0 ? "%.3f" : ",%.3f", rep.step_us[i]);
  }
  std::printf("]");
  if (traced) {
    const auto span = [](const char* name, const SpanStat& s) {
      std::printf(",\"%s\":{\"calls\":%llu,\"total_s\":%.9g,\"self_s\":%.9g,\"max_s\":%.9g}",
                  name, static_cast<unsigned long long>(s.calls), s.total_s, s.self_s,
                  s.max_s);
    };
    std::printf(",\"layers\":{\"radio_nodes\":%zu", rep.radio_nodes);
    span("topology", L.topology);
    span("add_node", L.add_node);
    span("add_cell_ue", L.add_cell_ue);
    span("core_init", L.core_init);
    span("start", L.start);
    std::printf(",\"first_subframe_s\":%.9g", L.first_subframe_s);
    span("step", L.step);
    span("offer_downlink", L.offer_downlink);
    span("cqi_report", L.cqi_report);
    span("prach", L.prach);
    span("dl_delivered", L.dl_delivered);
    std::printf(",\"step_self_p50_us\":%.6f,\"step_self_p99_us\":%.6f",
                Percentile(L.step_self_us, 0.50), Percentile(L.step_self_us, 0.99));
    std::printf(",\"moves\":%llu,\"handovers\":%llu,\"disconnections\":%llu",
                static_cast<unsigned long long>(L.moves),
                static_cast<unsigned long long>(rep.handovers),
                static_cast<unsigned long long>(rep.disconnections));
    std::printf(",\"hops\":%llu,\"cells_hopping\":%d,\"shards\":%d,\"shard_threads\":%d",
                static_cast<unsigned long long>(rep.result.im_total_hops),
                rep.result.im_cells_still_hopping, rep.shards,
                rep.shard_threads);
    std::printf(",\"harq_failures\":%llu,\"dl_delivered_bytes\":%llu,\"dl_blocks\":%llu}",
                static_cast<unsigned long long>(rep.harq_failures),
                static_cast<unsigned long long>(rep.dl_delivered_bytes),
                static_cast<unsigned long long>(rep.dl_blocks));
  }
  std::printf("}\n");
}

/// Reduced-size proof that the driver measures the program users run.
int CheckEquivalence() {
  int attempted = 0;
  int failed = 0;
  for (const char* name : {"fig9_cellfi", "metro_lte"}) {
    for (std::uint64_t seed : {1ull, 2ull}) {
      const Workload w = *MakeWorkload(name, seed, /*reduced=*/true);
      Rng rng(w.cfg.seed);
      const Topology topo = GenerateTopology(w.cfg.topology, rng);
      const std::string reference = ResultToJson(RunScenarioOn(w.cfg, topo)).Dump();
      for (bool traced : {false, true}) {
        const std::string mine = RunReplication(w, traced).result_json;
        ++attempted;
        const bool same = mine == reference;
        if (!same) ++failed;
        std::fprintf(stderr, "equivalence %s seed=%llu traced=%d: %s (%zu bytes)\n", name,
                     static_cast<unsigned long long>(seed), traced ? 1 : 0,
                     same ? "identical" : "MISMATCH", mine.size());
      }
    }
  }
  std::printf("{\"equivalence_attempted\":%d,\"equivalence_failed\":%d}\n", attempted, failed);
  return failed == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <fig9_cellfi|fig9_lte_mobile|metro_lte> "
               "--seed <n> [--trace] [--repeat <k>]\n       perfbench_driver --equivalence\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CELLFI_", 7) == 0) {
      std::fprintf(stderr, "perfbench_driver: refusing to run with %s set\n", *e);
      return 2;
    }
  }
  std::string workload;
  std::optional<std::uint64_t> seed;
  bool traced = false;
  bool equivalence = false;
  int repeat = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--repeat" && i + 1 < argc) {
      repeat = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--trace") {
      traced = true;
    } else if (arg == "--equivalence") {
      equivalence = true;
    } else {
      return Usage();
    }
  }
  if (equivalence) return CheckEquivalence();
  if (!seed.has_value()) return Usage();
  const std::optional<Workload> w = MakeWorkload(workload, *seed, /*reduced=*/false);
  if (!w.has_value()) return Usage();
  for (int r = 0; r < repeat; ++r) {
    PrintReplication(workload, *seed, traced, RunReplication(*w, traced));
  }
  return 0;
}
