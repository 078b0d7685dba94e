// The per-subframe interference engine's determinism contract (DESIGN.md
// §12): every path through InterferenceMap must be BIT-identical to the
// per-link summation of RadioEnvironment::SinrDb — same doubles, not just
// close — across fading on/off, cell activity toggles and mobility.
#include "cellfi/radio/interference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "cellfi/lte/network.h"
#include "cellfi/radio/pathloss.h"
#include "cellfi/scenario/harness.h"
#include "cellfi/scenario/report.h"
#include "golden_file.h"

namespace cellfi {
namespace {

RadioEnvironmentConfig EnvConfig(bool fading) {
  RadioEnvironmentConfig c;
  c.carrier_freq_hz = 600e6;
  c.shadowing_sigma_db = 4.0;
  c.enable_fading = fading;
  c.seed = 21;
  return c;
}

/// A receiver, a signal source and `n` interferers scattered over a 2 km
/// square, full-band flat PSD on 13 subchannels.
struct World {
  explicit World(const RadioEnvironmentConfig& cfg) : env(pathloss, cfg) {
    Rng rng(17);
    rx = env.AddNode({.position = {0, 0}});
    tx = env.AddNode({.position = {300, 100}, .tx_power_dbm = 30});
    for (int i = 0; i < 12; ++i) {
      others.push_back(env.AddNode({.position = {rng.Uniform(-2000, 2000),
                                                 rng.Uniform(-2000, 2000)},
                                    .tx_power_dbm = 30}));
    }
  }
  HataUrbanPathLoss pathloss;
  RadioEnvironment env;
  RadioNodeId rx = 0;
  RadioNodeId tx = 0;
  std::vector<RadioNodeId> others;
};

class InterferenceMapTest : public ::testing::TestWithParam<bool> {};

TEST_P(InterferenceMapTest, MatchesPerLinkSinrExactly) {
  const bool fading = GetParam();
  World w(EnvConfig(fading));
  InterferenceMap imap(w.env);
  imap.BeginEpoch(13, 360e3);
  // The signal source itself is in the lists (as in a real subframe) and
  // must be excluded at query time exactly as env::SinrDb does.
  std::vector<ActiveTransmitter> legacy;
  legacy.push_back({w.tx, 1.0 / 13.0});
  for (RadioNodeId n : w.others) legacy.push_back({n, 1.0 / 13.0});
  for (int s = 0; s < 13; ++s) {
    for (const ActiveTransmitter& t : legacy) imap.AddTransmitter(s, t.node, t.power_scale);
  }
  for (SimTime now = 0; now <= 100 * kMillisecond; now += 20 * kMillisecond) {
    for (int s = 0; s < 13; ++s) {
      const double engine = imap.SinrDb(w.tx, w.rx, s, now, 1.0 / 13.0);
      const double perlink =
          w.env.SinrDb(w.tx, w.rx, static_cast<std::uint32_t>(s), now, legacy, 360e3,
                       1.0 / 13.0);
      EXPECT_EQ(engine, perlink) << "fading=" << fading << " s=" << s << " t=" << now;
    }
  }
  // All 13 lists are identical -> one aggregation group.
  EXPECT_EQ(imap.num_groups(), 1);
}

TEST_P(InterferenceMapTest, DistinctListsPerSubchannelStayExact) {
  const bool fading = GetParam();
  World w(EnvConfig(fading));
  InterferenceMap imap(w.env);
  imap.BeginEpoch(13, 360e3);
  // Interferer i transmits only on subchannels s >= i. With 12 interferers
  // that makes subchannels 0..11 pairwise distinct while 11 and 12 share a
  // list — 12 aggregation groups, exercising dedup and distinctness both.
  std::vector<std::vector<ActiveTransmitter>> legacy(13);
  for (int s = 0; s < 13; ++s) {
    for (std::size_t i = 0; i <= static_cast<std::size_t>(s) && i < w.others.size(); ++i) {
      imap.AddTransmitter(s, w.others[i], 1.0 / 13.0);
      legacy[static_cast<std::size_t>(s)].push_back({w.others[i], 1.0 / 13.0});
    }
  }
  for (int s = 0; s < 13; ++s) {
    const double engine = imap.SinrDb(w.tx, w.rx, s, 5 * kMillisecond, 1.0 / 13.0);
    const double perlink =
        w.env.SinrDb(w.tx, w.rx, static_cast<std::uint32_t>(s), 5 * kMillisecond,
                     legacy[static_cast<std::size_t>(s)], 360e3, 1.0 / 13.0);
    EXPECT_EQ(engine, perlink) << "fading=" << fading << " s=" << s;
  }
  EXPECT_EQ(imap.num_groups(), 12);
}

TEST_P(InterferenceMapTest, RepeatedListsReuseTheEpochAndStayExact) {
  // Receiver rows outlive BeginEpoch whenever the lists repeat. Walk an
  // epoch sequence that reuses, leaves and re-enters the same lists, moves
  // a node under a reused epoch, and changes only the bandwidth or one
  // power scale; every query must still equal the per-link oracle bit for
  // bit, for several (signal source, signal scale) keys per receiver.
  const bool fading = GetParam();
  World w(EnvConfig(fading));
  InterferenceMap imap(w.env);
  using Lists = std::vector<std::vector<ActiveTransmitter>>;
  // A: the signal source everywhere plus interferer i unless (i + s) % 3 ==
  // 0 — three aggregation groups. B: A without the first interferer.
  Lists a(13);
  for (int s = 0; s < 13; ++s) {
    auto& list = a[static_cast<std::size_t>(s)];
    list.push_back({w.tx, 1.0 / 13.0});
    for (std::size_t i = 0; i < w.others.size(); ++i) {
      if ((i + static_cast<std::size_t>(s)) % 3 != 0) list.push_back({w.others[i], 1.0 / 13.0});
    }
  }
  Lists b = a;
  for (auto& list : b) {
    std::erase_if(list, [&](const ActiveTransmitter& t) { return t.node == w.others[0]; });
  }
  Lists a_scaled = a;
  a_scaled[4].back().power_scale = 1.0 / 26.0;

  struct Key {
    RadioNodeId tx;
    RadioNodeId rx;
    double signal_scale;
  };
  const std::vector<Key> keys = {{w.tx, w.rx, 1.0 / 13.0},         {w.tx, w.rx, 1.0},
                                 {w.others[1], w.rx, 1.0 / 13.0},  {w.tx, w.rx, 1.0 / 13.0},
                                 {w.tx, w.others[5], 1.0 / 13.0},  {w.tx, w.others[5], 0.5}};
  SimTime now = 0;
  auto run_epoch = [&](const Lists& lists, double bandwidth_hz, const char* when) {
    now += 30 * kMillisecond;  // with fading on, crosses coherence blocks
    imap.BeginEpoch(13, bandwidth_hz);
    for (int s = 0; s < 13; ++s) {
      for (const ActiveTransmitter& t : lists[static_cast<std::size_t>(s)]) {
        imap.AddTransmitter(s, t.node, t.power_scale);
      }
    }
    imap.Seal();
    for (const Key& k : keys) {
      for (int s = 0; s < 13; ++s) {
        const double oracle =
            w.env.SinrDb(k.tx, k.rx, static_cast<std::uint32_t>(s), now,
                         lists[static_cast<std::size_t>(s)], bandwidth_hz, k.signal_scale);
        EXPECT_EQ(imap.SinrDb(k.tx, k.rx, s, now, k.signal_scale), oracle)
            << when << " fading=" << fading << " tx=" << k.tx << " rx=" << k.rx
            << " scale=" << k.signal_scale << " s=" << s;
      }
    }
    return imap.epoch();
  };

  const std::uint64_t first = run_epoch(a, 360e3, "A");
  EXPECT_EQ(imap.num_groups(), 3);
  EXPECT_EQ(run_epoch(a, 360e3, "A again"), first);
  // An epoch begun and abandoned before Seal leaves the comparison base.
  imap.BeginEpoch(13, 360e3);
  imap.AddTransmitter(0, w.others[2], 1.0);
  EXPECT_EQ(run_epoch(a, 360e3, "A after an abandoned epoch"), first);
  const std::uint64_t after_b = run_epoch(b, 360e3, "B");
  EXPECT_GT(after_b, first);
  const std::uint64_t back_to_a = run_epoch(a, 360e3, "back to A");
  EXPECT_GT(back_to_a, after_b);
  // Mobility under a reused epoch: only position_epoch invalidates rows.
  w.env.MoveNode(w.others[3], {150, -80});
  EXPECT_EQ(run_epoch(a, 360e3, "A after MoveNode"), back_to_a);
  const std::uint64_t wide = run_epoch(a, 720e3, "A at another bandwidth");
  EXPECT_GT(wide, back_to_a);
  EXPECT_GT(run_epoch(a_scaled, 720e3, "A with one power scale changed"), wide);
}

INSTANTIATE_TEST_SUITE_P(FadingOnOff, InterferenceMapTest, ::testing::Bool());

// ---------------------------------------------------------------------------
// Network-level bit-identity: every MeasureDownlinkSinr value must equal a
// test-side oracle rebuilt from the committed downlink plans with the
// per-link RadioEnvironment::SinrDb and a written-out idle-CRS scan, at
// each step through activity toggles and mobility.
// ---------------------------------------------------------------------------

class OracleNetwork {
 public:
  OracleNetwork() : env_(pathloss_, EnvConfig(/*fading=*/false)), net_(sim_, env_, NetConfig()) {}

  static lte::LteNetworkConfig NetConfig() {
    lte::LteNetworkConfig c;
    c.seed = 11;
    return c;
  }

  lte::CellId AddCellAt(Point p) {
    cell_radios_.push_back(env_.AddNode({.position = p, .tx_power_dbm = 30.0}));
    lte::LteMacConfig mac;
    mac.bandwidth = LteBandwidth::k5MHz;
    mac.tdd_config = 4;
    return net_.AddCell(mac, cell_radios_.back());
  }

  lte::UeId AddUeAt(Point p) {
    ue_radios_.push_back(env_.AddNode({.position = p, .tx_power_dbm = 20.0}));
    return net_.AddUe(ue_radios_.back());
  }

  /// MeasureDownlinkSinr(ue) from first principles: interferers are the
  /// active cells whose committed downlink plan carries data on the
  /// subchannel, listed in cell-index order at power_scale 1/n, minus the
  /// idle-CRS coding penalty (~1 dB per comparable-power active
  /// neighbour, capped at 2 dB). Counts the interferer terms it used.
  std::vector<double> OracleSinr(lte::UeId ue) {
    const lte::UeInfo& info = net_.ue(ue);
    const ResourceGrid& grid = net_.cell(0).grid();
    const int n = grid.num_subchannels();
    std::vector<double> out(static_cast<std::size_t>(n), -40.0);
    if (info.serving == lte::kInvalidCell || !net_.cell_active(info.serving)) return out;
    const RadioNodeId signal = cell_radios_[static_cast<std::size_t>(info.serving)];

    double crs_penalty = 0.0;
    const double signal_mw = env_.MeanRxPowerMw(signal, info.radio);
    if (signal_mw > 0.0) {
      for (std::size_t c = 0; c < cell_radios_.size(); ++c) {
        const auto cell = static_cast<lte::CellId>(c);
        if (cell == info.serving || !net_.cell_active(cell)) continue;
        crs_penalty += std::min(1.0, env_.MeanRxPowerMw(cell_radios_[c], info.radio) / signal_mw);
      }
      crs_penalty = std::min(crs_penalty, 2.0);
    }

    const double share = 1.0 / static_cast<double>(n);
    std::vector<ActiveTransmitter> interferers;
    for (int s = 0; s < n; ++s) {
      interferers.clear();
      for (std::size_t c = 0; c < cell_radios_.size(); ++c) {
        const auto cell = static_cast<lte::CellId>(c);
        if (cell == info.serving || !net_.cell_active(cell)) continue;
        const lte::TxPlan* plan = net_.committed_dl_plan(cell);
        if (plan != nullptr && plan->data_active[static_cast<std::size_t>(s)]) {
          interferers.push_back(ActiveTransmitter{.node = cell_radios_[c], .power_scale = share});
        }
      }
      interferer_terms_ += interferers.size();
      out[static_cast<std::size_t>(s)] =
          env_.SinrDb(signal, info.radio, static_cast<std::uint32_t>(s), sim_.Now(),
                      interferers, grid.rbg_size() * kRbBandwidthHz, share) -
          crs_penalty;
    }
    return out;
  }

  HataUrbanPathLoss pathloss_;
  Simulator sim_;
  RadioEnvironment env_;
  lte::LteNetwork net_;
  std::vector<RadioNodeId> cell_radios_;
  std::vector<RadioNodeId> ue_radios_;
  std::size_t interferer_terms_ = 0;
};

/// Four loaded cells, so every UE sees three interferers per subchannel:
/// enough terms that a change in their summation order changes the bits.
lte::UeId LoadFourCells(OracleNetwork& d) {
  for (const Point cell : {Point{0, 0}, Point{900, 0}, Point{0, 900}, Point{900, 900}}) {
    d.AddCellAt(cell);
    d.AddUeAt(cell + Point{100, 50});
    d.AddUeAt(cell + Point{-150, 250});
  }
  const auto num_ues = static_cast<lte::UeId>(d.ue_radios_.size());
  d.net_.Start();
  d.sim_.RunUntil(300 * kMillisecond);
  for (lte::UeId u = 0; u < num_ues; ++u) d.net_.OfferDownlink(u, 8 << 20);
  d.sim_.RunUntil(500 * kMillisecond);
  return num_ues;
}

/// Every UE's MeasureDownlinkSinr equals the oracle bit for bit. With
/// `require_terms`, the oracle must have summed interferers (the check
/// sits in a loaded downlink subframe, so it is not vacuous).
void ExpectOracle(OracleNetwork& d, lte::UeId num_ues, const char* when,
                  bool require_terms = true) {
  const std::size_t terms_before = d.interferer_terms_;
  for (lte::UeId u = 0; u < num_ues; ++u) {
    const std::vector<double> engine = d.net_.MeasureDownlinkSinr(u);
    const std::vector<double> oracle = d.OracleSinr(u);
    ASSERT_EQ(engine.size(), oracle.size());
    for (std::size_t s = 0; s < engine.size(); ++s) {
      EXPECT_EQ(engine[s], oracle[s]) << when << " ue=" << u << " s=" << s;
    }
  }
  if (require_terms) {
    EXPECT_GT(d.interferer_terms_, terms_before) << when;
  }
}

TEST(InterferenceEngineNetworkTest, LockstepBitIdentityAcrossActivityAndMobility) {
  OracleNetwork d;
  const lte::UeId num_ues = LoadFourCells(d);
  ExpectOracle(d, num_ues, "steady state");

  // Activity toggle: the engine must invalidate its map and CRS cache.
  d.net_.SetCellActive(1, false);
  ExpectOracle(d, num_ues, "after deactivate");
  d.net_.SetCellActive(1, true);
  d.sim_.RunUntil(700 * kMillisecond);
  ExpectOracle(d, num_ues, "after reactivate + run");

  // Mobility: position_epoch must invalidate the aggregate rows and the
  // CRS cache, both within the current map epoch and across later ones.
  d.env_.MoveNode(d.ue_radios_[0], {700, 120});
  ExpectOracle(d, num_ues, "after mobility");
  d.sim_.RunUntil(900 * kMillisecond);
  ExpectOracle(d, num_ues, "after mobility + run");
}

TEST(InterferenceEngineNetworkTest, MeasureBetweenSubframesAcrossUplink) {
  // Uplink subframes resolve on their own map and leave the downlink map's
  // rows in place, but they overwrite the committed plans: a measurement
  // right after one must see no downlink data, and the next downlink
  // subframe must rebuild from its own plans.
  OracleNetwork d;
  const lte::UeId num_ues = LoadFourCells(d);
  const TddConfig& tdd = d.net_.cell(0).tdd();
  SimTime t = d.sim_.Now() + kSubframeDuration;
  while (tdd.TypeAt(t) != SubframeType::kUplink) t += kSubframeDuration;
  d.sim_.RunUntil(t);
  ExpectOracle(d, num_ues, "right after an uplink subframe", /*require_terms=*/false);
  while (tdd.TypeAt(t) != SubframeType::kDownlink) t += kSubframeDuration;
  d.sim_.RunUntil(t);
  ExpectOracle(d, num_ues, "after the next downlink subframe");
}

// ---------------------------------------------------------------------------
// Scenario-level regression: full RunScenario outcomes on fig9a-style
// topologies, byte-compared with golden reports recorded when the engine
// still ran next to the per-link path it replaced (and matched it bit for
// bit) — fading off (the aggregate cache + CellFi masks) and fading on
// (the per-link fallback).
// ---------------------------------------------------------------------------

scenario::ScenarioConfig ScenarioFor(scenario::Technology tech, bool fading) {
  scenario::ScenarioConfig cfg;
  cfg.tech = tech;
  cfg.workload = scenario::WorkloadKind::kBacklogged;
  cfg.propagation = scenario::PropagationKind::kSuburbanUhf;
  cfg.topology.area_m = 1500.0;
  cfg.topology.num_aps = 5;
  cfg.topology.clients_per_ap = 2;
  cfg.topology.client_radius_m = 250.0;
  cfg.ap_power_dbm = 30.0;
  cfg.lte_bandwidth = LteBandwidth::k5MHz;
  cfg.lte_tdd_config = 4;
  cfg.warmup = 1 * kSecond;
  cfg.duration = 3 * kSecond;
  cfg.enable_fading = fading;
  cfg.seed = 41;
  return cfg;
}

TEST(InterferenceEngineScenarioTest, MatchesGoldenCellFiNoFading) {
  const auto cfg = ScenarioFor(scenario::Technology::kCellFi, false);
  const auto result = scenario::RunScenario(cfg);
  EXPECT_GT(result.total_throughput_bps, 0.0);
  ExpectMatchesGolden("scenario_cellfi_nofading.json",
                      scenario::ResultToJson(result).Dump());
}

TEST(InterferenceEngineScenarioTest, MatchesGoldenLteWithFading) {
  const auto cfg = ScenarioFor(scenario::Technology::kLte, true);
  const auto result = scenario::RunScenario(cfg);
  EXPECT_GT(result.total_throughput_bps, 0.0);
  ExpectMatchesGolden("scenario_lte_fading.json",
                      scenario::ResultToJson(result).Dump());
}

TEST(InterferenceEngineConfigTest, DisablingTheEngineThrows) {
  HataUrbanPathLoss pathloss;
  Simulator sim;
  RadioEnvironment env(pathloss, EnvConfig(/*fading=*/false));
  lte::LteNetworkConfig net_cfg;
  net_cfg.use_interference_engine = false;
  EXPECT_THROW(lte::LteNetwork(sim, env, net_cfg), std::invalid_argument);

  auto cfg = ScenarioFor(scenario::Technology::kLte, false);
  cfg.use_interference_engine = false;
  EXPECT_THROW(scenario::RunScenario(cfg), std::invalid_argument);

  // The retired interference cull: a positive floor is rejected where the
  // environment is built, both directly and through RunScenario; <= 0
  // always meant "cull off" and is still accepted.
  RadioEnvironmentConfig cull_cfg = EnvConfig(/*fading=*/false);
  cull_cfg.interference_floor_db = 30.0;
  EXPECT_THROW(RadioEnvironment(pathloss, cull_cfg), std::invalid_argument);
  auto cull_scenario = ScenarioFor(scenario::Technology::kLte, false);
  cull_scenario.interference_floor_db = 30.0;
  EXPECT_THROW(scenario::RunScenario(cull_scenario), std::invalid_argument);
  for (const double floor_db : {0.0, -1.0}) {
    cull_cfg.interference_floor_db = floor_db;
    EXPECT_NO_THROW(RadioEnvironment(pathloss, cull_cfg)) << floor_db;
  }
}

}  // namespace
}  // namespace cellfi
