#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "cellfi/common/simd.h"
#include "cellfi/common/stats.h"
#include "cellfi/common/units.h"
#include "cellfi/radio/antenna.h"
#include "cellfi/radio/environment.h"
#include "cellfi/radio/fading.h"
#include "cellfi/radio/pathloss.h"

namespace cellfi {
namespace {

constexpr double kTvwsFreq = 600e6;

TEST(PathLossTest, FreeSpaceKnownValue) {
  FreeSpacePathLoss fs;
  // FSPL(dB) = 20 log10(d) + 20 log10(f) - 147.55; 1 km @ 600 MHz ~ 88.0 dB.
  EXPECT_NEAR(fs.LossDb(1000.0, kTvwsFreq), 88.0, 0.2);
}

TEST(PathLossTest, FreeSpaceSlope6dBPerOctave) {
  FreeSpacePathLoss fs;
  const double l1 = fs.LossDb(500.0, kTvwsFreq);
  const double l2 = fs.LossDb(1000.0, kTvwsFreq);
  EXPECT_NEAR(l2 - l1, 6.02, 0.05);
}

TEST(PathLossTest, MonotoneInDistance) {
  const HataUrbanPathLoss hata;
  const LogDistancePathLoss logd(3.5);
  const FreeSpacePathLoss fs;
  double prev_h = 0, prev_l = 0, prev_f = 0;
  for (double d = 10.0; d <= 3000.0; d *= 1.3) {
    const double h = hata.LossDb(d, kTvwsFreq);
    const double l = logd.LossDb(d, kTvwsFreq);
    const double f = fs.LossDb(d, kTvwsFreq);
    EXPECT_GT(h, prev_h);
    EXPECT_GE(l, prev_l);
    EXPECT_GT(f, prev_f);
    prev_h = h;
    prev_l = l;
    prev_f = f;
  }
}

TEST(PathLossTest, HataUrbanMatchesClosedForm) {
  // 600 MHz, hb = 15 m, hm = 1.5 m: L ~ 125.98 + 37.2 log10(d_km).
  HataUrbanPathLoss hata(15.0, 1.5, /*small_city=*/true);
  EXPECT_NEAR(hata.LossDb(1000.0, kTvwsFreq), 126.0, 0.5);
  EXPECT_NEAR(hata.LossDb(2000.0, kTvwsFreq) - hata.LossDb(1000.0, kTvwsFreq),
              37.2 * std::log10(2.0), 0.2);
}

TEST(PathLossTest, HataNeverBelowFreeSpace) {
  HataUrbanPathLoss hata;
  FreeSpacePathLoss fs;
  for (double d : {1.0, 5.0, 20.0, 100.0, 1000.0}) {
    EXPECT_GE(hata.LossDb(d, kTvwsFreq), fs.LossDb(d, kTvwsFreq) - 1e-9);
  }
}

TEST(PathLossTest, PaperRangeBudgetCloses) {
  // Fig. 1: 36 dBm EIRP reaches ~1.3 km urban with >= 1 Mbps. At 1.3 km the
  // received power must sit within a few dB of the 5 MHz noise floor.
  HataUrbanPathLoss hata(15.0, 1.5);
  const double rx_dbm = 36.0 - hata.LossDb(1300.0, kTvwsFreq);
  const double noise_dbm = NoisePowerDbm(4.5e6, 7.0);
  const double snr = rx_dbm - noise_dbm;
  EXPECT_GT(snr, 0.0);   // link still closes at the lowest MCS
  EXPECT_LT(snr, 20.0);  // but is clearly power-limited
}

TEST(AntennaTest, OmniUniform) {
  const Antenna a = Antenna::Omni(2.0);
  for (double b = -3.0; b <= 3.0; b += 0.5) EXPECT_DOUBLE_EQ(a.GainDbi(b), 2.0);
}

TEST(AntennaTest, SectorBoresightAndRolloff) {
  const double beam = 120.0 * M_PI / 180.0;
  const Antenna a = Antenna::Sector(6.0, 0.0, beam);
  EXPECT_DOUBLE_EQ(a.GainDbi(0.0), 6.0);
  // At the 3 dB half-beamwidth the pattern is 12*(0.5*beam / (0.5*beam))^2
  // = 12 dB down in the 3GPP parabolic form evaluated at the edge.
  EXPECT_NEAR(a.GainDbi(beam / 2.0), 6.0 - 12.0, 1e-9);
  // Behind the antenna the floor applies.
  EXPECT_NEAR(a.GainDbi(M_PI), 6.0 - 20.0, 1e-9);
}

TEST(AntennaTest, SectorSymmetric) {
  const Antenna a = Antenna::Sector(7.0, M_PI / 3.0, 2.0);
  EXPECT_NEAR(a.GainDbi(M_PI / 3.0 + 0.4), a.GainDbi(M_PI / 3.0 - 0.4), 1e-9);
}

TEST(FadingTest, ShadowingSymmetricAndStable) {
  ShadowingField f(99, 6.0);
  EXPECT_DOUBLE_EQ(f.ShadowDb(3, 8), f.ShadowDb(8, 3));
  EXPECT_DOUBLE_EQ(f.ShadowDb(3, 8), f.ShadowDb(3, 8));
  EXPECT_NE(f.ShadowDb(3, 8), f.ShadowDb(3, 9));
}

TEST(FadingTest, ShadowingStatisticsMatchSigma) {
  ShadowingField f(7, 6.0);
  Summary s;
  for (std::uint32_t i = 0; i < 2000; ++i) s.Add(f.ShadowDb(i, i + 10000));
  EXPECT_NEAR(s.mean(), 0.0, 0.5);
  EXPECT_NEAR(s.stddev(), 6.0, 0.5);
}

TEST(FadingTest, RayleighPowerMeanIsOne) {
  FadingProcess f(3);
  Summary s;
  for (std::uint32_t i = 0; i < 5000; ++i) s.Add(f.PowerGain(1, 2, i, 0));
  EXPECT_NEAR(s.mean(), 1.0, 0.05);
}

TEST(FadingTest, ConstantWithinCoherenceBlock) {
  FadingProcess f(3, 50 * kMillisecond);
  const double g1 = f.PowerGain(1, 2, 5, 0);
  const double g2 = f.PowerGain(1, 2, 5, 49 * kMillisecond);
  const double g3 = f.PowerGain(1, 2, 5, 51 * kMillisecond);
  EXPECT_DOUBLE_EQ(g1, g2);
  EXPECT_NE(g1, g3);
}

TEST(FadingTest, IndependentAcrossSubchannels) {
  FadingProcess f(3);
  EXPECT_NE(f.PowerGain(1, 2, 0, 0), f.PowerGain(1, 2, 1, 0));
}

class EnvironmentTest : public ::testing::Test {
 protected:
  EnvironmentTest() : env_(pathloss_, MakeConfig()) {
    ap_ = env_.AddNode({.position = {0, 0},
                        .antenna = Antenna::Omni(6.0),
                        .tx_power_dbm = 30.0});
    ue_near_ = env_.AddNode({.position = {100, 0}, .tx_power_dbm = 20.0});
    ue_far_ = env_.AddNode({.position = {1200, 0}, .tx_power_dbm = 20.0});
    interferer_ = env_.AddNode({.position = {300, 300}, .tx_power_dbm = 30.0});
  }

  static RadioEnvironmentConfig MakeConfig() {
    RadioEnvironmentConfig c;
    c.carrier_freq_hz = kTvwsFreq;
    c.shadowing_sigma_db = 0.0;  // deterministic for assertions
    c.enable_fading = false;
    return c;
  }

  FreeSpacePathLoss pathloss_;
  RadioEnvironment env_;
  RadioNodeId ap_ = 0, ue_near_ = 0, ue_far_ = 0, interferer_ = 0;
};

TEST_F(EnvironmentTest, LinkGainSymmetric) {
  EXPECT_DOUBLE_EQ(env_.LinkGainDb(ap_, ue_far_), env_.LinkGainDb(ue_far_, ap_));
}

TEST_F(EnvironmentTest, NearStrongerThanFar) {
  EXPECT_GT(env_.MeanRxPowerDbm(ap_, ue_near_), env_.MeanRxPowerDbm(ap_, ue_far_));
}

TEST_F(EnvironmentTest, SnrDropsWithInterference) {
  const double snr = env_.SinrDb(ap_, ue_near_, 0, 0, {}, 4.5e6);
  const double sinr =
      env_.SinrDb(ap_, ue_near_, 0, 0, {{.node = interferer_, .power_scale = 1.0}}, 4.5e6);
  EXPECT_GT(snr, sinr);
}

TEST_F(EnvironmentTest, PartialPowerScaleInterferesLess) {
  const double full =
      env_.SinrDb(ap_, ue_near_, 0, 0, {{.node = interferer_, .power_scale = 1.0}}, 4.5e6);
  const double partial =
      env_.SinrDb(ap_, ue_near_, 0, 0, {{.node = interferer_, .power_scale = 0.3}}, 4.5e6);
  EXPECT_GT(partial, full);
}

TEST_F(EnvironmentTest, InterferenceFromSelfOrSignalIgnored) {
  const double base = env_.SinrDb(ap_, ue_near_, 0, 0, {}, 4.5e6);
  const double with_self = env_.SinrDb(
      ap_, ue_near_, 0, 0,
      {{.node = ap_, .power_scale = 1.0}, {.node = ue_near_, .power_scale = 1.0}}, 4.5e6);
  EXPECT_DOUBLE_EQ(base, with_self);
}

TEST_F(EnvironmentTest, MeanSnrMatchesManualBudget) {
  const double expected = 30.0 + 6.0 - pathloss_.LossDb(100.0, kTvwsFreq) -
                          NoisePowerDbm(4.5e6, 7.0);
  EXPECT_NEAR(env_.MeanSnrDb(ap_, ue_near_, 4.5e6), expected, 1e-9);
}

// Regression: SinrDb and MeanRxPowerMw share one cache of per-receiver
// linear rx-power rows. MoveNode must invalidate every cached value
// involving the moved node — both as signal source and interferer — or
// stale powers survive the move.
TEST_F(EnvironmentTest, MoveNodeInvalidatesSinrCaches) {
  const std::vector<ActiveTransmitter> interferers{
      {.node = interferer_, .power_scale = 1.0}};
  // Populate the caches at the original positions.
  (void)env_.SinrDb(ap_, ue_near_, 0, 0, interferers, 4.5e6);
  (void)env_.MeanRxPowerMw(ap_, ue_near_);

  // Moving the signal source must change the cached signal power.
  env_.MoveNode(ap_, {500, 0});
  RadioEnvironment fresh(pathloss_, MakeConfig());
  const RadioNodeId ap2 = fresh.AddNode({.position = {500, 0},
                                         .antenna = Antenna::Omni(6.0),
                                         .tx_power_dbm = 30.0});
  const RadioNodeId near2 = fresh.AddNode({.position = {100, 0}, .tx_power_dbm = 20.0});
  (void)fresh.AddNode({.position = {1200, 0}, .tx_power_dbm = 20.0});
  const RadioNodeId intf2 = fresh.AddNode({.position = {300, 300}, .tx_power_dbm = 30.0});
  const std::vector<ActiveTransmitter> interferers2{{.node = intf2, .power_scale = 1.0}};
  EXPECT_DOUBLE_EQ(env_.SinrDb(ap_, ue_near_, 0, 0, interferers, 4.5e6),
                   fresh.SinrDb(ap2, near2, 0, 0, interferers2, 4.5e6));
  EXPECT_DOUBLE_EQ(env_.MeanRxPowerMw(ap_, ue_near_),
                   fresh.MeanRxPowerMw(ap2, near2));

  // Moving an interferer must change the cached interference power too.
  (void)env_.SinrDb(ap_, ue_near_, 0, 0, interferers, 4.5e6);
  env_.MoveNode(interferer_, {50, 50});
  fresh.MoveNode(intf2, {50, 50});
  EXPECT_DOUBLE_EQ(env_.SinrDb(ap_, ue_near_, 0, 0, interferers, 4.5e6),
                   fresh.SinrDb(ap2, near2, 0, 0, interferers2, 4.5e6));

  // And moving the receiver invalidates its row (signal + noise memo keyed
  // by bandwidth stays valid; only geometry-dependent values change).
  env_.MoveNode(ue_near_, {700, 100});
  fresh.MoveNode(near2, {700, 100});
  EXPECT_DOUBLE_EQ(env_.SinrDb(ap_, ue_near_, 0, 0, interferers, 4.5e6),
                   fresh.SinrDb(ap2, near2, 0, 0, interferers2, 4.5e6));
}

// Shadowing and fading on (the defaults), so every term of the link
// budget that depends on node order or time is live.
RadioEnvironmentConfig FullChannelConfig() {
  RadioEnvironmentConfig c;
  c.carrier_freq_hz = kTvwsFreq;
  c.seed = 7;
  return c;
}

// The link gain is a pure function of geometry, and exactly reciprocal:
// the two antenna terms commute, std::hypot is sign-symmetric and
// ShadowDb orders its ids. Whichever end is queried first, both
// directions give the same double.
TEST(EnvironmentLinkGainTest, ExactlyReciprocalInBothCallOrders) {
  const FreeSpacePathLoss pathloss;
  const RadioNode sector{.position = {10.0, -20.0},
                         .antenna = Antenna::Sector(14.0, 0.7, 1.2, 20.0),
                         .tx_power_dbm = 33.0};
  // Inside the sector's main lobe but off boresight: the sector term
  // depends on the bearing and is not clipped at the front-to-back floor.
  const RadioNode omni{.position = {320.75, 371.5}, .tx_power_dbm = 20.0};
  RadioEnvironment ab(pathloss, FullChannelConfig());
  RadioEnvironment ba(pathloss, FullChannelConfig());
  const RadioNodeId a = ab.AddNode(sector);
  const RadioNodeId b = ab.AddNode(omni);
  (void)ba.AddNode(sector);
  (void)ba.AddNode(omni);

  const double ab_first = ab.LinkGainDb(a, b);
  const double ab_second = ab.LinkGainDb(b, a);
  const double ba_first = ba.LinkGainDb(b, a);
  const double ba_second = ba.LinkGainDb(a, b);
  EXPECT_EQ(ab_first, ab_second);
  EXPECT_EQ(ba_first, ba_second);
  EXPECT_EQ(ab_first, ba_first);
  const double sector_gain = sector.antenna.GainTowards(sector.position, omni.position);
  EXPECT_LT(sector_gain, 14.0);
  EXPECT_GT(sector_gain, 14.0 - 20.0);
}

// AddNode keeps the link powers already filled and MoveNode resets only
// the moved node's row and column. Interleaving adds, queries and moves
// must leave every link exactly where a fresh environment holding the
// final topology puts it.
TEST(EnvironmentLinkGainTest, InterleavedAddQueryMoveMatchesFreshBuild) {
  const FreeSpacePathLoss pathloss;
  std::vector<RadioNode> final_nodes;
  for (int i = 0; i < 7; ++i) {
    RadioNode n{.position = {137.0 * i, -91.0 * (i % 3)},
                .tx_power_dbm = 20.0 + i};
    if (i % 3 == 0) n.antenna = Antenna::Sector(14.0, 0.5 * i, 1.2, 20.0);
    final_nodes.push_back(n);
  }
  final_nodes[1].position = {-400.0, 250.0};  // where node 1 ends up
  final_nodes[4].position = {75.0, 610.0};    // where node 4 ends up

  RadioEnvironment grown(pathloss, FullChannelConfig());
  auto all_active = [&grown]() {
    std::vector<ActiveTransmitter> v;
    for (RadioNodeId n = 0; n < grown.node_count(); ++n) {
      v.push_back({.node = n, .power_scale = 1.0});
    }
    return v;
  };
  for (std::size_t i = 0; i < final_nodes.size(); ++i) {
    RadioNode n = final_nodes[i];
    if (i == 1 || i == 4) n.position = {0.5 * i, 3.0 * i};  // moved later
    const RadioNodeId id = grown.AddNode(n);
    // Fill the store from both ends of every link so far.
    for (RadioNodeId other = 0; other < id; ++other) {
      (void)grown.MeanRxPowerMw(other, id);
      (void)grown.SinrDb(id, other, 0, 0, all_active(), 4.5e6);
    }
    if (i == 3) grown.MoveNode(1, final_nodes[1].position);
  }
  grown.MoveNode(4, final_nodes[4].position);
  (void)grown.SinrDb(0, 4, 1, 0, all_active(), 4.5e6);

  RadioEnvironment fresh(pathloss, FullChannelConfig());
  for (const RadioNode& n : final_nodes) (void)fresh.AddNode(n);

  const std::vector<ActiveTransmitter> interferers = all_active();
  ASSERT_EQ(grown.node_count(), fresh.node_count());
  for (RadioNodeId rx = 0; rx < fresh.node_count(); ++rx) {
    for (RadioNodeId tx = 0; tx < fresh.node_count(); ++tx) {
      if (tx == rx) continue;
      EXPECT_EQ(grown.LinkGainDb(tx, rx), fresh.LinkGainDb(tx, rx)) << tx << "->" << rx;
      EXPECT_EQ(grown.MeanRxPowerMw(tx, rx), fresh.MeanRxPowerMw(tx, rx))
          << tx << "->" << rx;
      EXPECT_EQ(grown.SinrDb(tx, rx, 2, 30 * kMillisecond, interferers, 4.5e6),
                fresh.SinrDb(tx, rx, 2, 30 * kMillisecond, interferers, 4.5e6))
          << tx << "->" << rx;
    }
  }
}

// SinrDb without any fading-gain cache: every gain straight from
// FadingProcess::PowerGain, in the same term order, multiply order and
// 8-lane blocked sum as RadioEnvironment::SinrDb.
double UncachedSinrDb(const RadioEnvironment& env, RadioNodeId tx, RadioNodeId rx,
                      std::uint32_t subchannel, SimTime now,
                      const std::vector<ActiveTransmitter>& interferers,
                      double bandwidth_hz, double signal_scale) {
  const FadingProcess& fading = env.fading();
  double signal_mw = env.MeanRxPowerMw(tx, rx);
  signal_mw *= signal_scale;
  signal_mw *= fading.PowerGain(tx, rx, subchannel, now);
  double lanes[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  std::size_t m = 0;
  for (const ActiveTransmitter& it : interferers) {
    if (it.node == tx || it.node == rx || it.power_scale <= 0.0) continue;
    double p = env.MeanRxPowerMw(it.node, rx);
    p *= it.power_scale;
    p *= fading.PowerGain(it.node, rx, subchannel, now);
    lanes[m & 7] += p;
    ++m;
  }
  const double denom_mw =
      DbmToMw(env.NoiseDbm(rx, bandwidth_hz)) + simd::ReduceLanes8(lanes);
  return LinearToDb(signal_mw / denom_mw);
}

// SinrDb reads every fading gain from the receiver's cache. Each query of
// a stream that moves `now` forward, backward and across block edges,
// walks subchannels 0-24 in changing orders, and adds and moves nodes
// between queries must give exactly the double the uncached oracle gives,
// for Rayleigh and Rician fading.
TEST(EnvironmentFadingCacheTest, SinrMatchesUncachedOracle) {
  const FreeSpacePathLoss pathloss;
  for (const double rician_k : {0.0, 6.0}) {
    SCOPED_TRACE(rician_k);
    RadioEnvironmentConfig cfg = FullChannelConfig();
    cfg.rician_k = rician_k;
    RadioEnvironment env(pathloss, cfg);
    std::vector<ActiveTransmitter> interferers;
    const auto add = [&](Point at) {
      const RadioNodeId id = env.AddNode(
          {.position = at, .tx_power_dbm = 20.0 + static_cast<double>(env.node_count())});
      // Ten interferers fill more than one round of the 8 lanes; every
      // third one radiates at a different fraction of its power.
      interferers.push_back({.node = id, .power_scale = id % 3 == 0 ? 0.25 : 1.0 / 13.0});
    };
    for (int i = 0; i < 9; ++i) add({211.0 * i, -97.0 * (i % 4)});
    interferers.push_back({.node = 2, .power_scale = 0.0});  // silent: skipped

    const auto check = [&](SimTime now, std::uint32_t subchannel) {
      if (::testing::Test::HasFailure()) return;  // report the first mismatch only
      for (RadioNodeId rx = 0; rx < env.node_count(); ++rx) {
        for (RadioNodeId tx = 0; tx < env.node_count(); ++tx) {
          if (tx == rx) continue;
          const double scale = tx % 2 == 0 ? 1.0 / 13.0 : 0.5;
          const double cached =
              env.SinrDb(tx, rx, subchannel, now, interferers, 360e3, scale);
          ASSERT_EQ(cached, UncachedSinrDb(env, tx, rx, subchannel, now, interferers,
                                           360e3, scale))
              << tx << "->" << rx << " sub " << subchannel << " at " << now;
        }
      }
    };
    const auto sweep = [&](SimTime now) {
      // Start mid-band and high so runs are created narrow and widened with
      // entries in them, then walk 0-24 up and down.
      check(now, 3);
      check(now, 24);
      for (std::uint32_t s = 0; s < 25; ++s) check(now, s);
      for (std::uint32_t s = 25; s-- > 0;) check(now, s);
    };

    for (const SimTime now : {SimTime{0}, 49 * kMillisecond, 50 * kMillisecond,
                              51 * kMillisecond, 49 * kMillisecond, SimTime{0},
                              99 * kMillisecond, 100 * kMillisecond, 1 * kSecond,
                              51 * kMillisecond}) {
      sweep(now);
    }
    add({-350.0, 420.0});  // a node no cache row has seen
    sweep(50 * kMillisecond);
    sweep(49 * kMillisecond);
    env.MoveNode(4, {1200.0, 800.0});  // mean powers change, gains do not
    env.MoveNode(9, {-20.0, -30.0});
    sweep(49 * kMillisecond);
    sweep(51 * kMillisecond);
    add({640.0, 640.0});
    env.MoveNode(0, {5.0, 5.0});
    sweep(150 * kMillisecond);
    sweep(100 * kMillisecond);
  }
}

// NoiseMw keeps a two-slot MRU memo per receiver: MAC layers alternate
// between subchannel and full-band noise at the same receiver, and the
// alternation must hit the memo without thrash (and, above all, stay
// exact — each value must equal the closed-form conversion every time).
TEST_F(EnvironmentTest, NoiseMwMemoSurvivesAlternatingBandwidths) {
  const double sub = DbmToMw(NoisePowerDbm(360e3, 7.0));
  const double full = DbmToMw(NoisePowerDbm(4.5e6, 7.0));
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(env_.NoiseMw(ue_near_, 360e3), sub) << "iter " << i;
    EXPECT_DOUBLE_EQ(env_.NoiseMw(ue_near_, 4.5e6), full) << "iter " << i;
  }
  // A third bandwidth evicts the LRU slot but never corrupts the values.
  const double prach = DbmToMw(NoisePowerDbm(839 * 1250.0, 7.0));
  EXPECT_DOUBLE_EQ(env_.NoiseMw(ue_near_, 839 * 1250.0), prach);
  EXPECT_DOUBLE_EQ(env_.NoiseMw(ue_near_, 360e3), sub);
  EXPECT_DOUBLE_EQ(env_.NoiseMw(ue_near_, 4.5e6), full);
  // Per-receiver slots are independent.
  EXPECT_DOUBLE_EQ(env_.NoiseMw(ue_far_, 360e3), sub);
  // AddNode resizes the memo vector; values stay correct afterwards.
  (void)env_.AddNode({.position = {900, 900}});
  EXPECT_DOUBLE_EQ(env_.NoiseMw(ue_near_, 360e3), sub);
}

}  // namespace
}  // namespace cellfi
