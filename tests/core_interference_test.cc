#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cellfi/common/rng.h"
#include "cellfi/core/cqi_detector.h"
#include "cellfi/core/interference_manager.h"
#include "cellfi/core/prach_sensor.h"

namespace cellfi::core {
namespace {

TEST(PrachSensorTest, CountsDistinctRecentClients) {
  PrachSensor sensor(/*self=*/0);
  sensor.OnPreamble(10, 0, 0);
  sensor.OnPreamble(11, 0, 0);
  sensor.OnPreamble(20, 1, 0);
  EXPECT_EQ(sensor.EstimateContenders(100 * kMillisecond), 3);
  EXPECT_EQ(sensor.OwnActive(100 * kMillisecond), 2);
}

TEST(PrachSensorTest, EstimatesExpireAfterOneSecond) {
  PrachSensor sensor(0);
  sensor.OnPreamble(10, 0, 0);
  sensor.OnPreamble(20, 1, 500 * kMillisecond);
  EXPECT_EQ(sensor.EstimateContenders(900 * kMillisecond), 2);
  EXPECT_EQ(sensor.EstimateContenders(1100 * kMillisecond), 1);  // 10 expired
  EXPECT_EQ(sensor.EstimateContenders(2 * kSecond), 0);
}

TEST(PrachSensorTest, RepeatedPreambleRefreshes) {
  PrachSensor sensor(0);
  sensor.OnPreamble(10, 0, 0);
  sensor.OnPreamble(10, 0, 900 * kMillisecond);
  EXPECT_EQ(sensor.EstimateContenders(1500 * kMillisecond), 1);
}

TEST(CqiDetectorTest, TriggersAfterTenConsecutiveLowSamples) {
  CqiInterferenceDetector det(2);
  // Establish a max of 10 on both subchannels.
  for (int i = 0; i < 20; ++i) det.AddReport({10, 10});
  EXPECT_FALSE(det.Detected(0));
  // Subchannel 0 drops below 60 % of max (10 * 0.6 = 6 -> 5 is low).
  for (int i = 0; i < 9; ++i) det.AddReport({5, 10});
  EXPECT_FALSE(det.Detected(0)) << "9 samples must not trigger";
  det.AddReport({5, 10});
  EXPECT_TRUE(det.Detected(0));
  EXPECT_FALSE(det.Detected(1));
}

TEST(CqiDetectorTest, RecoveryResetsStreak) {
  CqiInterferenceDetector det(1);
  for (int i = 0; i < 20; ++i) det.AddReport({10});
  for (int i = 0; i < 9; ++i) det.AddReport({4});
  det.AddReport({10});  // interference gone for one sample
  for (int i = 0; i < 9; ++i) det.AddReport({4});
  EXPECT_FALSE(det.Detected(0));
}

TEST(CqiDetectorTest, BorderlineCqiDoesNotTrigger) {
  // CQI exactly at 60 % of max is "good" (strictly below triggers).
  CqiInterferenceDetector det(1);
  for (int i = 0; i < 20; ++i) det.AddReport({10});
  for (int i = 0; i < 50; ++i) det.AddReport({6});
  EXPECT_FALSE(det.Detected(0));
}

TEST(CqiDetectorTest, MaxTracksWindow) {
  CqiInterferenceDetector det(1, {.ratio = 0.6, .consecutive = 10, .max_window = 5});
  det.AddReport({15});
  for (int i = 0; i < 10; ++i) det.AddReport({7});
  // 15 slid out of the 5-sample window; max is now 7, so 7 is not "low".
  EXPECT_EQ(det.MaxCqi(0), 7);
  EXPECT_FALSE(det.Detected(0));
}

TEST(CqiDetectorTest, EvictingOneCopyOfTheMaxKeepsIt) {
  CqiInterferenceDetector det(1, {.ratio = 0.6, .consecutive = 10, .max_window = 3});
  det.AddReport({12});
  det.AddReport({12});
  det.AddReport({4});
  det.AddReport({4});  // evicts the first 12; the second is still in the window
  EXPECT_EQ(det.MaxCqi(0), 12);
  det.AddReport({4});  // evicts the last 12
  EXPECT_EQ(det.MaxCqi(0), 4);
}

TEST(CqiDetectorTest, MaxOfEmptyWindowIsZero) {
  CqiInterferenceDetector det(2);
  det.AddReport({9});  // ragged: sub-band 1 gets no sample
  EXPECT_EQ(det.MaxCqi(0), 9);
  EXPECT_EQ(det.MaxCqi(1), 0);
}

TEST(CqiDetectorTest, RejectsWindowBelowOne) {
  EXPECT_THROW(CqiInterferenceDetector(1, {.max_window = 0}), std::invalid_argument);
  EXPECT_THROW(CqiInterferenceDetector(1, {.max_window = -5}), std::invalid_argument);
  EXPECT_NO_THROW(CqiInterferenceDetector(1, {.max_window = 1}));
}

TEST(CqiDetectorTest, RejectsConsecutiveBelowOne) {
  EXPECT_THROW(CqiInterferenceDetector(1, {.consecutive = 0}), std::invalid_argument);
  EXPECT_THROW(CqiInterferenceDetector(1, {.consecutive = -1}), std::invalid_argument);
  EXPECT_NO_THROW(CqiInterferenceDetector(1, {.consecutive = 1}));
}

TEST(CqiDetectorTest, RejectsRatioOutsideUnitInterval) {
  for (double ratio : {0.0, -0.5, 1.0000001, 2.0, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(CqiInterferenceDetector(1, {.ratio = ratio}), std::invalid_argument)
        << "ratio " << ratio;
  }
  EXPECT_NO_THROW(CqiInterferenceDetector(1, {.ratio = 1.0}));
  EXPECT_NO_THROW(CqiInterferenceDetector(1, {.ratio = 1e-9}));
}

TEST(CqiDetectorTest, OutOfRangeCqiThrowsAndLeavesStateUnchanged) {
  CqiInterferenceDetector det(2);
  for (int i = 0; i < 20; ++i) det.AddReport({10, 10});
  for (int i = 0; i < 3; ++i) det.AddReport({5, 10});
  for (const std::vector<int>& bad :
       {std::vector<int>{kMaxCqi + 1, 10}, std::vector<int>{5, -1}, std::vector<int>{255, 255}}) {
    EXPECT_THROW(det.AddReport(bad), std::out_of_range);
    EXPECT_EQ(det.MaxCqi(0), 10);
    EXPECT_EQ(det.LowStreak(0), 3);
    EXPECT_EQ(det.MaxCqi(1), 10);
    EXPECT_EQ(det.LowStreak(1), 0);
  }
  // Entries beyond num_subchannels are ignored, whatever their value.
  EXPECT_NO_THROW(det.AddReport({5, 10, 99}));
  EXPECT_EQ(det.LowStreak(0), 4);
}

// The detector as it was before the histogram window: a deque of recent
// samples rescanned with max_element on every report. Kept as the oracle
// the O(1) window is proven against.
class DequeReferenceDetector {
 public:
  DequeReferenceDetector(int num_subchannels, CqiDetectorConfig config)
      : config_(config), bands_(static_cast<std::size_t>(num_subchannels)) {}

  void AddReport(const std::vector<int>& subband_cqi) {
    const std::size_t n = std::min(subband_cqi.size(), bands_.size());
    for (std::size_t s = 0; s < n; ++s) {
      Band& band = bands_[s];
      band.window.push_back(subband_cqi[s]);
      if (static_cast<int>(band.window.size()) > config_.max_window) {
        band.window.pop_front();
      }
      const int max_cqi = *std::max_element(band.window.begin(), band.window.end());
      const double threshold = config_.ratio * static_cast<double>(max_cqi);
      if (static_cast<double>(subband_cqi[s]) < threshold) {
        ++band.low_streak;
      } else {
        band.low_streak = 0;
      }
      band.smoothed = band.smoothed < 0.0
                          ? static_cast<double>(subband_cqi[s])
                          : (1.0 - config_.smoothing) * band.smoothed +
                                config_.smoothing * static_cast<double>(subband_cqi[s]);
    }
    if (config_.enable_spectral_rule) {
      double best = 0.0;
      for (std::size_t s = 0; s < n; ++s) best = std::max(best, bands_[s].smoothed);
      for (std::size_t s = 0; s < n; ++s) {
        Band& band = bands_[s];
        if (band.smoothed < config_.ratio * best) {
          ++band.spectral_streak;
        } else {
          band.spectral_streak = 0;
        }
      }
    }
  }

  bool Detected(int s) const {
    const Band& band = bands_[static_cast<std::size_t>(s)];
    return band.low_streak >= config_.consecutive ||
           band.spectral_streak >= config_.consecutive;
  }
  int MaxCqi(int s) const {
    const Band& band = bands_[static_cast<std::size_t>(s)];
    if (band.window.empty()) return 0;
    return *std::max_element(band.window.begin(), band.window.end());
  }
  int LowStreak(int s) const { return bands_[static_cast<std::size_t>(s)].low_streak; }
  double SmoothedCqi(int s) const { return bands_[static_cast<std::size_t>(s)].smoothed; }

 private:
  struct Band {
    std::deque<int> window;
    int low_streak = 0;
    double smoothed = -1.0;
    int spectral_streak = 0;
  };
  CqiDetectorConfig config_;
  std::vector<Band> bands_;
};

testing::AssertionResult SameState(const CqiInterferenceDetector& det,
                                   const DequeReferenceDetector& ref, int num_subchannels) {
  for (int s = 0; s < num_subchannels; ++s) {
    if (det.MaxCqi(s) != ref.MaxCqi(s) || det.LowStreak(s) != ref.LowStreak(s) ||
        det.SmoothedCqi(s) != ref.SmoothedCqi(s) || det.Detected(s) != ref.Detected(s)) {
      return testing::AssertionFailure()
             << "sub-band " << s << ": max " << det.MaxCqi(s) << " vs " << ref.MaxCqi(s)
             << ", low_streak " << det.LowStreak(s) << " vs " << ref.LowStreak(s)
             << ", smoothed " << det.SmoothedCqi(s) << " vs " << ref.SmoothedCqi(s)
             << ", detected " << det.Detected(s) << " vs " << ref.Detected(s);
    }
  }
  return testing::AssertionSuccess();
}

// Seeded CQI streams over the full 0..kMaxCqi domain: each sub-band holds
// a plateau (so the window fills with copies of its max) that jumps to a
// new level now and then, with drops below it and uniform outliers mixed
// in. Reports are ragged: some shorter and some longer than the detector.
TEST(CqiDetectorTest, MatchesDequeReferenceOnRandomStreams) {
  for (int window : {1, 2, 5, 16, 500}) {
    for (int subchannels : {1, 13}) {
      for (bool spectral : {true, false}) {
        const CqiDetectorConfig cfg{.ratio = 0.6,
                                    .consecutive = 10,
                                    .max_window = window,
                                    .smoothing = 0.1,
                                    .enable_spectral_rule = spectral};
        CqiInterferenceDetector det(subchannels, cfg);
        DequeReferenceDetector ref(subchannels, cfg);
        Rng rng(static_cast<std::uint64_t>(window * 131 + subchannels * 7 + (spectral ? 1 : 0)));
        std::vector<int> level(static_cast<std::size_t>(subchannels + 3), kMaxCqi);
        const int reports = 3 * window + 2000;
        for (int r = 0; r < reports; ++r) {
          const auto len = static_cast<std::size_t>(rng.UniformInt(0, subchannels + 3));
          std::vector<int> report(len);
          for (std::size_t s = 0; s < len; ++s) {
            const double u = rng.Uniform();
            if (u < 0.03) level[s] = static_cast<int>(rng.UniformInt(0, kMaxCqi));
            if (u < 0.15) {
              report[s] = static_cast<int>(rng.UniformInt(0, level[s]));  // drop
            } else if (u < 0.2) {
              report[s] = static_cast<int>(rng.UniformInt(0, kMaxCqi));
            } else {
              report[s] = level[s];
            }
          }
          det.AddReport(report);
          ref.AddReport(report);
          ASSERT_TRUE(SameState(det, ref, subchannels))
              << "window " << window << ", " << subchannels << " sub-bands, spectral "
              << spectral << ", after report " << r;
        }
      }
    }
  }
}

InterferenceManagerConfig ImConfig(int subchannels = 13) {
  InterferenceManagerConfig cfg;
  cfg.num_subchannels = subchannels;
  return cfg;
}

EpochInputs QuietInputs(int subchannels, int own, int contenders) {
  EpochInputs in;
  in.own_active_clients = own;
  in.estimated_contenders = contenders;
  in.utility.assign(static_cast<std::size_t>(subchannels), 1.0);
  in.interference_pressure.assign(static_cast<std::size_t>(subchannels), 0.0);
  in.free_for_reuse.assign(static_cast<std::size_t>(subchannels), false);
  return in;
}

TEST(InterferenceManagerTest, TargetShareFormula) {
  InterferenceManager im(ImConfig(13), 1);
  // S_i = N_i * S / NP_i (paper Section 5.2).
  EXPECT_EQ(im.TargetShare(6, 12), 6);    // 6 * 13 / 12 = 6.5 -> 6
  EXPECT_EQ(im.TargetShare(6, 6), 13);    // alone: everything
  EXPECT_EQ(im.TargetShare(1, 13), 1);
  EXPECT_EQ(im.TargetShare(1, 26), 1);    // never below 1 with clients
  EXPECT_EQ(im.TargetShare(0, 10), 0);    // no clients: nothing
  EXPECT_EQ(im.TargetShare(4, 2), 13);    // contenders clamped to >= own
}

TEST(InterferenceManagerTest, GrowsToShareWhenQuiet) {
  InterferenceManager im(ImConfig(13), 2);
  const auto& mask = im.OnEpoch(QuietInputs(13, 3, 6));
  EXPECT_EQ(im.owned_count(), 6);  // 3 * 13 / 6 = 6.5 -> 6
  EXPECT_EQ(static_cast<int>(mask.size()), 13);
}

TEST(InterferenceManagerTest, ShrinksWhenContendersAppear) {
  InterferenceManager im(ImConfig(13), 3);
  im.OnEpoch(QuietInputs(13, 6, 6));
  EXPECT_EQ(im.owned_count(), 13);
  im.OnEpoch(QuietInputs(13, 6, 12));
  EXPECT_EQ(im.owned_count(), 6);
  EXPECT_EQ(im.last_stats().shrank, 7);
}

TEST(InterferenceManagerTest, StableWithoutInterference) {
  InterferenceManager im(ImConfig(13), 4);
  im.OnEpoch(QuietInputs(13, 2, 4));
  const auto mask_before = im.mask();
  for (int e = 0; e < 50; ++e) im.OnEpoch(QuietInputs(13, 2, 4));
  EXPECT_EQ(im.mask(), mask_before);  // no interference -> no hopping
  EXPECT_EQ(im.total_hops(), 0u);
}

TEST(InterferenceManagerTest, BucketPressureCausesHop) {
  InterferenceManager im(ImConfig(4), 5);
  auto in = QuietInputs(4, 1, 2);  // share = 2
  im.OnEpoch(in);
  ASSERT_EQ(im.owned_count(), 2);
  // Find an owned subchannel and press on it hard.
  int victim = -1;
  for (int s = 0; s < 4; ++s) {
    if (im.mask()[static_cast<std::size_t>(s)]) {
      victim = s;
      break;
    }
  }
  int epochs = 0;
  while (im.mask()[static_cast<std::size_t>(victim)] && epochs < 200) {
    in.interference_pressure.assign(4, 0.0);
    in.interference_pressure[static_cast<std::size_t>(victim)] = 1.0;
    im.OnEpoch(in);
    ++epochs;
  }
  EXPECT_FALSE(im.mask()[static_cast<std::size_t>(victim)]) << "never hopped away";
  EXPECT_GE(im.total_hops(), 1u);
  EXPECT_EQ(im.owned_count(), 2);  // hopped, not shrank
  // Exponential bucket with mean 10 drains at 1/epoch: expect ~10 epochs.
  EXPECT_LT(epochs, 100);
}

TEST(InterferenceManagerTest, HopTargetsMaxUtility) {
  InterferenceManager im(ImConfig(4), 6);
  auto in = QuietInputs(4, 1, 4);  // share = 1
  in.utility = {0.1, 0.1, 0.1, 0.1};
  im.OnEpoch(in);
  int owned = -1;
  for (int s = 0; s < 4; ++s) {
    if (im.mask()[static_cast<std::size_t>(s)]) owned = s;
  }
  // Make a specific other subchannel clearly best and drain the bucket.
  const int target = (owned + 1) % 4;
  in.utility[static_cast<std::size_t>(target)] = 5.0;
  for (int e = 0; e < 100 && im.mask()[static_cast<std::size_t>(owned)]; ++e) {
    in.interference_pressure.assign(4, 0.0);
    in.interference_pressure[static_cast<std::size_t>(owned)] = 2.0;
    im.OnEpoch(in);
  }
  EXPECT_TRUE(im.mask()[static_cast<std::size_t>(target)]);
}

TEST(InterferenceManagerTest, ReusePacksTowardLowerIndex) {
  InterferenceManager im(ImConfig(6), 7);
  auto in = QuietInputs(6, 1, 6);  // share = 1
  im.OnEpoch(in);
  // Force ownership away from subchannel 0 first.
  for (int e = 0; e < 100 && im.mask()[0]; ++e) {
    in.interference_pressure.assign(6, 0.0);
    in.interference_pressure[0] = 2.0;
    in.utility = {0.0, 0.0, 0.0, 0.0, 0.0, 1.0};
    im.OnEpoch(in);
  }
  ASSERT_FALSE(im.mask()[0]);
  // Now subchannel 0 is free for re-use: the AP should pack down onto it.
  in = QuietInputs(6, 1, 6);
  in.free_for_reuse[0] = true;
  im.OnEpoch(in);
  EXPECT_TRUE(im.mask()[0]);
  EXPECT_EQ(im.owned_count(), 1);
  EXPECT_GE(im.last_stats().reuse_moves, 1);
}

TEST(InterferenceManagerTest, ReuseDisabledByConfig) {
  auto cfg = ImConfig(6);
  cfg.enable_reuse = false;
  InterferenceManager im(cfg, 8);
  auto in = QuietInputs(6, 1, 6);
  in.free_for_reuse.assign(6, true);
  im.OnEpoch(in);
  const auto mask = im.mask();
  im.OnEpoch(in);
  EXPECT_EQ(im.mask(), mask);
  EXPECT_EQ(im.last_stats().reuse_moves, 0);
}

TEST(InterferenceManagerTest, NoClientsMeansEmptyMask) {
  InterferenceManager im(ImConfig(13), 9);
  const auto& mask = im.OnEpoch(QuietInputs(13, 0, 5));
  for (bool b : mask) EXPECT_FALSE(b);
}

// Two managers contending for the same spectrum via simulated cross
// detection: each sees pressure exactly on the overlap. They must converge
// to disjoint masks.
TEST(InterferenceManagerTest, TwoContendersConvergeToDisjointMasks) {
  const int s_total = 13;
  InterferenceManager a(ImConfig(s_total), 10);
  InterferenceManager b(ImConfig(s_total), 11);
  auto in_a = QuietInputs(s_total, 3, 6);  // each entitled to half
  auto in_b = QuietInputs(s_total, 3, 6);

  int epochs_to_converge = -1;
  for (int e = 0; e < 100; ++e) {
    // Cross interference: overlap drains both sides' buckets.
    in_a.interference_pressure.assign(s_total, 0.0);
    in_b.interference_pressure.assign(s_total, 0.0);
    for (int s = 0; s < s_total; ++s) {
      if (a.mask()[static_cast<std::size_t>(s)] && b.mask()[static_cast<std::size_t>(s)]) {
        in_a.interference_pressure[static_cast<std::size_t>(s)] = 1.0;
        in_b.interference_pressure[static_cast<std::size_t>(s)] = 1.0;
      }
    }
    a.OnEpoch(in_a);
    b.OnEpoch(in_b);
    bool overlap = false;
    for (int s = 0; s < s_total; ++s) {
      overlap |= a.mask()[static_cast<std::size_t>(s)] && b.mask()[static_cast<std::size_t>(s)];
    }
    if (!overlap && epochs_to_converge < 0) epochs_to_converge = e;
    if (!overlap) break;
  }
  ASSERT_GE(epochs_to_converge, 0) << "never converged";
  EXPECT_EQ(a.owned_count(), 6);
  EXPECT_EQ(b.owned_count(), 6);
  EXPECT_LT(epochs_to_converge, 60);
}

}  // namespace
}  // namespace cellfi::core
