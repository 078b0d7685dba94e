// CQI-based interference detector (paper Section 6.3.2).
//
// Two complementary rules, both requiring 10 consecutive low reports:
//
//  * Temporal: the AP tracks, per client and sub-band, the maximum CQI
//    observed within a sliding window as the interference-free estimate,
//    and flags samples below 60 % of that maximum. This is the paper's
//    measured rule; it catches an interferer that *arrives* on a
//    previously clean sub-band.
//  * Spectral: a sub-band whose smoothed CQI sits below 60 % of the
//    client's best smoothed sub-band is flagged. Sub-band reports make the
//    across-frequency contrast directly observable, and this closes the
//    cold-start case where a sub-band has been interfered for the entire
//    window (the temporal max never saw it clean).
//
// The paper measured <2 % false positives and ~80 % detection probability
// on real hardware; large-scale runs inject those imperfections on top
// (see CellfiControllerConfig).
//
// The window max is exact and O(1) per report: a CQI is a 4-bit value
// (0..kMaxCqi), so each sub-band keeps a byte ring of its last `max_window`
// samples, a count per CQI value and a mask of the values present; the max
// is the mask's highest set bit.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cellfi/phy/cqi_mcs.h"

namespace cellfi::core {

struct CqiDetectorConfig {
  double ratio = 0.6;     // "below 60 % of the maximum"
  int consecutive = 10;   // consecutive low samples to trigger
  int max_window = 500;   // samples kept for the running max (1 s at 2 ms)
  double smoothing = 0.1; // EWMA weight for the spectral rule
  bool enable_spectral_rule = true;
};

/// Detector state for one client (all sub-bands).
class CqiInterferenceDetector {
 public:
  /// Throws std::invalid_argument unless max_window >= 1,
  /// consecutive >= 1 and ratio is in (0, 1].
  CqiInterferenceDetector(int num_subchannels, CqiDetectorConfig config = {});

  /// Feed one decoded report (per-subchannel CQI). Entries beyond
  /// num_subchannels() are ignored. Throws std::out_of_range, leaving the
  /// detector unchanged, if a CQI it would use is outside [0, kMaxCqi].
  void AddReport(const std::vector<int>& subband_cqi);

  /// True if subchannel `s` currently triggers the interference rule.
  bool Detected(int s) const;

  /// Interference-free CQI estimate (window max) for subchannel `s`.
  int MaxCqi(int s) const;

  /// Number of consecutive low samples on `s` (temporal rule).
  int LowStreak(int s) const { return bands_[static_cast<std::size_t>(s)].low_streak; }

  /// Smoothed CQI on subchannel `s` (spectral rule input).
  double SmoothedCqi(int s) const { return bands_[static_cast<std::size_t>(s)].smoothed; }

  int num_subchannels() const { return static_cast<int>(bands_.size()); }

 private:
  struct Band {
    std::array<int, kMaxCqi + 1> count{};  // window samples per CQI value
    std::uint16_t present = 0;  // bit v set iff count[v] > 0
    int size = 0;               // samples in the window
    int next = 0;               // ring slot the next sample goes to
    int low_streak = 0;         // temporal rule
    double smoothed = -1.0;     // EWMA; -1 = no samples yet
    int spectral_streak = 0;    // spectral rule
  };
  CqiDetectorConfig config_;
  std::vector<Band> bands_;
  // Sub-band s's window ring is [s * max_window, (s + 1) * max_window),
  // allocated by the constructor and never grown.
  std::vector<std::uint8_t> ring_;
};

}  // namespace cellfi::core
