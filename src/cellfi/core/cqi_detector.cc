#include "cellfi/core/cqi_detector.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace cellfi::core {

namespace {

const CqiDetectorConfig& Validated(const CqiDetectorConfig& config) {
  if (config.max_window < 1) {
    throw std::invalid_argument("CqiDetectorConfig::max_window must be >= 1");
  }
  if (config.consecutive < 1) {
    throw std::invalid_argument("CqiDetectorConfig::consecutive must be >= 1");
  }
  if (!(config.ratio > 0.0 && config.ratio <= 1.0)) {
    throw std::invalid_argument("CqiDetectorConfig::ratio must be in (0, 1]");
  }
  return config;
}

// Highest CQI with a sample in the window; 0 for an empty window.
int WindowMax(std::uint16_t present) {
  return present == 0 ? 0 : static_cast<int>(std::bit_width(present)) - 1;
}

}  // namespace

CqiInterferenceDetector::CqiInterferenceDetector(int num_subchannels,
                                                 CqiDetectorConfig config)
    : config_(Validated(config)),
      bands_(static_cast<std::size_t>(num_subchannels)),
      ring_(bands_.size() * static_cast<std::size_t>(config_.max_window)) {}

void CqiInterferenceDetector::AddReport(const std::vector<int>& subband_cqi) {
  const std::size_t n = std::min(subband_cqi.size(), bands_.size());
  for (std::size_t s = 0; s < n; ++s) {
    if (subband_cqi[s] < 0 || subband_cqi[s] > kMaxCqi) {
      throw std::out_of_range("CqiInterferenceDetector::AddReport: CQI " +
                              std::to_string(subband_cqi[s]) + " on sub-band " +
                              std::to_string(s) + " outside [0, " +
                              std::to_string(kMaxCqi) + "]");
    }
  }

  const auto window = static_cast<std::size_t>(config_.max_window);
  for (std::size_t s = 0; s < n; ++s) {
    Band& band = bands_[s];
    const int cqi = subband_cqi[s];
    std::uint8_t& slot = ring_[s * window + static_cast<std::size_t>(band.next)];
    if (band.size == config_.max_window) {
      if (--band.count[slot] == 0) {
        band.present = static_cast<std::uint16_t>(band.present & ~(1u << slot));
      }
    } else {
      ++band.size;
    }
    slot = static_cast<std::uint8_t>(cqi);
    ++band.count[slot];
    band.present = static_cast<std::uint16_t>(band.present | (1u << slot));
    band.next = band.next + 1 == config_.max_window ? 0 : band.next + 1;

    const double threshold = config_.ratio * static_cast<double>(WindowMax(band.present));
    if (static_cast<double>(cqi) < threshold) {
      ++band.low_streak;
    } else {
      band.low_streak = 0;
    }
    band.smoothed = band.smoothed < 0.0
                        ? static_cast<double>(cqi)
                        : (1.0 - config_.smoothing) * band.smoothed +
                              config_.smoothing * static_cast<double>(cqi);
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

bool CqiInterferenceDetector::Detected(int s) const {
  const Band& band = bands_[static_cast<std::size_t>(s)];
  return band.low_streak >= config_.consecutive ||
         band.spectral_streak >= config_.consecutive;
}

int CqiInterferenceDetector::MaxCqi(int s) const {
  return WindowMax(bands_[static_cast<std::size_t>(s)].present);
}

}  // namespace cellfi::core
