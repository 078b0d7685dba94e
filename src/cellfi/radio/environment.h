// RadioEnvironment: node registry + link budget + SINR computation.
//
// All MAC layers (LTE, Wi-Fi) query this one component so that coverage
// comparisons between technologies use identical propagation (Section 6.3.4
// of the paper: "We model loss propagation and noise floor based on our
// range measurements").
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "cellfi/common/geometry.h"
#include "cellfi/common/time.h"
#include "cellfi/common/units.h"
#include "cellfi/radio/antenna.h"
#include "cellfi/radio/fading.h"
#include "cellfi/radio/pathloss.h"

namespace cellfi {

/// Identifies a radio node within one RadioEnvironment.
using RadioNodeId = std::uint32_t;

/// Static radio configuration of a node.
struct RadioNode {
  Point position;
  Antenna antenna = Antenna::Omni(0.0);
  double tx_power_dbm = 20.0;
  double noise_figure_db = 7.0;
};

/// Configuration of the shared medium.
struct RadioEnvironmentConfig {
  double carrier_freq_hz = 600.0 * units::MHz;
  double shadowing_sigma_db = 6.0;
  SimTime fading_coherence_time = 50 * kMillisecond;
  bool enable_fading = true;
  /// Rician K-factor (linear). 0 = Rayleigh; ~6-10 for static outdoor
  /// nodes with a line-of-sight component.
  double rician_k = 0.0;
  /// Dead: the negligible-interferer cull this threshold enabled was
  /// removed (DESIGN.md §12), so every interferer always counts. Values
  /// <= 0 are accepted and change nothing; the RadioEnvironment
  /// constructor throws std::invalid_argument on a positive value. The
  /// field exists only so perfbench/driver.cc, which still copies it,
  /// compiles; the next change to perfbench deletes it.
  double interference_floor_db = 0.0;
  std::uint64_t seed = 1;
};

/// A transmission contributing interference at a receiver: who transmits
/// and with what fraction of its power in the measured band.
struct ActiveTransmitter {
  RadioNodeId node;
  double power_scale = 1.0;  // fraction of tx power in the observed band
};

/// Shared propagation environment for one simulation.
class RadioEnvironment {
 public:
  /// `pathloss` must outlive the environment.
  RadioEnvironment(const PathLossModel& pathloss, RadioEnvironmentConfig config);

  /// Register a node; returns its id.
  RadioNodeId AddNode(RadioNode node);

  /// Move a node (mobility). Invalidates the cached mean powers involving
  /// it (fading gains do not depend on position and stay cached); O(n) per
  /// move, intended for coarse-grained position updates (hundreds of ms),
  /// not per-subframe motion.
  void MoveNode(RadioNodeId id, Point new_position);

  std::size_t node_count() const { return nodes_.size(); }
  const RadioNode& node(RadioNodeId id) const { return nodes_[id]; }

  /// Large-scale link gain (antenna gains - path loss - shadowing), dB.
  /// A pure function of geometry, recomputed on every call, and exactly
  /// reciprocal: LinkGainDb(a, b) == LinkGainDb(b, a) bit for bit.
  double LinkGainDb(RadioNodeId tx, RadioNodeId rx) const;

  /// Average received power (no fading), dBm.
  double MeanRxPowerDbm(RadioNodeId tx, RadioNodeId rx) const;

  /// Average received power (no fading), mW — cached; the hot path for
  /// SINR aggregation works entirely in linear units.
  double MeanRxPowerMw(RadioNodeId tx, RadioNodeId rx) const;

  /// Thermal noise power at `rx` over `bandwidth_hz`, dBm.
  double NoiseDbm(RadioNodeId rx, double bandwidth_hz) const;

  /// Thermal noise power at `rx` over `bandwidth_hz`, mW — memoized per
  /// receiver for the last two bandwidths queried (MAC layers alternate
  /// between subchannel and full-band evaluations at the same receiver),
  /// so the SINR hot path pays no log/pow.
  double NoiseMw(RadioNodeId rx, double bandwidth_hz) const;

  /// Monotonic stamp bumped by every AddNode/MoveNode. Consumers that
  /// cache geometry-derived values (InterferenceMap rows, the LTE CRS
  /// penalty cache) compare it to detect mobility invalidation.
  std::uint64_t position_epoch() const { return position_epoch_; }

  /// SINR in dB at `rx` for the signal from `tx` on `subchannel`, given the
  /// set of concurrently active interferers (excluding `tx` itself) and the
  /// per-subchannel bandwidth. `signal_scale` is the fraction of the
  /// transmitter's total power radiated in the measured band (e.g. 1/13 for
  /// one of 13 subchannels under flat PSD, or 1/n_alloc for an uplink
  /// transmission concentrating full power into n_alloc subchannels).
  /// With fading on, each (tx, subchannel) fading gain is computed once per
  /// coherence block per receiver and then read from the receiver's cache.
  ///
  /// The only SINR kernel: InterferenceMap::SinrDb returns its values, so
  /// it runs on shard workers. Its writes go only to the caches of `rx`.
  // cellfi-purity: contract-root(parallel-shard-phase) RadioEnvironment::SinrDb
  // cellfi-purity: contract-root(imap-sealed-read) RadioEnvironment::SinrDb
  double SinrDb(RadioNodeId tx, RadioNodeId rx, std::uint32_t subchannel, SimTime now,
                const std::vector<ActiveTransmitter>& interferers,
                double bandwidth_hz, double signal_scale = 1.0) const;

  /// SNR in dB with no interference (wideband, no fading).
  double MeanSnrDb(RadioNodeId tx, RadioNodeId rx, double bandwidth_hz) const;

  const RadioEnvironmentConfig& config() const { return config_; }
  const FadingProcess& fading() const { return fading_; }

 private:
  const PathLossModel& pathloss_;
  RadioEnvironmentConfig config_;
  ShadowingField shadowing_;
  FadingProcess fading_;
  std::vector<RadioNode> nodes_;
  static constexpr double kUnsetMw = std::numeric_limits<double>::quiet_NaN();
  /// The one link store: mean rx power in mW, NaN = unset. Receiver-major:
  /// rx_mw_rows_[rx][tx] is the power received at `rx` from `tx`, so one
  /// SINR aggregation walks a single contiguous row. Every row has
  /// node_count() entries (AddNode grows them), so reads never resize.
  mutable std::vector<std::vector<double>> rx_mw_rows_;
  /// Per-receiver two-slot (bandwidth_hz, noise_mw) memo for NoiseMw,
  /// most-recently-used first. One slot thrashes when callers alternate
  /// between subchannel and full-band noise at the same receiver.
  struct NoiseMemo {
    double bandwidth_hz[2] = {0.0, 0.0};
    double noise_mw[2] = {0.0, 0.0};
  };
  mutable std::vector<NoiseMemo> noise_mw_cache_;
  /// One receiver's fading-gain cache: the exact
  /// fading_.PowerGain(tx, rx, subchannel, now) for every (tx, subchannel)
  /// the receiver has queried in the coherence block the row is stamped
  /// with, NaN = not yet queried in it (a gain is never NaN). Each queried
  /// tx owns one run of `width` consecutive gains, one per subchannel;
  /// `width` grows to the highest subchannel queried, so any subchannel
  /// count is cached.
  class FadingGainRow {
   public:
    /// Sizes the index for `node_count` nodes, widens the runs to hold
    /// `subchannel` and, when `block` differs from the row's stamp, unsets
    /// every gain and restamps the row. Once per SinrDb call, before Gain.
    void Fit(std::size_t node_count, std::uint32_t subchannel, std::int64_t block);
    /// The gain of `tx` at `rx` on `subchannel` in the row's block,
    /// computed on its first read.
    double Gain(const FadingProcess& fading, RadioNodeId tx, RadioNodeId rx,
                std::uint32_t subchannel);

   private:
    static constexpr std::uint32_t kNoRun = std::numeric_limits<std::uint32_t>::max();
    static constexpr double kUnsetGain = std::numeric_limits<double>::quiet_NaN();
    std::vector<std::uint32_t> run_of_tx_;  // tx -> run index, kNoRun = unqueried
    std::uint32_t width_ = 0;               // gains per run
    std::int64_t block_ = 0;                // block every set gain belongs to
    std::vector<double> gains_;             // run r: [r * width_, (r + 1) * width_)
  };
  /// One row per receiver, appended by AddNode only when fading is on and
  /// sized on the receiver's first fading query. Receiver-owned, like
  /// rx_mw_rows_ (DESIGN.md §15); MoveNode leaves it alone.
  mutable std::vector<FadingGainRow> fading_rows_;
  std::uint64_t position_epoch_ = 1;
};

}  // namespace cellfi
