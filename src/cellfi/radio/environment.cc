#include "cellfi/radio/environment.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "cellfi/common/simd.h"

namespace cellfi {

RadioEnvironment::RadioEnvironment(const PathLossModel& pathloss,
                                   RadioEnvironmentConfig config)
    : pathloss_(pathloss),
      config_(config),
      shadowing_(config.seed, config.shadowing_sigma_db),
      fading_(config.seed ^ 0xFAD1FAD1FAD1FAD1ull, config.fading_coherence_time,
              config.rician_k) {
  if (config_.interference_floor_db > 0.0) {
    throw std::invalid_argument(
        "RadioEnvironmentConfig::interference_floor_db > 0 is no longer supported: "
        "the interference cull was removed and every interferer counts");
  }
}

RadioNodeId RadioEnvironment::AddNode(RadioNode node) {
  // O(n): one unset column per existing row, then the new node's row.
  // Rows are sized here, never on read, so the per-interferer SINR path
  // pays no size check and concurrent workers never resize a row.
  for (std::vector<double>& row : rx_mw_rows_) row.push_back(kUnsetMw);
  nodes_.push_back(node);
  rx_mw_rows_.emplace_back(nodes_.size(), kUnsetMw);
  noise_mw_cache_.emplace_back();
  // O(1): an empty row, sized on the receiver's first fading query.
  if (config_.enable_fading) fading_rows_.emplace_back();
  ++position_epoch_;
  return static_cast<RadioNodeId>(nodes_.size() - 1);
}

void RadioEnvironment::MoveNode(RadioNodeId id, Point new_position) {
  assert(id < nodes_.size());
  nodes_[id].position = new_position;
  std::fill(rx_mw_rows_[id].begin(), rx_mw_rows_[id].end(), kUnsetMw);
  for (std::vector<double>& row : rx_mw_rows_) row[id] = kUnsetMw;
  ++position_epoch_;
}

double RadioEnvironment::LinkGainDb(RadioNodeId tx, RadioNodeId rx) const {
  assert(tx < nodes_.size() && rx < nodes_.size());
  assert(tx != rx);
  const RadioNode& t = nodes_[tx];
  const RadioNode& r = nodes_[rx];
  const double dist = Distance(t.position, r.position);
  const double loss = pathloss_.LossDb(dist, config_.carrier_freq_hz);
  return t.antenna.GainTowards(t.position, r.position) +
         r.antenna.GainTowards(r.position, t.position) - loss +
         shadowing_.ShadowDb(tx, rx);
}

double RadioEnvironment::MeanRxPowerDbm(RadioNodeId tx, RadioNodeId rx) const {
  return nodes_[tx].tx_power_dbm + LinkGainDb(tx, rx);
}

double RadioEnvironment::MeanRxPowerMw(RadioNodeId tx, RadioNodeId rx) const {
  double& cached = rx_mw_rows_[rx][tx];
  if (std::isnan(cached)) cached = DbmToMw(MeanRxPowerDbm(tx, rx));
  return cached;
}

double RadioEnvironment::NoiseDbm(RadioNodeId rx, double bandwidth_hz) const {
  return NoisePowerDbm(bandwidth_hz, nodes_[rx].noise_figure_db);
}

double RadioEnvironment::NoiseMw(RadioNodeId rx, double bandwidth_hz) const {
  NoiseMemo& memo = noise_mw_cache_[rx];
  if (memo.bandwidth_hz[0] == bandwidth_hz) return memo.noise_mw[0];
  if (memo.bandwidth_hz[1] == bandwidth_hz) {
    // Promote to MRU so an alternating pair of bandwidths always hits.
    std::swap(memo.bandwidth_hz[0], memo.bandwidth_hz[1]);
    std::swap(memo.noise_mw[0], memo.noise_mw[1]);
    return memo.noise_mw[0];
  }
  memo.bandwidth_hz[1] = memo.bandwidth_hz[0];
  memo.noise_mw[1] = memo.noise_mw[0];
  memo.bandwidth_hz[0] = bandwidth_hz;
  memo.noise_mw[0] = DbmToMw(NoiseDbm(rx, bandwidth_hz));
  return memo.noise_mw[0];
}

void RadioEnvironment::FadingGainRow::Fit(std::size_t node_count,
                                          std::uint32_t subchannel, std::int64_t block) {
  if (run_of_tx_.size() < node_count) run_of_tx_.resize(node_count, kNoRun);
  if (block != block_) {
    // Another block, later or earlier: every gain of the row is stale.
    std::fill(gains_.begin(), gains_.end(), kUnsetGain);
    block_ = block;
  }
  if (subchannel < width_) return;
  // Re-lay every run at the new width; rare (a receiver's first queries of
  // ever higher subchannels), and the gains already there are kept.
  const std::uint32_t width = subchannel + 1;
  const std::size_t runs = width_ == 0 ? 0 : gains_.size() / width_;
  std::vector<double> wider(runs * width, kUnsetGain);
  for (std::size_t r = 0; r < runs; ++r) {
    std::copy_n(gains_.begin() + static_cast<std::ptrdiff_t>(r * width_), width_,
                wider.begin() + static_cast<std::ptrdiff_t>(r * width));
  }
  gains_.swap(wider);
  width_ = width;
}

double RadioEnvironment::FadingGainRow::Gain(const FadingProcess& fading, RadioNodeId tx,
                                             RadioNodeId rx, std::uint32_t subchannel) {
  std::uint32_t run = run_of_tx_[tx];
  if (run == kNoRun) {
    run = static_cast<std::uint32_t>(gains_.size() / width_);
    run_of_tx_[tx] = run;
    gains_.resize(gains_.size() + width_, kUnsetGain);
  }
  double& gain = gains_[static_cast<std::size_t>(run) * width_ + subchannel];
  if (std::isnan(gain)) gain = fading.PowerGainInBlock(tx, rx, subchannel, block_);
  return gain;
}

double RadioEnvironment::SinrDb(RadioNodeId tx, RadioNodeId rx, std::uint32_t subchannel,
                                SimTime now,
                                const std::vector<ActiveTransmitter>& interferers,
                                double bandwidth_hz, double signal_scale) const {
  // Fully linear hot path: the receiver's contiguous mean-power row, its
  // fading-gain cache and the memoized noise floor. A fading hash is paid
  // once per (tx, subchannel, coherence block), not once per term.
  double* row = rx_mw_rows_[rx].data();
  double signal_mw = row[tx];
  if (std::isnan(signal_mw)) signal_mw = row[tx] = DbmToMw(MeanRxPowerDbm(tx, rx));
  signal_mw *= signal_scale;
  FadingGainRow* gains = nullptr;
  if (config_.enable_fading) {
    gains = &fading_rows_[rx];
    gains->Fit(nodes_.size(), subchannel, fading_.Block(now));
    signal_mw *= gains->Gain(fading_, tx, rx, subchannel);
  }
  // Blocked accumulation (DESIGN.md §17): contributing term i goes to lane
  // i mod 8, lanes combine with the fixed ReduceLanes8 tree. Skipped
  // entries are compacted out (they never occupy a lane), so the value
  // depends only on the contributing-term sequence. This is the one SINR
  // kernel: InterferenceMap caches and returns its values.
  double lanes[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  std::size_t m = 0;
  for (const ActiveTransmitter& it : interferers) {
    if (it.node == tx || it.node == rx || it.power_scale <= 0.0) continue;
    double p = row[it.node];
    if (std::isnan(p)) p = row[it.node] = DbmToMw(MeanRxPowerDbm(it.node, rx));
    p *= it.power_scale;
    if (gains != nullptr) p *= gains->Gain(fading_, it.node, rx, subchannel);
    lanes[m & 7] += p;
    ++m;
  }
  const double denom_mw = NoiseMw(rx, bandwidth_hz) + simd::ReduceLanes8(lanes);
  return LinearToDb(signal_mw / denom_mw);
}

double RadioEnvironment::MeanSnrDb(RadioNodeId tx, RadioNodeId rx,
                                   double bandwidth_hz) const {
  return MeanRxPowerDbm(tx, rx) - NoiseDbm(rx, bandwidth_hz);
}

}  // namespace cellfi
