#include "cellfi/radio/interference.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "cellfi/common/simd.h"
#include "cellfi/common/units.h"

namespace cellfi {

namespace {

bool SameList(const std::vector<ActiveTransmitter>& a,
              const std::vector<ActiveTransmitter>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node || a[i].power_scale != b[i].power_scale) return false;
  }
  return true;
}

}  // namespace

InterferenceMap::InterferenceMap(const RadioEnvironment& env) : env_(env) {}

void InterferenceMap::BeginEpoch(int num_subchannels, double bandwidth_hz) {
  // Keep the sealed lists for Seal's comparison. An epoch begun and never
  // sealed leaves prev_ alone: it still holds the lists epoch_ describes.
  if (sealed_) per_subchannel_.swap(prev_);
  num_subchannels_ = num_subchannels;
  bandwidth_hz_ = bandwidth_hz;
  if (per_subchannel_.size() < static_cast<std::size_t>(num_subchannels)) {
    per_subchannel_.resize(static_cast<std::size_t>(num_subchannels));
  }
  for (int s = 0; s < num_subchannels; ++s) {
    per_subchannel_[static_cast<std::size_t>(s)].clear();
  }
  sealed_ = false;
}

void InterferenceMap::AddTransmitter(int subchannel, RadioNodeId node,
                                     double power_scale) {
  if (sealed_) {
    // Release-build CHECK, not an assert: sharded producers stage appends
    // off-thread and merge at the barrier, where an append-after-Seal slips
    // in easily and silently desynchronizes the aggregation groups from
    // the lists they were computed over.
    throw std::logic_error(
        "InterferenceMap::AddTransmitter called after Seal(): the epoch's "
        "transmitter lists are frozen once grouped (first SinrDb or explicit "
        "Seal); call BeginEpoch before appending to a new epoch");
  }
  assert(subchannel >= 0 && subchannel < num_subchannels_);
  per_subchannel_[static_cast<std::size_t>(subchannel)].push_back(
      ActiveTransmitter{.node = node, .power_scale = power_scale});
}

void InterferenceMap::Seal() const {
  if (sealed_) return;
  sealed_ = true;
  // Presize the receiver rows here, at the (serial) barrier, so concurrent
  // queries never see a resize — each worker then only writes the rows of
  // receivers it owns.
  if (rows_.size() < env_.node_count()) rows_.resize(env_.node_count());
  if (epoch_ != 0 && num_subchannels_ == epoch_num_subchannels_ &&
      bandwidth_hz_ == epoch_bandwidth_hz_) {
    bool same = true;
    for (int s = 0; s < num_subchannels_ && same; ++s) {
      same = SameList(per_subchannel_[static_cast<std::size_t>(s)],
                      prev_[static_cast<std::size_t>(s)]);
    }
    // Same content, same epoch: the groups and every receiver row still
    // describe these lists exactly.
    if (same) return;
  }
  ++epoch_;
  epoch_num_subchannels_ = num_subchannels_;
  epoch_bandwidth_hz_ = bandwidth_hz_;
  group_of_.assign(static_cast<std::size_t>(num_subchannels_), 0);
  group_rep_.clear();
  num_groups_ = 0;
  for (int s = 0; s < num_subchannels_; ++s) {
    int group = -1;
    for (int g = 0; g < num_groups_; ++g) {
      if (SameList(per_subchannel_[static_cast<std::size_t>(s)],
                   per_subchannel_[static_cast<std::size_t>(group_rep_[
                       static_cast<std::size_t>(g)])])) {
        group = g;
        break;
      }
    }
    if (group < 0) {
      group = num_groups_++;
      group_rep_.push_back(s);
    }
    group_of_[static_cast<std::size_t>(s)] = group;
  }
  // Flatten each group's representative list into structure-of-arrays term
  // rows. power_scale <= 0 entries are dropped here once — both query
  // paths skip them unconditionally, so the contributing-term sequence is
  // unchanged — leaving the aggregation two dense arrays to stream.
  if (group_terms_.size() < static_cast<std::size_t>(num_groups_)) {
    group_terms_.resize(static_cast<std::size_t>(num_groups_));
  }
  for (int g = 0; g < num_groups_; ++g) {
    GroupTerms& gt = group_terms_[static_cast<std::size_t>(g)];
    gt.node.clear();
    gt.scale.clear();
    for (const ActiveTransmitter& it : per_subchannel_[static_cast<std::size_t>(
             group_rep_[static_cast<std::size_t>(g)])]) {
      if (it.power_scale <= 0.0) continue;
      gt.node.push_back(it.node);
      gt.scale.push_back(it.power_scale);
    }
  }
}

double InterferenceMap::AggregateDenomMw(RadioNodeId tx, RadioNodeId rx,
                                         int group,
                                         std::vector<double>& terms) const {
  // Same contributing-term sequence as RadioEnvironment::SinrDb — the same
  // cached mean powers gathered in list order — compacted into `terms` and
  // summed in the fixed 8-lane blocked order (simd::BlockedSum8, DESIGN.md
  // §17). Keeping sequence and order identical is what makes the engine
  // bit-identical to the per-link path, in scalar and SIMD builds alike.
  const double noise_mw = env_.NoiseMw(rx, bandwidth_hz_);
  const GroupTerms& gt = group_terms_[static_cast<std::size_t>(group)];
  const std::size_t count = gt.node.size();
  // Presized index stores, not push_back: no per-element capacity branch
  // in the hot loop (capacity persists across epochs in the receiver row).
  if (terms.size() < count) terms.resize(count);
  double* out = terms.data();
  std::size_t m = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const RadioNodeId node = gt.node[i];
    const double scale = gt.scale[i];
    if (node == tx || node == rx) continue;
    out[m++] = env_.MeanRxPowerMw(node, rx) * scale;
  }
  return noise_mw + simd::BlockedSum8(out, m);
}

double InterferenceMap::SinrDb(RadioNodeId tx, RadioNodeId rx, int subchannel,
                               SimTime now, double signal_scale) const {
  assert(subchannel >= 0 && subchannel < num_subchannels_);
  Seal();

  if (env_.config().enable_fading) {
    // Fading is per (link, subchannel, time): the mean-power aggregate
    // cannot stand in for it, so sum per link over the shared list.
    return env_.SinrDb(tx, rx, static_cast<std::uint32_t>(subchannel), now,
                       per_subchannel_[static_cast<std::size_t>(subchannel)],
                       bandwidth_hz_, signal_scale);
  }

  if (rows_.size() < env_.node_count()) rows_.resize(env_.node_count());
  ReceiverRow& row = rows_[rx];
  if (row.epoch != epoch_ || row.excluded != tx || row.signal_scale != signal_scale ||
      row.position_epoch != env_.position_epoch()) {
    row.epoch = epoch_;
    row.excluded = tx;
    row.signal_scale = signal_scale;
    row.position_epoch = env_.position_epoch();
    row.sinr_db.assign(static_cast<std::size_t>(num_groups_),
                       std::numeric_limits<double>::quiet_NaN());
  }
  const std::size_t g =
      static_cast<std::size_t>(group_of_[static_cast<std::size_t>(subchannel)]);
  double& sinr_db = row.sinr_db[g];
  if (std::isnan(sinr_db)) {
    const double denom_mw = AggregateDenomMw(tx, rx, static_cast<int>(g), row.terms);
    const double signal_mw = env_.MeanRxPowerMw(tx, rx) * signal_scale;
    sinr_db = LinearToDb(signal_mw / denom_mw);
  }
  return sinr_db;
}

}  // namespace cellfi
