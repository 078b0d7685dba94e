#include "cellfi/radio/interference.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

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
}

double InterferenceMap::SinrDb(RadioNodeId tx, RadioNodeId rx, int subchannel,
                               SimTime now, double signal_scale) const {
  assert(subchannel >= 0 && subchannel < num_subchannels_);
  Seal();

  const auto sinr_db_of_list = [&] {
    return env_.SinrDb(tx, rx, static_cast<std::uint32_t>(subchannel), now,
                       per_subchannel_[static_cast<std::size_t>(subchannel)],
                       bandwidth_hz_, signal_scale);
  };
  // Fading is per (link, subchannel, time): no group value stands in for it.
  if (env_.config().enable_fading) return sinr_db_of_list();

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
  if (std::isnan(sinr_db)) sinr_db = sinr_db_of_list();
  return sinr_db;
}

}  // namespace cellfi
