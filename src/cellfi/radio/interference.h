// Per-epoch interference engine (DESIGN.md §12).
//
// One map answers every SINR query of a decision epoch — an LTE subframe,
// after every transmitter has committed its plan — from shared precomputed
// state instead of rebuilding a per-link interferer vector for each
// (receiver, subchannel):
//
//   * a per-subchannel list of active transmitters, appended in the
//     caller's (deterministic) iteration order and shared by all receivers;
//   * with fading disabled, a per-receiver row holding the final SINR (dB)
//     per distinct transmitter list, filled lazily on first query.
//
// An epoch is content-versioned: it names a set of transmitter lists (plus
// subchannel count and bandwidth), not a call to BeginEpoch. Seal compares
// the new lists with the previous sealed ones and keeps the epoch when they
// are equal, so receiver rows survive every subframe whose lists repeat —
// in a backlogged deployment, nearly all of them.
//
// Every appended transmitter's term counts, however weak (DESIGN.md §12).
//
// The map computes no SINR itself: every value, cached or not, is one call
// of RadioEnvironment::SinrDb over the subchannel's shared list, so the
// engine equals the per-link path by construction. Subchannels whose
// transmitter lists compare equal share one aggregation group, and with
// fading off a group's value is one call (the list is the same, and the
// mean-power SINR does not depend on subchannel or time). A cached SINR is
// a pure function of its row key (epoch, excluded transmitter, signal
// scale, mobility stamp) and group, so reusing it across epochs returns
// the same bits a new call would.
#pragma once

#include <cstdint>
#include <vector>

#include "cellfi/common/time.h"
#include "cellfi/radio/environment.h"

namespace cellfi {

class InterferenceMap {
 public:
  /// `env` must outlive the map.
  explicit InterferenceMap(const RadioEnvironment& env);

  /// Start collecting a new epoch's transmitter lists. The last sealed
  /// lists are kept (swapped, not copied) for Seal to compare against; the
  /// receiver rows stay until Seal finds the lists changed. `bandwidth_hz`
  /// is the per-subchannel bandwidth used for the noise floor of every
  /// aggregate.
  void BeginEpoch(int num_subchannels, double bandwidth_hz);

  /// Append an active transmitter on `subchannel`. Call order defines the
  /// interference accumulation order; callers iterate their transmitter
  /// sets in a fixed order (cell index, then transmission, then
  /// subchannel) so results are reproducible. The signal source itself may
  /// be present — it is skipped at query time (node == tx), matching
  /// RadioEnvironment::SinrDb.
  ///
  /// Appending after Seal() is a programming error CHECKed in every build
  /// (throws std::logic_error): sharded producers stage appends on worker
  /// threads and merge them at the subframe barrier, which makes a
  /// late-append bug both easier to write and quietly corrupting — the
  /// sealed aggregation groups would no longer describe the lists.
  void AddTransmitter(int subchannel, RadioNodeId node, double power_scale);

  /// Deduplicate per-subchannel lists into aggregation groups and presize
  /// the receiver rows. When the lists, subchannel count and bandwidth
  /// equal the previous sealed epoch's exactly, the epoch number, groups
  /// and every receiver row are kept; otherwise the epoch advances, which
  /// invalidates every row. Idempotent within an epoch. Serial callers may
  /// let the first SinrDb of the epoch invoke it lazily; sharded callers
  /// MUST call it at the barrier, before the first concurrent query, so no
  /// worker mutates shared group/row storage.
  void Seal() const;

  /// SINR in dB for the signal tx -> rx on `subchannel`, against every
  /// transmitter appended this epoch except tx and rx themselves.
  ///
  /// The value is RadioEnvironment::SinrDb over this subchannel's list.
  /// With fading disabled it comes from the receiver's cached row (filled
  /// lazily per aggregation group, invalidated by a change of the lists at
  /// Seal, of the serving transmitter or `signal_scale`, and by node
  /// mobility). With fading enabled the value depends on subchannel and
  /// time, so every query is a fresh call, each fading gain read from the
  /// receiver's cache in RadioEnvironment.
  ///
  /// Thread safety (DESIGN.md §15): after a serial Seal(), concurrent
  /// SinrDb calls are safe as long as no two threads query the same
  /// receiver `rx` — all mutable state is receiver-indexed.
  // cellfi-purity: contract-root(parallel-shard-phase) InterferenceMap::SinrDb
  // cellfi-purity: contract-root(imap-sealed-read) InterferenceMap::SinrDb
  double SinrDb(RadioNodeId tx, RadioNodeId rx, int subchannel, SimTime now,
                double signal_scale) const;

  /// The shared transmitter list for one subchannel (bench/test hook).
  const std::vector<ActiveTransmitter>& transmitters(int subchannel) const {
    return per_subchannel_[static_cast<std::size_t>(subchannel)];
  }

  int num_subchannels() const { return num_subchannels_; }
  /// Distinct transmitter lists this epoch (valid once sealed).
  int num_groups() const { return num_groups_; }
  /// Version of the sealed lists: unchanged by an epoch whose lists repeat
  /// the previous sealed ones (bench/test hook, valid once sealed).
  std::uint64_t epoch() const { return epoch_; }

 private:
  /// Per-receiver cache of SINRs, one slot per aggregation group. A row
  /// is valid for one (epoch, excluded transmitter, signal scale, mobility
  /// stamp) combination; its group slots fill lazily, so only queried
  /// subchannels pay for the RadioEnvironment::SinrDb call.
  struct ReceiverRow {
    std::uint64_t epoch = 0;           // InterferenceMap epoch at build
    std::uint64_t position_epoch = 0;  // RadioEnvironment mobility stamp
    RadioNodeId excluded = 0;          // signal source baked out of the sum
    double signal_scale = 0.0;         // signal power fraction
    std::vector<double> sinr_db;       // per aggregation group, NaN = unset
  };

  const RadioEnvironment& env_;
  int num_subchannels_ = 0;
  double bandwidth_hz_ = 0.0;
  std::vector<std::vector<ActiveTransmitter>> per_subchannel_;
  /// The lists `epoch_` describes, once BeginEpoch has swapped them out of
  /// per_subchannel_ (until then per_subchannel_ still holds them).
  std::vector<std::vector<ActiveTransmitter>> prev_;

  mutable bool sealed_ = false;
  /// Version of the sealed lists, 0 = nothing sealed yet. Written only by
  /// Seal, at the serial barrier.
  mutable std::uint64_t epoch_ = 0;
  mutable int epoch_num_subchannels_ = 0;    // num_subchannels_ at epoch_
  mutable double epoch_bandwidth_hz_ = 0.0;  // bandwidth_hz_ at epoch_
  mutable int num_groups_ = 0;
  mutable std::vector<int> group_of_;   // subchannel -> aggregation group
  mutable std::vector<int> group_rep_;  // group -> representative subchannel
  mutable std::vector<ReceiverRow> rows_;
};

}  // namespace cellfi
