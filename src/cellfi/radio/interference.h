// Per-epoch interference engine (DESIGN.md §12).
//
// One map is (re)built once per decision epoch — an LTE subframe, after
// every transmitter has committed its plan — and then answers every SINR
// query of that epoch from shared precomputed state instead of rebuilding a
// per-link interferer vector for each (receiver, subchannel):
//
//   * a per-subchannel list of active transmitters, appended in the
//     caller's (deterministic) iteration order and shared by all receivers;
//   * with fading disabled, a per-receiver aggregate denominator (noise +
//     mean interference power, mW) per distinct transmitter list, cached in
//     a lazily built receiver row.
//
// Every appended transmitter's term counts, however weak (DESIGN.md §12).
//
// Determinism contract: SinrDb returns bit-identical values to
// RadioEnvironment::SinrDb over the same interferer sequence.
// Both paths gather contributing terms from the same receiver-major
// rx-power cache rows in append order and accumulate them in the fixed
// 8-lane blocked order of DESIGN.md §17 (contributing term i -> lane
// i mod 8, fixed lane-combine tree; here via simd::BlockedSum8 over a
// compacted structure-of-arrays term row, in the per-link path via inline
// lanes) — the same floating-point addition sequence, hence identical
// values, in scalar and SIMD builds alike. Subchannels whose transmitter
// lists compare equal share one aggregation (identical addition sequence,
// hence identical value).
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

  /// Start a new epoch: clears the transmitter lists and invalidates every
  /// receiver row. `bandwidth_hz` is the per-subchannel bandwidth used for
  /// the noise floor of every aggregate.
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
  /// the receiver rows. Idempotent within an epoch. Serial callers may let
  /// the first SinrDb of the epoch invoke it lazily; sharded callers MUST
  /// call it at the barrier, before the first concurrent query, so no
  /// worker mutates shared group/row storage.
  void Seal() const;

  /// SINR in dB for the signal tx -> rx on `subchannel`, against every
  /// transmitter appended this epoch except tx and rx themselves.
  ///
  /// With fading disabled the denominator comes from the receiver's cached
  /// aggregate row (built lazily per aggregation group, invalidated by
  /// BeginEpoch, by a change of serving transmitter and by node mobility).
  /// With fading enabled the mean-power aggregate would be wrong — the
  /// per-subchannel fading term cannot be pre-aggregated — so the query
  /// falls back to per-link summation over the shared list, with each
  /// fading gain read from the receiver's cache in RadioEnvironment.
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

 private:
  /// Per-receiver cache of aggregate denominators, one slot per
  /// aggregation group. A row is valid for one (epoch, excluded
  /// transmitter, mobility stamp) combination; its group slots fill
  /// lazily, so only queried subchannels pay for aggregation.
  struct ReceiverRow {
    std::uint64_t epoch = 0;           // InterferenceMap epoch at build
    std::uint64_t position_epoch = 0;  // RadioEnvironment mobility stamp
    RadioNodeId excluded = 0;          // signal source baked out of the sum
    std::vector<double> denom_mw;      // per aggregation group
    std::vector<std::uint8_t> built;   // per aggregation group
    /// Compacted contributing-term powers (mW) fed to simd::BlockedSum8.
    /// Receiver-owned, so concurrent queries of distinct receivers never
    /// share it (same ownership rule as the row itself).
    std::vector<double> terms;
  };

  /// Structure-of-arrays view of one aggregation group's transmitter list
  /// (power_scale <= 0 entries dropped at Seal — both query paths skip
  /// them unconditionally), so the aggregation walks two flat arrays
  /// instead of striding over ActiveTransmitter records.
  struct GroupTerms {
    std::vector<RadioNodeId> node;
    std::vector<double> scale;
  };

  /// Aggregate denominator for aggregation group `group`: noise floor plus
  /// the blocked-order sum (simd::BlockedSum8) of the contributing terms,
  /// compacted into `terms` (the querying receiver's row scratch).
  // cellfi-purity: contract-root(imap-sealed-read) InterferenceMap::AggregateDenomMw
  double AggregateDenomMw(RadioNodeId tx, RadioNodeId rx, int group,
                          std::vector<double>& terms) const;

  const RadioEnvironment& env_;
  int num_subchannels_ = 0;
  double bandwidth_hz_ = 0.0;
  std::uint64_t epoch_ = 0;
  std::vector<std::vector<ActiveTransmitter>> per_subchannel_;

  mutable bool sealed_ = false;
  mutable int num_groups_ = 0;
  mutable std::vector<int> group_of_;   // subchannel -> aggregation group
  mutable std::vector<int> group_rep_;  // group -> representative subchannel
  mutable std::vector<GroupTerms> group_terms_;  // group -> SoA term row
  mutable std::vector<ReceiverRow> rows_;
};

}  // namespace cellfi
