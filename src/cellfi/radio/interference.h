// Per-epoch interference engine (DESIGN.md §12) — the one resolver of
// every LTE subframe's SINR.
//
// One map is (re)built once per decision epoch — an LTE subframe, after
// every transmitter has committed its plan — and then answers every SINR
// query of that epoch from shared precomputed state:
//
//   * a per-subchannel list of active transmitters, appended in the
//     caller's fixed iteration order (cell index -> transmission ->
//     subchannel) and shared by all receivers;
//   * with fading disabled, a per-receiver aggregate denominator (noise +
//     mean interference power, mW) per distinct transmitter list, cached in
//     a lazily built receiver row;
//   * an optional negligible-interferer cull
//     (RadioEnvironmentConfig::interference_floor_db).
//
// Determinism contract: with culling off, SinrDb returns bit-identical
// values to RadioEnvironment::SinrDb over the same interferer sequence,
// which is what the tests use as the reference. Both gather contributing
// terms from the same receiver-major rx-power cache rows in append order
// and accumulate them in the fixed 8-lane blocked order of DESIGN.md §17
// (contributing term i -> lane i mod 8, fixed lane-combine tree; here via
// simd::BlockedSum8 over a compacted structure-of-arrays term row, in
// RadioEnvironment::SinrDb via inline lanes) — the same floating-point
// addition sequence, hence identical values, in scalar and SIMD builds
// alike. Seal() interns every subchannel's list by content: equal lists
// get the same 64-bit id, in this epoch and in every later one. Subchannels that share an id share
// one aggregation (identical addition sequence, hence identical value),
// and with the cull off each receiver memoizes its last SINR per
// subchannel under a key that holds every input of the computation
// (DESIGN.md §20), so a hit replays the exact double.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cellfi/common/time.h"
#include "cellfi/radio/environment.h"

namespace cellfi {

class NeighborGraph;

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

  /// Intern each per-subchannel list by content, group subchannels that
  /// share an id for aggregation, and presize the receiver rows.
  /// Idempotent within an epoch. Serial callers may let
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
  /// falls back to per-link summation over the shared list.
  ///
  /// With the cull off, either path runs only on a miss of the receiver's
  /// SINR memo: one slot per subchannel, keyed by (list id, tx, fading
  /// block, position epoch, signal_scale, bandwidth) — every input the
  /// computation reads — so a hit returns the bit-identical double
  /// (DESIGN.md §20).
  ///
  /// Thread safety (DESIGN.md §15): after a serial Seal(), concurrent
  /// SinrDb calls are safe as long as no two threads query the same
  /// receiver `rx` — all mutable state is receiver-indexed except the cull
  /// counters (relaxed atomics; their sums are order-independent) and the
  /// fading-path cull scratch, for which concurrent callers must pass a
  /// per-thread `scratch` buffer (nullptr = shared member, serial only).
  // cellfi-purity: contract-root(parallel-shard-phase) InterferenceMap::SinrDb
  // cellfi-purity: contract-root(imap-sealed-read) InterferenceMap::SinrDb
  double SinrDb(RadioNodeId tx, RadioNodeId rx, int subchannel, SimTime now,
                double signal_scale,
                std::vector<ActiveTransmitter>* scratch = nullptr) const;

  /// Attach a prebuilt NeighborGraph as a cull fast path (nullptr
  /// detaches). Checked at BeginEpoch and used only when it provably
  /// changes nothing: the cull must be enabled and the graph must match
  /// the environment's node count, floor and bandwidth and the current
  /// position epoch. A non-neighbor at power_scale <= 1 is, by the graph's
  /// construction, exactly a transmitter the cull would drop — so results
  /// and cull counters are bit-identical with or without the graph.
  void SetNeighborGraph(const NeighborGraph* graph) { neighbor_graph_ = graph; }
  /// True if the current epoch is using the attached graph (test hook).
  bool using_neighbor_graph() const { return graph_active_; }

  /// The shared transmitter list for one subchannel (bench/test hook).
  const std::vector<ActiveTransmitter>& transmitters(int subchannel) const {
    return per_subchannel_[static_cast<std::size_t>(subchannel)];
  }

  int num_subchannels() const { return num_subchannels_; }
  /// Distinct transmitter lists this epoch (valid once sealed).
  int num_groups() const { return num_groups_; }

  /// Interference terms dropped by the cull in the current epoch / since
  /// construction. With the cull disabled both stay 0. Relaxed atomics:
  /// concurrent shard queries bump them in arbitrary order, but the sums
  /// are order-independent, so the values read at the barrier are
  /// deterministic for any shard count.
  std::uint64_t culled_this_epoch() const {
    return culled_epoch_.load(std::memory_order_relaxed);
  }
  std::uint64_t culled_total() const {
    return culled_total_.load(std::memory_order_relaxed);
  }

  /// SINR memo hits and misses since construction, summed over receivers.
  /// Serial only: the counts live in the receiver-owned rows.
  struct SinrMemoStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  SinrMemoStats sinr_memo_stats() const;

  /// Distinct lists the intern table holds before it is emptied. Ids are
  /// never reused, so emptying it only costs misses, never a wrong hit.
  static constexpr std::size_t kInternCapacity = 256;

 private:
  /// One receiver's last SINR on one subchannel and the inputs it was
  /// computed from. list_id 0 marks an empty slot (interned ids start at 1).
  struct SinrSlot {
    std::uint64_t list_id = 0;
    std::uint64_t block = 0;  // fading block; 0 with fading off
    std::uint64_t position_epoch = 0;
    std::uint64_t signal_scale_bits = 0;
    std::uint64_t bandwidth_bits = 0;
    RadioNodeId tx = 0;
    double sinr_db = 0.0;
  };

  /// An interned transmitter list and its id.
  struct InternedList {
    std::uint64_t id = 0;
    std::vector<ActiveTransmitter> list;
  };

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
    /// SINR memo, one slot per subchannel, kept across epochs; sized on
    /// the receiver's first query. Plain counters: the row is
    /// receiver-owned.
    std::vector<SinrSlot> sinr_memo;
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
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
  /// the blocked-order sum (simd::BlockedSum8) of the surviving terms,
  /// compacted into `terms` (the querying receiver's row scratch).
  // cellfi-purity: contract-root(imap-sealed-read) InterferenceMap::AggregateDenomMw
  double AggregateDenomMw(RadioNodeId tx, RadioNodeId rx, int group,
                          std::vector<double>& terms) const;
  /// The unmemoized SINR: the per-link path with fading on (through the
  /// cull when enabled), the receiver's aggregate row with it off.
  double ComputeSinrDb(RadioNodeId tx, RadioNodeId rx, int subchannel, SimTime now,
                       double signal_scale,
                       std::vector<ActiveTransmitter>* scratch) const;
  /// The id of `list`'s content: found by hash and confirmed by an exact
  /// compare, or freshly assigned. Serial (called from Seal()).
  std::uint64_t Intern(const std::vector<ActiveTransmitter>& list) const;
  /// The graph-vs-cull equivalence only holds when the graph describes the
  /// current geometry and floor; recomputed each BeginEpoch.
  bool GraphMatchesEpoch() const;

  const RadioEnvironment& env_;
  int num_subchannels_ = 0;
  double bandwidth_hz_ = 0.0;
  /// Linear cull threshold relative to the receiver's noise floor:
  /// interferer mean power < noise * cull_scale_ is dropped. 0 = cull off.
  double cull_scale_ = 0.0;
  std::uint64_t epoch_ = 0;
  std::vector<std::vector<ActiveTransmitter>> per_subchannel_;
  const NeighborGraph* neighbor_graph_ = nullptr;
  bool graph_active_ = false;

  mutable bool sealed_ = false;
  mutable int num_groups_ = 0;
  mutable std::vector<std::uint64_t> list_id_;  // subchannel -> interned id
  mutable std::vector<int> group_of_;   // subchannel -> aggregation group
  mutable std::vector<int> group_rep_;  // group -> representative subchannel
  /// Content-hash -> interned lists; emptied at kInternCapacity entries.
  mutable std::unordered_multimap<std::uint64_t, InternedList> interned_;
  mutable std::uint64_t next_list_id_ = 1;
  mutable std::vector<GroupTerms> group_terms_;  // group -> SoA term row
  mutable std::vector<ReceiverRow> rows_;
  mutable std::vector<ActiveTransmitter> cull_scratch_;
  mutable std::atomic<std::uint64_t> culled_epoch_{0};
  mutable std::atomic<std::uint64_t> culled_total_{0};
};

}  // namespace cellfi
