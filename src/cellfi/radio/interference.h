// Per-epoch interference engine (DESIGN.md §12) — the one resolver of
// every LTE subframe's SINR.
//
// One map is (re)built once per decision epoch — an LTE subframe, after
// every transmitter has committed its plan — from a per-subchannel list of
// active transmitters, appended in the caller's fixed iteration order
// (cell index -> transmission -> subchannel) and shared by all receivers.
//
// The engine is list interning plus an exact memo over
// RadioEnvironment::SinrDb: Seal() gives every list a content id (equal
// lists get the same 64-bit id, in this epoch and in every later one),
// and each receiver memoizes its last SINR per subchannel under a key that
// holds every input of the computation (DESIGN.md §20), so a hit replays
// the double RadioEnvironment::SinrDb returned on the miss.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cellfi/common/time.h"
#include "cellfi/radio/environment.h"

namespace cellfi {

class InterferenceMap {
 public:
  /// `env` must outlive the map.
  explicit InterferenceMap(const RadioEnvironment& env);

  /// Start a new epoch: clears the transmitter lists. `bandwidth_hz` is
  /// the per-subchannel bandwidth used for the noise floor of every SINR.
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
  /// sealed list ids would no longer describe the lists.
  void AddTransmitter(int subchannel, RadioNodeId node, double power_scale);

  /// Intern each per-subchannel list by content and presize the receiver
  /// rows. Idempotent within an epoch. Serial callers may let the first
  /// SinrDb of the epoch invoke it lazily; sharded callers MUST call it at
  /// the barrier, before the first concurrent query, so no worker mutates
  /// shared intern/row storage.
  void Seal() const;

  /// SINR in dB for the signal tx -> rx on `subchannel`, against every
  /// transmitter appended this epoch except tx and rx themselves:
  /// RadioEnvironment::SinrDb over the subchannel's shared list, run only
  /// on a miss of the receiver's SINR memo. The memo has one slot per
  /// subchannel, keyed by (list id, tx, fading block, position epoch,
  /// signal_scale, bandwidth) — every input the computation reads — so a
  /// hit returns the bit-identical double (DESIGN.md §20).
  ///
  /// Thread safety (DESIGN.md §15): after a serial Seal(), concurrent
  /// queries (this one, SinrLinear, SinrDbRow) are safe as long as no two
  /// threads query the same receiver `rx` — every piece of state a query
  /// mutates belongs to its receiver.
  // cellfi-purity: contract-root(parallel-shard-phase) InterferenceMap::SinrDb
  // cellfi-purity: contract-root(imap-sealed-read) InterferenceMap::SinrDb
  double SinrDb(RadioNodeId tx, RadioNodeId rx, int subchannel, SimTime now,
                double signal_scale) const;

  /// DbToLinear(SinrDb(...)), bit for bit: the slot stores the linear
  /// value next to the dB one, computed once per miss (on the first
  /// linear read), so a hit costs no pow.
  // cellfi-purity: contract-root(parallel-shard-phase) InterferenceMap::SinrLinear
  // cellfi-purity: contract-root(imap-sealed-read) InterferenceMap::SinrLinear
  double SinrLinear(RadioNodeId tx, RadioNodeId rx, int subchannel, SimTime now,
                    double signal_scale) const;

  /// SinrDb for every subchannel 0..num_subchannels()-1 into `out` (sized
  /// num_subchannels()): one receiver's whole CQI report. The key fields
  /// all subchannels share (tx, block, position epoch, signal_scale,
  /// bandwidth) are built once; each subchannel then runs the same slot
  /// lookup as SinrDb, so values and memo counts are the same as n SinrDb
  /// calls in subchannel order.
  // cellfi-purity: contract-root(parallel-shard-phase) InterferenceMap::SinrDbRow
  // cellfi-purity: contract-root(imap-sealed-read) InterferenceMap::SinrDbRow
  void SinrDbRow(RadioNodeId tx, RadioNodeId rx, SimTime now, double signal_scale,
                 std::span<double> out) const;

  /// The shared transmitter list for one subchannel (bench/test hook).
  const std::vector<ActiveTransmitter>& transmitters(int subchannel) const {
    return per_subchannel_[static_cast<std::size_t>(subchannel)];
  }

  int num_subchannels() const { return num_subchannels_; }

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
    /// sinr_linear holds DbToLinear(sinr_db). Filled by the first
    /// SinrLinear read after the miss: most misses come from CQI row
    /// queries, which never read it.
    bool has_linear = false;
    double sinr_db = 0.0;
    double sinr_linear = 0.0;
  };

  /// One receiver's SINR memo, one slot per subchannel, kept across
  /// epochs and sized on the receiver's first query. Plain counters: the
  /// row is receiver-owned.
  struct ReceiverRow {
    std::vector<SinrSlot> sinr_memo;
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
  };

  /// `rx`'s row after a lazy Seal(), sized for this epoch's subchannels.
  ReceiverRow& RowOf(RadioNodeId rx) const;

  /// The key fields a query from `tx` at `now` with `signal_scale` shares
  /// across subchannels; list_id is left 0.
  SinrSlot SharedKey(RadioNodeId tx, SimTime now, double signal_scale) const;

  /// `subchannel`'s slot in `row` (which is RowOf(rx)) for `key` plus the
  /// subchannel's list id: returned as is on a hit, recomputed on a miss.
  SinrSlot& Lookup(ReceiverRow& row, const SinrSlot& key, RadioNodeId rx, int subchannel,
                   SimTime now) const;

  /// An interned list: its content is intern_arena_[offset, offset + length).
  struct InternEntry {
    std::uint64_t hash = 0;
    std::uint64_t id = 0;
    std::size_t offset = 0;
    std::size_t length = 0;
  };

  /// The id of `list`'s content: found by hash and confirmed by an exact
  /// compare, or freshly assigned. Serial (called from Seal()).
  std::uint64_t Intern(const std::vector<ActiveTransmitter>& list) const;

  const RadioEnvironment& env_;
  int num_subchannels_ = 0;
  double bandwidth_hz_ = 0.0;
  std::vector<std::vector<ActiveTransmitter>> per_subchannel_;

  mutable bool sealed_ = false;
  mutable std::vector<std::uint64_t> list_id_;  // subchannel -> interned id
  /// Intern table: every interned list's content back to back in one
  /// arena, one entry per list, and an open-addressed index of
  /// 2 * kInternCapacity slots (entry index + 1, 0 = empty). All three
  /// are emptied together at kInternCapacity entries.
  mutable std::vector<ActiveTransmitter> intern_arena_;
  mutable std::vector<InternEntry> intern_entries_;
  mutable std::vector<std::uint32_t> intern_index_;
  mutable std::uint64_t next_list_id_ = 1;
  mutable std::vector<ReceiverRow> rows_;
};

}  // namespace cellfi
