#include "cellfi/radio/interference.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "cellfi/common/units.h"

namespace cellfi {

namespace {

constexpr std::size_t kInternIndexSlots = 2 * InterferenceMap::kInternCapacity;
static_assert(std::has_single_bit(kInternIndexSlots));

// Exact content equality, bit for bit, so that equal lists are
// interchangeable inputs to every SINR computation.
bool SameList(const ActiveTransmitter* a, std::size_t length,
              const std::vector<ActiveTransmitter>& b) {
  if (length != b.size()) return false;
  for (std::size_t i = 0; i < length; ++i) {
    if (a[i].node != b[i].node || std::bit_cast<std::uint64_t>(a[i].power_scale) !=
                                      std::bit_cast<std::uint64_t>(b[i].power_scale)) {
      return false;
    }
  }
  return true;
}

std::uint64_t HashList(const std::vector<ActiveTransmitter>& list) {
  std::uint64_t h = list.size();
  for (const ActiveTransmitter& t : list) {
    h = (h ^ t.node) * 0x9E3779B97F4A7C15ull;
    h = (h ^ std::bit_cast<std::uint64_t>(t.power_scale)) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  return h;
}

}  // namespace

InterferenceMap::InterferenceMap(const RadioEnvironment& env)
    : env_(env), intern_index_(kInternIndexSlots, 0) {}

void InterferenceMap::BeginEpoch(int num_subchannels, double bandwidth_hz) {
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
    // in easily and silently desynchronizes the list ids from the lists
    // they were computed over.
    throw std::logic_error(
        "InterferenceMap::AddTransmitter called after Seal(): the epoch's "
        "transmitter lists are frozen once interned (first SinrDb or explicit "
        "Seal); call BeginEpoch before appending to a new epoch");
  }
  assert(subchannel >= 0 && subchannel < num_subchannels_);
  per_subchannel_[static_cast<std::size_t>(subchannel)].push_back(
      ActiveTransmitter{.node = node, .power_scale = power_scale});
}

void InterferenceMap::Seal() const {
  if (sealed_) return;
  sealed_ = true;
  list_id_.resize(static_cast<std::size_t>(num_subchannels_));
  for (int s = 0; s < num_subchannels_; ++s) {
    list_id_[static_cast<std::size_t>(s)] =
        Intern(per_subchannel_[static_cast<std::size_t>(s)]);
  }
  // Presize the receiver rows here, at the (serial) barrier, so concurrent
  // queries never see a resize — each worker then only writes the rows of
  // receivers it owns.
  if (rows_.size() < env_.node_count()) rows_.resize(env_.node_count());
}

std::uint64_t InterferenceMap::Intern(
    const std::vector<ActiveTransmitter>& list) const {
  const std::uint64_t hash = HashList(list);
  // Linear probing; the index is at most half full, so a probe ends.
  constexpr std::size_t kMask = kInternIndexSlots - 1;
  std::size_t i = static_cast<std::size_t>(hash) & kMask;
  for (; intern_index_[i] != 0; i = (i + 1) & kMask) {
    const InternEntry& e = intern_entries_[intern_index_[i] - 1];
    if (e.hash == hash && SameList(intern_arena_.data() + e.offset, e.length, list)) {
      return e.id;
    }
  }
  if (intern_entries_.size() >= kInternCapacity) {
    intern_arena_.clear();
    intern_entries_.clear();
    std::fill(intern_index_.begin(), intern_index_.end(), 0);
    i = static_cast<std::size_t>(hash) & kMask;
  }
  intern_entries_.push_back({.hash = hash,
                             .id = next_list_id_++,
                             .offset = intern_arena_.size(),
                             .length = list.size()});
  intern_arena_.insert(intern_arena_.end(), list.begin(), list.end());
  intern_index_[i] = static_cast<std::uint32_t>(intern_entries_.size());
  return intern_entries_.back().id;
}

InterferenceMap::ReceiverRow& InterferenceMap::RowOf(RadioNodeId rx) const {
  Seal();
  if (rows_.size() < env_.node_count()) rows_.resize(env_.node_count());
  ReceiverRow& row = rows_[rx];
  if (row.sinr_memo.size() < static_cast<std::size_t>(num_subchannels_)) {
    row.sinr_memo.resize(static_cast<std::size_t>(num_subchannels_));
  }
  return row;
}

InterferenceMap::SinrSlot InterferenceMap::SharedKey(RadioNodeId tx, SimTime now,
                                                     double signal_scale) const {
  // Every input the computation reads but the list: the signal source,
  // fading (block), the mean-power row (position epoch), the signal share
  // and the noise bandwidth. rx and subchannel pick the slot.
  return SinrSlot{
      .block = env_.config().enable_fading ? env_.fading().BlockIndex(now) : 0,
      .position_epoch = env_.position_epoch(),
      .signal_scale_bits = std::bit_cast<std::uint64_t>(signal_scale),
      .bandwidth_bits = std::bit_cast<std::uint64_t>(bandwidth_hz_),
      .tx = tx,
  };
}

InterferenceMap::SinrSlot& InterferenceMap::Lookup(ReceiverRow& row, const SinrSlot& key,
                                                    RadioNodeId rx, int subchannel,
                                                    SimTime now) const {
  const auto s = static_cast<std::size_t>(subchannel);
  const std::uint64_t list_id = list_id_[s];
  SinrSlot& slot = row.sinr_memo[s];
  if (slot.list_id == list_id && slot.block == key.block &&
      slot.position_epoch == key.position_epoch &&
      slot.signal_scale_bits == key.signal_scale_bits &&
      slot.bandwidth_bits == key.bandwidth_bits && slot.tx == key.tx) {
    ++row.memo_hits;
    return slot;
  }
  ++row.memo_misses;
  slot = key;
  slot.list_id = list_id;
  slot.sinr_db = env_.SinrDb(key.tx, rx, static_cast<std::uint32_t>(subchannel), now,
                             per_subchannel_[s], bandwidth_hz_,
                             std::bit_cast<double>(key.signal_scale_bits));
  return slot;
}

double InterferenceMap::SinrDb(RadioNodeId tx, RadioNodeId rx, int subchannel,
                               SimTime now, double signal_scale) const {
  assert(subchannel >= 0 && subchannel < num_subchannels_);
  return Lookup(RowOf(rx), SharedKey(tx, now, signal_scale), rx, subchannel, now).sinr_db;
}

double InterferenceMap::SinrLinear(RadioNodeId tx, RadioNodeId rx, int subchannel,
                                   SimTime now, double signal_scale) const {
  assert(subchannel >= 0 && subchannel < num_subchannels_);
  SinrSlot& slot = Lookup(RowOf(rx), SharedKey(tx, now, signal_scale), rx, subchannel, now);
  if (!slot.has_linear) {
    slot.sinr_linear = DbToLinear(slot.sinr_db);
    slot.has_linear = true;
  }
  return slot.sinr_linear;
}

void InterferenceMap::SinrDbRow(RadioNodeId tx, RadioNodeId rx, SimTime now,
                                double signal_scale, std::span<double> out) const {
  assert(out.size() == static_cast<std::size_t>(num_subchannels_));
  ReceiverRow& row = RowOf(rx);
  const SinrSlot key = SharedKey(tx, now, signal_scale);
  for (int s = 0; s < num_subchannels_; ++s) {
    out[static_cast<std::size_t>(s)] = Lookup(row, key, rx, s, now).sinr_db;
  }
}

InterferenceMap::SinrMemoStats InterferenceMap::sinr_memo_stats() const {
  SinrMemoStats stats;
  for (const ReceiverRow& row : rows_) {
    stats.hits += row.memo_hits;
    stats.misses += row.memo_misses;
  }
  return stats;
}

}  // namespace cellfi
