#include "cellfi/radio/interference.h"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "cellfi/common/simd.h"
#include "cellfi/common/units.h"

namespace cellfi {

namespace {

// Exact content equality, bit for bit, so that equal lists are
// interchangeable inputs to every SINR computation.
bool SameList(const std::vector<ActiveTransmitter>& a,
              const std::vector<ActiveTransmitter>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
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

InterferenceMap::InterferenceMap(const RadioEnvironment& env) : env_(env) {}

void InterferenceMap::BeginEpoch(int num_subchannels, double bandwidth_hz) {
  ++epoch_;
  num_subchannels_ = num_subchannels;
  bandwidth_hz_ = bandwidth_hz;
  if (per_subchannel_.size() < static_cast<std::size_t>(num_subchannels)) {
    per_subchannel_.resize(static_cast<std::size_t>(num_subchannels));
  }
  for (int s = 0; s < num_subchannels; ++s) {
    per_subchannel_[static_cast<std::size_t>(s)].clear();
  }
  sealed_ = false;
  num_groups_ = 0;
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
  // Subchannels with the same interned id have the same list, so they
  // share one aggregation group.
  list_id_.resize(static_cast<std::size_t>(num_subchannels_));
  group_of_.assign(static_cast<std::size_t>(num_subchannels_), 0);
  group_rep_.clear();
  num_groups_ = 0;
  for (int s = 0; s < num_subchannels_; ++s) {
    const std::uint64_t id = Intern(per_subchannel_[static_cast<std::size_t>(s)]);
    list_id_[static_cast<std::size_t>(s)] = id;
    int group = 0;
    while (group < num_groups_ &&
           list_id_[static_cast<std::size_t>(group_rep_[static_cast<std::size_t>(group)])] !=
               id) {
      ++group;
    }
    if (group == num_groups_) {
      ++num_groups_;
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
  // Presize the receiver rows here, at the (serial) barrier, so concurrent
  // queries never see a resize — each worker then only writes the rows of
  // receivers it owns.
  if (rows_.size() < env_.node_count()) rows_.resize(env_.node_count());
}

std::uint64_t InterferenceMap::Intern(
    const std::vector<ActiveTransmitter>& list) const {
  const std::uint64_t hash = HashList(list);
  const auto [first, last] = interned_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (SameList(it->second.list, list)) return it->second.id;
  }
  if (interned_.size() >= kInternCapacity) interned_.clear();
  return interned_.emplace(hash, InternedList{next_list_id_++, list})->second.id;
}

double InterferenceMap::AggregateDenomMw(RadioNodeId tx, RadioNodeId rx,
                                         int group,
                                         std::vector<double>& terms) const {
  // Same contributing-term sequence as RadioEnvironment::SinrDb — the same
  // cached mean powers gathered in list order — compacted into `terms` and
  // summed in the fixed 8-lane blocked order (simd::BlockedSum8, DESIGN.md
  // §17). Keeping sequence and order identical is what makes the engine
  // bit-identical to RadioEnvironment::SinrDb, in scalar and SIMD builds
  // alike.
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
  if (rows_.size() < env_.node_count()) rows_.resize(env_.node_count());
  ReceiverRow& row = rows_[rx];
  if (row.sinr_memo.size() < static_cast<std::size_t>(num_subchannels_)) {
    row.sinr_memo.resize(static_cast<std::size_t>(num_subchannels_));
  }
  // Every input the computation reads: the list content (id), the signal
  // source, fading (block), the mean-power row (position epoch), the
  // signal share and the noise bandwidth. rx and subchannel pick the slot.
  const SinrSlot key{
      .list_id = list_id_[static_cast<std::size_t>(subchannel)],
      .block = env_.config().enable_fading ? env_.fading().BlockIndex(now) : 0,
      .position_epoch = env_.position_epoch(),
      .signal_scale_bits = std::bit_cast<std::uint64_t>(signal_scale),
      .bandwidth_bits = std::bit_cast<std::uint64_t>(bandwidth_hz_),
      .tx = tx,
  };
  SinrSlot& slot = row.sinr_memo[static_cast<std::size_t>(subchannel)];
  if (slot.list_id == key.list_id && slot.block == key.block &&
      slot.position_epoch == key.position_epoch &&
      slot.signal_scale_bits == key.signal_scale_bits &&
      slot.bandwidth_bits == key.bandwidth_bits && slot.tx == key.tx) {
    ++row.memo_hits;
    return slot.sinr_db;
  }
  ++row.memo_misses;
  const double sinr_db = ComputeSinrDb(tx, rx, subchannel, now, signal_scale);
  slot = key;
  slot.sinr_db = sinr_db;
  return sinr_db;
}

InterferenceMap::SinrMemoStats InterferenceMap::sinr_memo_stats() const {
  SinrMemoStats stats;
  for (const ReceiverRow& row : rows_) {
    stats.hits += row.memo_hits;
    stats.misses += row.memo_misses;
  }
  return stats;
}

double InterferenceMap::ComputeSinrDb(RadioNodeId tx, RadioNodeId rx, int subchannel,
                                      SimTime now, double signal_scale) const {
  if (env_.config().enable_fading) {
    // Fading is per (link, subchannel, time): the mean-power aggregate
    // cannot stand in for it, so sum per link over the shared list.
    return env_.SinrDb(tx, rx, static_cast<std::uint32_t>(subchannel), now,
                       per_subchannel_[static_cast<std::size_t>(subchannel)],
                       bandwidth_hz_, signal_scale);
  }

  ReceiverRow& row = rows_[rx];
  if (row.epoch != epoch_ || row.excluded != tx ||
      row.position_epoch != env_.position_epoch()) {
    row.epoch = epoch_;
    row.excluded = tx;
    row.position_epoch = env_.position_epoch();
    row.denom_mw.assign(static_cast<std::size_t>(num_groups_), 0.0);
    row.built.assign(static_cast<std::size_t>(num_groups_), 0);
  }
  const std::size_t g =
      static_cast<std::size_t>(group_of_[static_cast<std::size_t>(subchannel)]);
  if (!row.built[g]) {
    row.denom_mw[g] = AggregateDenomMw(tx, rx, static_cast<int>(g), row.terms);
    row.built[g] = 1;
  }
  const double signal_mw = env_.MeanRxPowerMw(tx, rx) * signal_scale;
  return LinearToDb(signal_mw / row.denom_mw[g]);
}

}  // namespace cellfi
