#include "cellfi/radio/environment.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "cellfi/common/simd.h"

namespace cellfi {

RadioEnvironment::RadioEnvironment(const PathLossModel& pathloss,
                                   RadioEnvironmentConfig config)
    : pathloss_(pathloss),
      config_(config),
      shadowing_(config.seed, config.shadowing_sigma_db),
      fading_(config.seed ^ 0xFAD1FAD1FAD1FAD1ull, config.fading_coherence_time,
              config.rician_k) {}

RadioNodeId RadioEnvironment::AddNode(RadioNode node) {
  nodes_.push_back(node);
  rx_.emplace_back();
  ++position_epoch_;
  return static_cast<RadioNodeId>(nodes_.size() - 1);
}

void RadioEnvironment::MoveNode(RadioNodeId id, Point new_position) {
  assert(id < nodes_.size());
  nodes_[id].position = new_position;
  rx_[id].links.clear();
  for (Receiver& r : rx_) {
    if (id < r.links.size()) r.links[id] = Link{};
  }
  ++position_epoch_;
}

RadioEnvironment::Link* RadioEnvironment::LinkRow(RadioNodeId rx) const {
  std::vector<Link>& links = rx_[rx].links;
  if (links.size() < nodes_.size()) links.resize(nodes_.size());
  return links.data();
}

double RadioEnvironment::LinkGainDb(RadioNodeId tx, RadioNodeId rx) const {
  assert(tx < nodes_.size() && rx < nodes_.size());
  assert(tx != rx);
  double& cached = LinkRow(rx)[tx].gain_db;
  if (!std::isnan(cached)) return cached;

  const RadioNode& t = nodes_[tx];
  const RadioNode& r = nodes_[rx];
  const double dist = Distance(t.position, r.position);
  const double loss = pathloss_.LossDb(dist, config_.carrier_freq_hz);
  cached = t.antenna.GainTowards(t.position, r.position) +
           r.antenna.GainTowards(r.position, t.position) - loss +
           shadowing_.ShadowDb(tx, rx);
  return cached;
}

double RadioEnvironment::MeanRxPowerDbm(RadioNodeId tx, RadioNodeId rx) const {
  return nodes_[tx].tx_power_dbm + LinkGainDb(tx, rx);
}

double RadioEnvironment::MeanMw(Link* row, RadioNodeId tx, RadioNodeId rx) const {
  double& cached = row[tx].mean_mw;
  if (std::isnan(cached)) cached = DbmToMw(MeanRxPowerDbm(tx, rx));
  return cached;
}

double RadioEnvironment::MeanRxPowerMw(RadioNodeId tx, RadioNodeId rx) const {
  return MeanMw(LinkRow(rx), tx, rx);
}

RadioEnvironment::FadingMemo& RadioEnvironment::FadingMemoAt(RadioNodeId rx,
                                                             SimTime now) const {
  FadingMemo& memo = rx_[rx].fading;
  const std::uint64_t block = fading_.BlockIndex(now);
  if (memo.block != block) {
    memo.block = block;
    if (memo.used > 0) {
      std::fill(memo.slots.begin(), memo.slots.end(), FadingMemo::Slot{});
      memo.used = 0;
    }
  }
  return memo;
}

std::size_t RadioEnvironment::FadingMemo::Probe(std::uint64_t key) const {
  // Fibonacci hashing (high product bits), then linear probing.
  const std::size_t mask = slots.size() - 1;
  std::size_t i = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 40) & mask;
  while (slots[i].gain >= 0.0 && slots[i].key != key) i = (i + 1) & mask;
  return i;
}

void RadioEnvironment::FadingMemo::Grow() {
  const std::vector<Slot> old =
      std::exchange(slots, std::vector<Slot>(std::max<std::size_t>(16, 2 * slots.size())));
  for (const Slot& slot : old) {
    if (slot.gain >= 0.0) slots[Probe(slot.key)] = slot;
  }
}

double RadioEnvironment::FadingGain(FadingMemo& memo, RadioNodeId tx, RadioNodeId rx,
                                    std::uint32_t subchannel, SimTime now) const {
  const std::uint64_t key = (static_cast<std::uint64_t>(tx) << 32) | subchannel;
  if (memo.slots.empty()) memo.Grow();
  std::size_t i = memo.Probe(key);
  if (memo.slots[i].gain >= 0.0) return memo.slots[i].gain;
  const double gain = fading_.PowerGain(tx, rx, subchannel, now);
  if (4 * (memo.used + 1) > 3 * memo.slots.size()) {
    memo.Grow();
    i = memo.Probe(key);
  }
  memo.slots[i] = {key, gain};
  ++memo.used;
  return gain;
}

double RadioEnvironment::NoiseDbm(RadioNodeId rx, double bandwidth_hz) const {
  return NoisePowerDbm(bandwidth_hz, nodes_[rx].noise_figure_db);
}

double RadioEnvironment::NoiseMw(RadioNodeId rx, double bandwidth_hz) const {
  NoiseMemo& memo = rx_[rx].noise;
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

double RadioEnvironment::SinrDb(RadioNodeId tx, RadioNodeId rx, std::uint32_t subchannel,
                                SimTime now,
                                const std::vector<ActiveTransmitter>& interferers,
                                double bandwidth_hz, double signal_scale) const {
  // Fully linear hot path: the receiver's link row, the memoized noise
  // floor and its coherence-block fading memo leave one row lookup and one
  // table probe per term.
  Link* row = LinkRow(rx);
  FadingMemo* memo = config_.enable_fading ? &FadingMemoAt(rx, now) : nullptr;
  double signal_mw = MeanMw(row, tx, rx) * signal_scale;
  if (memo != nullptr) signal_mw *= FadingGain(*memo, tx, rx, subchannel, now);
  // Blocked accumulation (DESIGN.md §17): contributing term i goes to lane
  // i mod 8, lanes combine with the fixed ReduceLanes8 tree. Skipped
  // entries are compacted out (they never occupy a lane). InterferenceMap
  // is interning + an exact memo over this function, so this is the one
  // SINR computation.
  double lanes[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  std::size_t m = 0;
  for (const ActiveTransmitter& it : interferers) {
    if (it.node == tx || it.node == rx || it.power_scale <= 0.0) continue;
    double p = MeanMw(row, it.node, rx) * it.power_scale;
    if (memo != nullptr) p *= FadingGain(*memo, it.node, rx, subchannel, now);
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
