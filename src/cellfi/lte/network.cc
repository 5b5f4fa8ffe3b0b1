#include "cellfi/lte/network.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "cellfi/chaos/invariants.h"
#include "cellfi/common/units.h"
#include "cellfi/obs/metrics.h"
#include "cellfi/obs/trace.h"
#include "cellfi/phy/cqi_mcs.h"

namespace cellfi::lte {

namespace {
/// PRACH format 0 occupies 839 subcarriers of 1.25 kHz.
constexpr double kPrachBandwidthHz = 839 * 1250.0;

const LteNetworkConfig& Validated(const LteNetworkConfig& config,
                                  const RadioEnvironment& env) {
  if (!config.use_interference_engine) {
    throw std::invalid_argument(
        "LteNetwork: use_interference_engine must be true (the interference "
        "engine is the only subframe resolver)");
  }
  if (env.config().interference_floor_db > 0.0) {
    throw std::invalid_argument(
        "LteNetwork: interference_floor_db must be <= 0 (the negligible-"
        "interferer cull was removed; every interferer counts)");
  }
  return config;
}
}  // namespace

LteNetwork::LteNetwork(Simulator& sim, RadioEnvironment& env, LteNetworkConfig config)
    : sim_(sim), env_(env), config_(Validated(config, env)), rng_(config.seed), imap_(env) {}

CellId LteNetwork::AddCell(const LteMacConfig& mac, RadioNodeId radio) {
  assert(!started_);
  const CellId id = static_cast<CellId>(cells_.size());
  CellRec rec;
  rec.mac = std::make_unique<EnodeB>(id, mac);
  rec.radio = radio;
  if (!cells_.empty()) {
    // GPS-synchronized frames: every cell must follow the same TDD pattern.
    assert(mac.tdd_config == cells_.front().mac->config().tdd_config);
    assert(mac.bandwidth == cells_.front().mac->config().bandwidth);
  }
  num_subchannels_ = rec.mac->grid().num_subchannels();
  subchannel_bandwidth_hz_ = rec.mac->grid().rbg_size() * kRbBandwidthHz;
  cells_.push_back(std::move(rec));
  return id;
}

UeId LteNetwork::AddUe(RadioNodeId radio, CellId force_cell) {
  const UeId id = static_cast<UeId>(ues_.size());
  UeInfo info;
  info.id = id;
  info.radio = radio;
  info.serving = kInvalidCell;  // set on successful attach
  info.forced_cell = force_cell;
  ues_.push_back(info);
  return id;
}

void LteNetwork::SetCellActive(CellId id, bool active) {
  cells_[static_cast<std::size_t>(id)].active = active;
  // The downlink map and the CRS-penalty cache both bake in the active
  // set; force a rebuild on the next query.
  dl_map_valid_ = false;
  ++activity_epoch_;
}

void LteNetwork::SetAllowedMask(CellId id, const std::vector<bool>& mask) {
  cells_[static_cast<std::size_t>(id)].mac->SetAllowedMask(mask);
}

void LteNetwork::SetBackgroundLoad(CellId id, double fraction) {
  cells_[static_cast<std::size_t>(id)].mac->SetBackgroundPrbDemand(fraction);
}

void LteNetwork::OfferDownlink(UeId ue_id, std::uint64_t bytes) {
  UeInfo& info = ues_[static_cast<std::size_t>(ue_id)];
  if (info.state != UeState::kConnected) return;  // flow stalls while detached
  UeContext* ctx = cell(info.serving).FindUe(ue_id);
  if (ctx != nullptr) {
    ctx->EnqueueDownlink(bytes);
    info.last_traffic = sim_.Now();
  }
}

void LteNetwork::OfferUplink(UeId ue_id, std::uint64_t bytes) {
  UeInfo& info = ues_[static_cast<std::size_t>(ue_id)];
  if (info.state != UeState::kConnected) return;
  UeContext* ctx = cell(info.serving).FindUe(ue_id);
  if (ctx != nullptr) ctx->EnqueueUplink(bytes);
}

void LteNetwork::ClearDownlinkQueue(UeId ue_id) {
  UeInfo& info = ues_[static_cast<std::size_t>(ue_id)];
  if (info.state != UeState::kConnected) return;
  UeContext* ctx = cell(info.serving).FindUe(ue_id);
  if (ctx != nullptr) ctx->DrainDownlink(ctx->dl_queue_bytes());
}

void LteNetwork::Start() {
  assert(!started_);
  started_ = true;
  // Stagger initial attaches over the first 50 ms so RACH isn't a
  // thundering herd; retries are periodic per-UE. A forced cell restricts
  // the candidate set inside PickServingCell but the attach procedure is
  // the same.
  for (const UeInfo& info : ues_) {
    const UeId id = info.id;
    sim_.ScheduleAfter(rng_.UniformInt(1, 50) * kMillisecond,
                       [this, id] { TryAttach(id); });
  }
  sim_.SchedulePeriodic(kSubframeDuration, [this] { StepSubframe(); });
  sim_.SchedulePeriodic(config_.prach_solicit_period, [this] { SolicitPrach(); });
  if (config_.enable_handover) {
    sim_.SchedulePeriodic(config_.handover_check_period, [this] { CheckHandovers(); });
  }
}

void LteNetwork::CheckHandovers() {
  // The candidate set (active cells) is the same for every UE: build it
  // once per check instead of rescanning all cells per UE.
  handover_cells_scratch_.clear();
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (cells_[c].active) handover_cells_scratch_.push_back(static_cast<CellId>(c));
  }
  if (handover_cells_scratch_.empty()) return;
  for (UeInfo& info : ues_) {
    if (info.state != UeState::kConnected || info.forced_cell != kInvalidCell) continue;
    const CellRec& serving = cells_[static_cast<std::size_t>(info.serving)];
    const double serving_rsrp = env_.MeanRxPowerDbm(serving.radio, info.radio);
    CellId best = info.serving;
    double best_rsrp = serving_rsrp + config_.handover_hysteresis_db;
    // Detection floor: a neighbour whose cached mean rx power sits 6 dB or
    // more below the serving+hysteresis bar cannot win the dB comparison
    // (the 6 dB guard dwarfs any mW/dBm rounding), so it is skipped
    // straight off the receiver's cached mW link row. A UE with no active
    // neighbour above the floor does no dBm conversion at all.
    const double detect_floor_mw = DbmToMw(best_rsrp) * 0.25;
    for (CellId c : handover_cells_scratch_) {
      if (c == info.serving) continue;
      const CellRec& rec = cells_[static_cast<std::size_t>(c)];
      if (env_.MeanRxPowerMw(rec.radio, info.radio) < detect_floor_mw) continue;
      const double rsrp = env_.MeanRxPowerDbm(rec.radio, info.radio);
      if (rsrp > best_rsrp) {
        best_rsrp = rsrp;
        best = c;
      }
    }
    if (best != info.serving) ExecuteHandover(info.id, best);
  }
}

void LteNetwork::ExecuteHandover(UeId ue_id, CellId target) {
  UeInfo& info = ues_[static_cast<std::size_t>(ue_id)];
  EnodeB& source = cell(info.serving);
  const UeContext* old_ctx = source.FindUe(ue_id);
  if (old_ctx == nullptr) return;
  UeContext snapshot(*old_ctx);  // queues + stats forwarded over backhaul
  source.RemoveUe(ue_id);
  info.serving = target;
  info.bad_cqi_since = -1;
  ++info.handovers;
  UeContext& fresh = cell(target).AddUe(ue_id);
  fresh.ImportOnHandover(snapshot);
  if (obs::TraceSink* tr = obs::ActiveTrace()) {
    tr->Emit(sim_.Now(), "lte", "handover",
             {{"ue", ue_id}, {"from", source.id()}, {"to", target}});
  }
  // The RACH toward the new cell is what neighbours overhear.
  EmitPrach(ue_id, target);
}

CellId LteNetwork::PickServingCell(UeId ue_id) const {
  const UeInfo& info = ues_[static_cast<std::size_t>(ue_id)];
  CellId best = kInvalidCell;
  double best_snr = CqiTable(kMinCqi).sinr_threshold_db;  // must support CQI 1
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (!cells_[c].active) continue;
    if (info.forced_cell != kInvalidCell && static_cast<CellId>(c) != info.forced_cell) {
      continue;
    }
    const double snr = env_.MeanSnrDb(cells_[c].radio, info.radio,
                                      OccupiedBandwidthHz(cells_[c].mac->config().bandwidth));
    if (snr > best_snr) {
      best_snr = snr;
      best = static_cast<CellId>(c);
    }
  }
  return best;
}

void LteNetwork::TryAttach(UeId ue_id) {
  UeInfo& info = ues_[static_cast<std::size_t>(ue_id)];
  if (info.state == UeState::kConnected) return;
  const CellId target = PickServingCell(ue_id);
  if (target == kInvalidCell) {
    info.state = UeState::kIdle;
    sim_.ScheduleAfter(config_.attach_retry_period, [this, ue_id] { TryAttach(ue_id); });
    return;
  }
  info.state = UeState::kAttaching;
  info.serving = target;
  EmitPrach(ue_id, target);
  sim_.ScheduleAfter(config_.attach_delay, [this, ue_id] {
    UeInfo& u = ues_[static_cast<std::size_t>(ue_id)];
    if (u.state != UeState::kAttaching) return;
    u.state = UeState::kConnected;
    u.bad_cqi_since = -1;
    cell(u.serving).AddUe(ue_id);
  });
}

void LteNetwork::Detach(UeId ue_id, bool count_disconnection) {
  UeInfo& info = ues_[static_cast<std::size_t>(ue_id)];
  if (info.state == UeState::kConnected && info.serving != kInvalidCell) {
    cell(info.serving).RemoveUe(ue_id);
  }
  info.state = UeState::kRadioLinkFailure;
  info.serving = kInvalidCell;
  info.bad_cqi_since = -1;
  if (count_disconnection) ++info.disconnections;
  sim_.ScheduleAfter(config_.rlf.reattach_delay, [this, ue_id] { TryAttach(ue_id); });
}

void LteNetwork::EmitPrach(UeId ue_id, CellId serving) {
  if (!on_prach) return;
  const UeInfo& info = ues_[static_cast<std::size_t>(ue_id)];
  const CellRec& srv = cells_[static_cast<std::size_t>(serving)];
  // Open-loop power control: transmit power set so the serving cell
  // receives prach_target_rx_dbm (capped at the client PA limit). Without
  // power control the preamble goes out at full client power.
  const double gain_to_serving = env_.LinkGainDb(info.radio, srv.radio);
  const double tx_dbm =
      config_.prach_power_control
          ? std::min(config_.prach_target_rx_dbm - gain_to_serving,
                     env_.node(info.radio).tx_power_dbm)
          : env_.node(info.radio).tx_power_dbm;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (!cells_[c].active) continue;
    const double rx_dbm = tx_dbm + env_.LinkGainDb(info.radio, cells_[c].radio);
    const double snr =
        rx_dbm - NoisePowerDbm(kPrachBandwidthHz, env_.node(cells_[c].radio).noise_figure_db);
    if (snr < config_.prach_detect_snr_db) continue;
    on_prach(PrachObservation{.observer = static_cast<CellId>(c),
                              .serving = serving,
                              .ue = ue_id,
                              .snr_db = snr});
  }
}

void LteNetwork::SolicitPrach() {
  // PDCCH-order RACH: every connected UE with recent traffic replays a
  // preamble so neighbour cells can refresh their contender estimates.
  // Idle clients are not solicited, so estimates expire within a second
  // and the spectrum shares track the instantaneous load.
  for (UeInfo& info : ues_) {
    if (info.state != UeState::kConnected) continue;
    bool active = sim_.Now() - info.last_traffic <= kSecond;
    if (!active) {
      UeContext* ctx = cell(info.serving).FindUe(info.id);
      active = ctx != nullptr && ctx->dl_queue_bytes() > 0;
    }
    if (active) EmitPrach(info.id, info.serving);
  }
}

double LteNetwork::IdleCrsPenaltyDb(CellId serving, RadioNodeId rx) const {
  // Depends only on the active cell set and the mean link powers — not on
  // plans — so one entry per receiver radio survives whole stretches of
  // subframes until a SetCellActive or MoveNode bumps an epoch.
  if (crs_cache_.size() < env_.node_count()) crs_cache_.resize(env_.node_count());
  CrsCacheEntry& e = crs_cache_[rx];
  if (e.serving == serving && e.activity_epoch == activity_epoch_ &&
      e.position_epoch == env_.position_epoch()) {
    return e.penalty_db;
  }
  e.serving = serving;
  e.activity_epoch = activity_epoch_;
  e.position_epoch = env_.position_epoch();
  const double signal_mw = env_.MeanRxPowerMw(cells_[static_cast<std::size_t>(serving)].radio, rx);
  double penalty = 0.0;
  if (signal_mw > 0.0) {
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      if (static_cast<CellId>(c) == serving || !cells_[c].active) continue;
      const double ratio = env_.MeanRxPowerMw(cells_[c].radio, rx) / signal_mw;
      penalty += std::min(1.0, ratio);  // ~1 dB per comparable-power idle cell
    }
  }
  e.penalty_db = std::min(penalty, 2.0);
  return e.penalty_db;
}

void LteNetwork::BuildDownlinkMap() const {
  // Every active cell with downlink data appends its radio at 1/N of its
  // power to each subchannel it sends on, in the fixed cell-index ->
  // subchannel order that fixes the engine's addition sequence. The
  // serving cell is in its own UE's lists and skipped per query by node
  // identity. RadioEnvironment::SinrDb over lists rebuilt from
  // committed_downlink_plan is the test reference for the result.
  imap_.BeginEpoch(num_subchannels_, subchannel_bandwidth_hz_);
  const double psd_share = 1.0 / static_cast<double>(num_subchannels_);
  for (const CellRec& rec : cells_) {
    if (!rec.active || !rec.plan_is_data) continue;
    for (int s = 0; s < num_subchannels_; ++s) {
      if (rec.current_plan.data_active[static_cast<std::size_t>(s)]) {
        imap_.AddTransmitter(s, rec.radio, psd_share);
      }
    }
  }
  // The map is only ever built here, with every append above: sealing at
  // this (serial) point guarantees concurrent shard queries never mutate
  // the shared intern/row storage lazily.
  imap_.Seal();
  dl_map_valid_ = true;
}

void LteNetwork::EnsureShardState() {
  if (shard_grid_ != nullptr && plan_pending_.size() == cells_.size()) {
    if (crs_cache_.size() < env_.node_count()) crs_cache_.resize(env_.node_count());
    return;
  }
  std::vector<Point> positions;
  positions.reserve(cells_.size());
  for (const CellRec& rec : cells_) {
    positions.push_back(env_.node(rec.radio).position);
  }
  shard_grid_ = std::make_unique<ShardGrid>(positions, config_.shards);
  const int k = shard_grid_->num_shards();
  shard_threads_ = ResolveShardThreads(config_.shard_threads, k);
  shard_pool_.reset();
  if (shard_threads_ > 1) shard_pool_ = std::make_unique<WorkerPool>(shard_threads_);
  plan_pending_.assign(cells_.size(), 0);
  staged_tb_sinr_.assign(cells_.size(), {});
  shard_items_.assign(static_cast<std::size_t>(k), 0);
  // Per-receiver caches grow lazily on the serial paths; presize them here
  // so no worker thread ever sees a resize.
  if (crs_cache_.size() < env_.node_count()) crs_cache_.resize(env_.node_count());
  if (k > 1) {
    if (obs::TraceSink* tr = obs::ActiveTrace()) {
      tr->Emit(sim_.Now(), "lte", "shard_setup", {{"shards", k}});
    }
  }
}

void LteNetwork::ForEachShard(const std::function<void(int)>& task) {
  const int k = shard_grid_->num_shards();
  if (shard_pool_ != nullptr && k > 1) {
    shard_pool_->RunIndexed(static_cast<std::size_t>(k),
                            [&task](std::size_t s) { task(static_cast<int>(s)); });
  } else {
    for (int s = 0; s < k; ++s) task(s);
  }
}

void LteNetwork::EmitShardMetrics(const std::vector<std::size_t>& items_per_shard) {
  if (items_per_shard.size() <= 1) return;
  obs::MetricsRegistry* m = obs::ActiveMetrics();
  if (m == nullptr) return;
  m->Add(m->Counter("lte.shard.barriers"));
  // Imbalance from the pass's work-item counts (transmissions staged or
  // UEs measured per shard): a pure function of the plans and the UE set,
  // so the histogram is identical for every thread count and never reads
  // a clock.
  const auto [min_items, max_items] = std::ranges::minmax(items_per_shard);
  if (max_items > 0) {
    m->Observe(m->Histogram("lte.shard.imbalance", obs::FractionBounds()),
               static_cast<double>(max_items - min_items) /
                   static_cast<double>(max_items));
  }
}

void LteNetwork::EnsureDownlinkMap() const {
  if (!dl_map_valid_) BuildDownlinkMap();
}

void LteNetwork::MeasureDownlinkSinrInto(UeId ue_id, std::vector<double>& out) const {
  const UeInfo& info = ues_[static_cast<std::size_t>(ue_id)];
  out.assign(static_cast<std::size_t>(num_subchannels_), -40.0);
  if (info.serving == kInvalidCell) return;
  const CellRec& serving = cells_[static_cast<std::size_t>(info.serving)];
  if (!serving.active) return;
  const double signal_scale = 1.0 / static_cast<double>(num_subchannels_);
  const double crs_penalty = IdleCrsPenaltyDb(info.serving, info.radio);
  EnsureDownlinkMap();
  imap_.SinrDbRow(serving.radio, info.radio, sim_.Now(), signal_scale, out);
  for (double& sinr : out) sinr -= crs_penalty;
}

std::vector<double> LteNetwork::MeasureDownlinkSinr(UeId ue_id) const {
  std::vector<double> sinr;
  MeasureDownlinkSinrInto(ue_id, sinr);
  return sinr;
}

double LteNetwork::ServingSnrDb(UeId ue_id) const {
  const UeInfo& info = ues_[static_cast<std::size_t>(ue_id)];
  if (info.serving == kInvalidCell) return -99.0;
  const CellRec& serving = cells_[static_cast<std::size_t>(info.serving)];
  return env_.MeanSnrDb(serving.radio, info.radio,
                        OccupiedBandwidthHz(serving.mac->config().bandwidth));
}

bool LteNetwork::CellsWithinDistance(CellId a, CellId b, double distance_m) const {
  const Point pa = env_.node(cells_[static_cast<std::size_t>(a)].radio).position;
  const Point pb = env_.node(cells_[static_cast<std::size_t>(b)].radio).position;
  return Distance(pa, pb) <= distance_m;
}

std::uint64_t LteNetwork::total_dl_bits() const {
  std::uint64_t total = 0;
  for (const CellRec& rec : cells_) total += rec.mac->total_dl_bits();
  return total;
}

void LteNetwork::StepSubframe() {
  if (cells_.empty()) return;
  const SubframeType type = cells_.front().mac->tdd().TypeAt(sim_.Now());

  for (UeInfo& info : ues_) {
    if (info.state == UeState::kConnected) info.connected_time += kSubframeDuration;
  }

  switch (type) {
    case SubframeType::kDownlink:
      RunDownlinkSubframe();
      break;
    case SubframeType::kUplink:
      RunUplinkSubframe();
      break;
    case SubframeType::kSpecial:
      break;  // guard/pilot subframe: no data in this model
  }

  // Subframe barrier: every committed plan has been resolved, so this is
  // the consistent instant to evaluate time-based invariants.
  if (chaos::InvariantChecker* ic = chaos::ActiveChecker()) {
    ic->AtBarrier(sim_.Now());
  }
}

bool LteNetwork::LbtMayTransmit(CellRec& rec) {
  // Mid-burst: keep going until the channel-occupancy budget runs out.
  if (rec.lbt_burst_remaining > 0) {
    --rec.lbt_burst_remaining;
    if (rec.lbt_burst_remaining == 0) rec.lbt_backoff = -1;  // fresh draw next time
    return true;
  }

  // Clear-channel assessment against the PREVIOUS subframe's transmitters
  // (carrier sense is inherently one decision epoch stale).
  const LbtConfig& lbt = rec.mac->config().lbt;
  double energy_mw = 0.0;
  for (const CellRec& other : cells_) {
    if (&other == &rec || !other.active || !other.transmitted_last_subframe) continue;
    energy_mw += env_.MeanRxPowerMw(other.radio, rec.radio);
  }
  const bool busy = energy_mw > DbmToMw(lbt.ed_threshold_dbm);

  if (busy) {
    // Freeze the backoff counter while the medium is occupied; a fresh
    // draw happens only once the medium clears.
    ++rec.lbt_deferrals;
    return false;
  }
  if (rec.lbt_backoff < 0) {
    // Every burst (and every arrival after an idle period) pays a full
    // random backoff, which is what gives contenders their turns.
    rec.lbt_backoff = static_cast<int>(rng_.UniformInt(0, rec.lbt_cw));
  }
  if (rec.lbt_backoff > 0) {
    --rec.lbt_backoff;  // count down idle subframes
    return false;
  }
  rec.lbt_backoff = -1;
  rec.lbt_burst_remaining = lbt.max_burst_subframes - 1;
  return true;
}

void LteNetwork::ResetPlans() {
  EnsureShardState();
  for (CellRec& rec : cells_) {
    rec.current_plan.Clear(num_subchannels_);
    rec.plan_is_data = false;
  }
}

template <typename LinkOf>
void LteNetwork::StageTransmissions(const LinkOf& link_of) {
  // Receiver ownership keeps this race-free. Every mutable cache row
  // (engine receiver rows, link rows, noise memo, CRS penalty cache) is
  // indexed by receiver, and a receiver — a UE in downlink, the cell's own
  // radio in uplink — is only ever queried by the shard owning its cell.
  ForEachShard([this, &link_of](int s) {
    std::size_t staged_count = 0;
    for (int c : shard_grid_->cells(s)) {
      const TxPlan& plan = cells_[static_cast<std::size_t>(c)].current_plan;
      std::vector<double>& staged = staged_tb_sinr_[static_cast<std::size_t>(c)];
      staged.clear();
      // At most one transmission per UE: sized by the UE list, the buffer
      // grows only when the cell gains a UE, never with a busier plan.
      staged.reserve(cells_[static_cast<std::size_t>(c)].mac->ues().size());
      for (const Transmission& tx : plan.transmissions) {
        const StagedLink link = link_of(static_cast<CellId>(c), tx);
        double sinr_linear_sum = 0.0;
        for (int sub : tx.subchannels) {
          sinr_linear_sum +=
              imap_.SinrLinear(link.source, link.receiver, sub, sim_.Now(), link.signal_scale);
        }
        staged.push_back(
            LinearToDb(sinr_linear_sum / static_cast<double>(tx.subchannels.size())) -
            link.crs_penalty_db);
      }
      staged_count += staged.size();
    }
    shard_items_[static_cast<std::size_t>(s)] = staged_count;
  });
}

void LteNetwork::RunDownlinkSubframe() {
  // Serial reset and access gate. LBT draws from the shared Rng, so the
  // gate stays serial in cell-index order: the same draw sequence for any
  // shard count.
  ResetPlans();
  std::fill(plan_pending_.begin(), plan_pending_.end(), 0);
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    CellRec& rec = cells_[c];
    if (!rec.active || !rec.mac->has_load()) continue;
    if (rec.mac->config().access_mode == AccessMode::kListenBeforeTalk) {
      // Background demand keeps the cell contending even with every real
      // queue empty (the aggregate tier always has data to move).
      bool has_data = rec.mac->background_prb_demand() > 0.0;
      for (const auto& ue : rec.mac->ues()) {
        has_data |= ue->dl_queue_bytes() > 0 || ue->harq_dl().active;
      }
      if (!has_data) {
        rec.lbt_burst_remaining = 0;
        continue;
      }
      if (!LbtMayTransmit(rec)) continue;
    }
    plan_pending_[c] = 1;
  }

  // Parallel plan: every gated cell commits to a plan. PlanDownlink is
  // RNG-free and touches only the cell's own scheduler/UE state, so shards
  // are independent and the partition cannot affect values.
  ForEachShard([this](int s) {
    for (int c : shard_grid_->cells(s)) {
      if (!plan_pending_[static_cast<std::size_t>(c)]) continue;
      CellRec& rec = cells_[static_cast<std::size_t>(c)];
      rec.mac->PlanDownlink(rec.current_plan);
      rec.plan_is_data = true;
    }
  });
  if (chaos::InvariantChecker* ic = chaos::ActiveChecker()) {
    // Committed plans are the ground truth of what goes on air this
    // subframe: check grant counts against grid capacity and data
    // subchannels against the interference-management mask (a masked
    // subchannel is one this cell holds no right to transmit on).
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      const CellRec& rec = cells_[c];
      if (!rec.plan_is_data) continue;
      const std::vector<bool>& mask = rec.mac->allowed_mask();
      int granted = 0;
      bool mask_ok = true;
      for (std::size_t s = 0; s < rec.current_plan.data_active.size(); ++s) {
        if (!rec.current_plan.data_active[s]) continue;
        ++granted;
        if (!mask.empty() && !mask[s]) mask_ok = false;
      }
      ic->CheckPrbGrant(static_cast<int>(c), granted, num_subchannels_, sim_.Now());
      ic->CheckLeasedTransmit(static_cast<int>(c), mask_ok, sim_.Now());
    }
  }
  if (obs::MetricsRegistry* m = obs::ActiveMetrics()) {
    // Fraction of the allowed subchannels each transmitting cell actually
    // scheduled this subframe.
    const auto id = m->Histogram("lte.prb_utilization", obs::FractionBounds());
    for (const CellRec& rec : cells_) {
      if (!rec.plan_is_data) continue;
      int active = 0;
      int allowed = 0;
      for (std::size_t s = 0; s < rec.current_plan.data_active.size(); ++s) {
        if (rec.mac->allowed_mask().empty() || rec.mac->allowed_mask()[s]) ++allowed;
        if (rec.current_plan.data_active[s]) ++active;
      }
      if (allowed > 0) {
        m->Observe(id, static_cast<double>(active) / static_cast<double>(allowed));
      }
    }
  }

  // Resolve each transport block. Every receiver shares the
  // per-subchannel transmitter lists merged and sealed at this serial
  // point; the SINR of a committed plan is a pure function of those lists,
  // so shards stage their own cells' transmissions concurrently.
  // Everything that mutates shared state — HARQ completion (which draws
  // from the shared Rng), ACK coupling, callbacks, metrics — commits
  // serially afterwards in global cell-index order, never in shard
  // completion order, which makes results bit-identical for any shard
  // count.
  BuildDownlinkMap();
  const double signal_scale = 1.0 / static_cast<double>(num_subchannels_);
  StageTransmissions([this, signal_scale](CellId c, const Transmission& tx) {
    const RadioNodeId ue = ues_[static_cast<std::size_t>(tx.ue)].radio;
    return StagedLink{.source = cells_[static_cast<std::size_t>(c)].radio,
                      .receiver = ue,
                      .signal_scale = signal_scale,
                      .crs_penalty_db = IdleCrsPenaltyDb(c, ue)};
  });

  // Serial commit, global cell-index order.
  std::vector<double>& served_bits = served_bits_scratch_;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    CellRec& rec = cells_[c];
    if (!rec.plan_is_data) continue;
    served_bits.assign(rec.mac->ues().size(), 0.0);
    for (std::size_t i = 0; i < rec.current_plan.transmissions.size(); ++i) {
      const Transmission& tx = rec.current_plan.transmissions[i];
      const UeInfo& info = ues_[static_cast<std::size_t>(tx.ue)];
      const double tb_sinr_db = staged_tb_sinr_[c][i];
      const DeliveryResult result = rec.mac->CompleteDownlink(tx, tb_sinr_db, rng_);
      if (result.delivered) {
        served_bits[static_cast<std::size_t>(tx.ue_index)] +=
            8.0 * static_cast<double>(result.payload_bytes);
        // TCP ACK clocking: delivered downlink generates uplink demand.
        rec.mac->UeOf(tx).EnqueueUplink(static_cast<std::uint64_t>(
            static_cast<double>(result.payload_bytes) * info.ul_ack_ratio));
        if (on_dl_delivered) on_dl_delivered(tx.ue, result.payload_bytes, sim_.Now());
        if (obs::MetricsRegistry* mr = obs::ActiveMetrics()) {
          mr->Add(mr->Counter("lte.dl_delivered_bytes"), result.payload_bytes);
        }
      } else if (obs::MetricsRegistry* mr = obs::ActiveMetrics()) {
        mr->Add(mr->Counter("lte.dl_harq_failures"));
      }
    }
    rec.mac->UpdatePfAverages(served_bits);
  }
  EmitShardMetrics(shard_items_);

  // Update LBT carrier-sense state for the next subframe.
  for (CellRec& rec : cells_) {
    bool any_data = false;
    if (rec.plan_is_data) {
      for (bool b : rec.current_plan.data_active) any_data |= b;
    }
    rec.transmitted_last_subframe = any_data;
  }

  // CQI reporting on this subframe's realized interference.
  const auto period_subframes =
      std::max<SimTime>(1, cells_.front().mac->config().cqi_report_period / kSubframeDuration);
  if ((sim_.Now() / kSubframeDuration) % period_subframes == 0) GenerateCqiReports();
}

void LteNetwork::RunUplinkSubframe() {
  // Serial reset, then parallel plans: PlanUplink is RNG-free and per-cell.
  ResetPlans();
  ForEachShard([this](int s) {
    for (int c : shard_grid_->cells(s)) {
      CellRec& rec = cells_[static_cast<std::size_t>(c)];
      if (!rec.active || !rec.mac->has_ues()) continue;
      rec.mac->PlanUplink(rec.current_plan);
    }
  });

  // Serial merge: every transmitting UE appends its radio, its power spread
  // over its grant, in the fixed cell-index -> transmission -> subchannel
  // order, never in shard completion order; then seal before the first
  // concurrent query. The transmitting UE is skipped per query by radio
  // node (one radio per UE).
  imap_.BeginEpoch(num_subchannels_, subchannel_bandwidth_hz_);
  for (const CellRec& rec : cells_) {
    for (const Transmission& tx : rec.current_plan.transmissions) {
      const UeInfo& info = ues_[static_cast<std::size_t>(tx.ue)];
      const double ul_scale = 1.0 / static_cast<double>(tx.subchannels.size());
      for (int s : tx.subchannels) imap_.AddTransmitter(s, info.radio, ul_scale);
    }
  }
  imap_.Seal();

  // The UE concentrates its full power in its grant; no CRS penalty.
  StageTransmissions([this](CellId c, const Transmission& tx) {
    return StagedLink{.source = ues_[static_cast<std::size_t>(tx.ue)].radio,
                      .receiver = cells_[static_cast<std::size_t>(c)].radio,
                      .signal_scale = 1.0 / static_cast<double>(tx.subchannels.size()),
                      .crs_penalty_db = 0.0};
  });

  // Serial commit in global cell-index order (HARQ draws from the shared
  // Rng).
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    CellRec& rec = cells_[c];
    for (std::size_t i = 0; i < rec.current_plan.transmissions.size(); ++i) {
      rec.mac->CompleteUplink(rec.current_plan.transmissions[i], staged_tb_sinr_[c][i], rng_);
    }
  }
  EmitShardMetrics(shard_items_);

  // The engine now holds uplink lists and the cells' plans were
  // overwritten with UL grants: any later MeasureDownlinkSinr must
  // rebuild.
  dl_map_valid_ = false;
}

void LteNetwork::GenerateCqiReports() {
  // Parallel stage: the expensive per-subchannel measurement, computed by
  // the shard owning each UE's serving cell (receiver ownership again —
  // only that shard touches the UE's cache rows). The serial apply below
  // then walks UEs in id order, so CQI updates, callbacks and RLF detach
  // scheduling happen in UE-id order for any shard count.
  EnsureShardState();
  EnsureDownlinkMap();  // serial build + seal before concurrent queries
  if (cqi_measurers_.size() != ues_.size()) cqi_measurers_.resize(ues_.size());
  if (cqi_pending_.size() != ues_.size()) cqi_pending_.assign(ues_.size(), 0);
  if (staged_cqi_sinr_.size() != ues_.size()) staged_cqi_sinr_.resize(ues_.size());
  for (const UeInfo& info : ues_) {
    cqi_pending_[static_cast<std::size_t>(info.id)] =
        info.state == UeState::kConnected && cell(info.serving).FindUe(info.id) != nullptr;
  }
  ForEachShard([this](int s) {
    std::size_t measured = 0;
    for (const UeInfo& info : ues_) {
      if (!cqi_pending_[static_cast<std::size_t>(info.id)]) continue;
      if (shard_grid_->shard_of(info.serving) != s) continue;
      MeasureDownlinkSinrInto(info.id, staged_cqi_sinr_[static_cast<std::size_t>(info.id)]);
      ++measured;
    }
    shard_items_[static_cast<std::size_t>(s)] = measured;
  });
  EmitShardMetrics(shard_items_);

  for (UeInfo& info : ues_) {
    if (info.state != UeState::kConnected) continue;
    UeContext* ctx = cell(info.serving).FindUe(info.id);
    if (ctx == nullptr) continue;

    const LteMacConfig& cell_config = cell(info.serving).config();
    const CqiMeasurer::Result& cqi = cqi_measurers_[static_cast<std::size_t>(info.id)].Measure(
        staged_cqi_sinr_[static_cast<std::size_t>(info.id)],
        cell_config.link_adaptation_margin_db, cell_config.use_mode30_wire_format);
    if (obs::MetricsRegistry* mr = obs::ActiveMetrics()) {
      mr->Observe(mr->Histogram("lte.wideband_sinr_db", obs::SinrDbBounds()),
                  cqi.wideband_sinr_db);
    }
    ctx->UpdateCqi(cqi.decoded.wideband_cqi, cqi.decoded.subband_cqi);
    if (on_cqi_report) on_cqi_report(info.serving, info.id, cqi.decoded);

    // Radio-link failure: sustained out-of-range CQI.
    if (cqi.wideband_cqi == 0) {
      if (info.bad_cqi_since < 0) info.bad_cqi_since = sim_.Now();
      if (sim_.Now() - info.bad_cqi_since >= config_.rlf.rlf_window) {
        Detach(info.id, /*count_disconnection=*/true);
      }
    } else {
      info.bad_cqi_since = -1;
    }
  }
}

}  // namespace cellfi::lte
