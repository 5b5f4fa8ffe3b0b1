// LteNetwork: binds cells, UEs, the radio environment and the subframe
// clock into a running system simulation.
//
// Every 1 ms subframe the network
//   1. asks each cell for its transmission plan (DL or UL per the
//      GPS-synchronized TDD pattern),
//   2. resolves each transport block against the realized SINR — with all
//      concurrently transmitting cells/UEs as interferers, idle cells still
//      contributing their control/reference-symbol power (Fig. 7's
//      "signalling interference") — through the one exact, memoized
//      interference engine (InterferenceMap, DESIGN.md §12/§20): every
//      interferer counts, however weak,
//   3. generates sub-band CQI reports from what UEs actually measured, and
//   4. emits PRACH observations to every cell that can hear an attaching or
//      solicited client (CellFi's contender-counting input).
//
// CellFi's interference manager attaches via the observer callbacks and
// `SetAllowedMask`; plain LTE simply never restricts the mask.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cellfi/lte/enodeb.h"
#include "cellfi/lte/types.h"
#include "cellfi/phy/cqi_report.h"
#include "cellfi/radio/environment.h"
#include "cellfi/radio/interference.h"
#include "cellfi/radio/shard_grid.h"
#include "cellfi/sim/event_queue.h"
#include "cellfi/sim/worker_pool.h"

namespace cellfi::lte {

/// Network-level record of one UE.
struct UeInfo {
  UeId id = -1;
  RadioNodeId radio = 0;
  CellId serving = kInvalidCell;
  /// When set, the UE only ever attaches to this cell (controlled
  /// experiments); kInvalidCell = normal strongest-cell selection.
  CellId forced_cell = kInvalidCell;
  UeState state = UeState::kIdle;
  SimTime bad_cqi_since = -1;   // RLF tracking
  std::uint64_t disconnections = 0;
  SimTime connected_time = 0;   // accumulated while kConnected
  std::uint64_t handovers = 0;
  /// Last time this UE had downlink traffic (offered or delivered). PDCCH-
  /// order PRACH solicitation only covers clients active within the last
  /// second, so contender estimates track instantaneous load (paper
  /// Section 5.1: estimates expire and "account for nodes that become
  /// inactive").
  SimTime last_traffic = -kSecond;
  /// Uplink bytes enqueued per delivered downlink byte (TCP ACK coupling;
  /// ~66 B ACK per 2 x 1500 B segments).
  double ul_ack_ratio = 66.0 / 3000.0;
};

/// A PRACH preamble heard by a (possibly non-serving) cell.
struct PrachObservation {
  CellId observer = kInvalidCell;
  CellId serving = kInvalidCell;  // cell the UE is attaching/attached to
  UeId ue = -1;
  double snr_db = 0.0;
};

struct LteNetworkConfig {
  RlfConfig rlf;
  /// PDCCH-order PRACH solicitation period (paper: every second).
  SimTime prach_solicit_period = 1 * kSecond;
  /// Minimum PRACH SNR for a neighbour cell to count the client
  /// (paper Section 6.3.4: "we count only users whose PRACH can be heard
  /// at -10 dB").
  double prach_detect_snr_db = -10.0;
  /// Open-loop PRACH power control (36.213 Section 6): the client sets its
  /// preamble power so the SERVING cell receives `prach_target_rx_dbm`
  /// (-104 dBm is the standard's typical initial target). This confines
  /// contender counting to cells within ~13 dB of the serving path — the
  /// "clients likely affected" neighbourhood the share formula needs.
  /// Disabling it sends full-power preambles (audible across a whole 2 km
  /// map, driving every share to its floor); see DESIGN.md.
  bool prach_power_control = true;
  double prach_target_rx_dbm = -104.0;
  /// Retry period for UEs that find no cell.
  SimTime attach_retry_period = 5 * kSecond;
  /// Time from PRACH to connected.
  SimTime attach_delay = 100 * kMillisecond;
  /// Measurement-based handover (A3-style): hand over when a neighbour's
  /// RSRP exceeds serving by `handover_hysteresis_db` at a periodic check.
  /// UEs pinned to a forced cell never hand over. Paper Section 7: CellFi
  /// inherits seamless roaming from the LTE architecture.
  bool enable_handover = true;
  double handover_hysteresis_db = 3.0;
  SimTime handover_check_period = 200 * kMillisecond;
  /// Checked input, not a switch: subframes always resolve through the
  /// per-epoch interference engine (InterferenceMap, DESIGN.md §12), and
  /// the constructor throws std::invalid_argument when this is `false`.
  /// Nothing branches on it. It stays declared only because the
  /// benchmark's copy of scenario::RunLteBased still assigns it, and goes
  /// away together with that copy (ROADMAP.md, "One scenario assembly").
  bool use_interference_engine = true;
  /// Intra-replication spatial sharding (DESIGN.md §15). Partition the
  /// cell grid into this many spatially contiguous shards and compute each
  /// shard's RNG-free subframe work (plan building, SINR evaluation, CQI
  /// measurement) concurrently; everything that draws from the shared Rng
  /// or mutates cross-cell state (LBT gating, HARQ completion, callbacks)
  /// runs serially at the subframe barrier in global cell-index order.
  /// Results are bit-identical for ANY value, including 1 — the shard
  /// count only decides which thread computes a value, never the order
  /// values are merged in.
  int shards = 1;
  /// Worker threads for the shard pool. 0 derives a default:
  /// CELLFI_SHARD_THREADS env if set, else hardware concurrency divided by
  /// the active replication-sweep workers (never silently oversubscribes
  /// when PR 2's sweep pool is also running). An explicit value is honored
  /// as given, clamped to `shards`.
  int shard_threads = 0;
  std::uint64_t seed = 1;
};

class LteNetwork {
 public:
  /// `env` must outlive the network; all cells must share one TDD config
  /// (GPS-synchronized frames, as CellFi requires). Throws
  /// std::invalid_argument when config.use_interference_engine is false or
  /// env's interference_floor_db is > 0 (both checked input only).
  LteNetwork(Simulator& sim, RadioEnvironment& env, LteNetworkConfig config);

  // --- Topology ---------------------------------------------------------------
  CellId AddCell(const LteMacConfig& mac, RadioNodeId radio);
  /// Adds a UE. If `force_cell` is set, cell selection is skipped.
  UeId AddUe(RadioNodeId radio, CellId force_cell = kInvalidCell);

  EnodeB& cell(CellId id) { return *cells_[static_cast<std::size_t>(id)].mac; }
  const EnodeB& cell(CellId id) const { return *cells_[static_cast<std::size_t>(id)].mac; }
  std::size_t cell_count() const { return cells_.size(); }
  const UeInfo& ue(UeId id) const { return ues_[static_cast<std::size_t>(id)]; }
  std::size_t ue_count() const { return ues_.size(); }

  /// Enable/disable a cell's radio entirely (channel selection / Fig. 8
  /// style scripted interferers).
  void SetCellActive(CellId id, bool active);
  bool cell_active(CellId id) const { return cells_[static_cast<std::size_t>(id)].active; }
  /// The downlink plan a cell committed in the current subframe, or nullptr
  /// when it sends no downlink data (no load, LBT-gated, or the last data
  /// subframe was uplink). The engine's downlink lists hold every active
  /// cell's plan (test reference hook).
  const TxPlan* committed_downlink_plan(CellId id) const {
    const CellRec& rec = cells_[static_cast<std::size_t>(id)];
    return rec.plan_is_data ? &rec.current_plan : nullptr;
  }

  // --- Traffic ----------------------------------------------------------------
  /// Offer downlink bytes for a UE (queued at its serving cell; dropped if
  /// unattached).
  void OfferDownlink(UeId ue, std::uint64_t bytes);
  /// Offer uplink bytes (beyond the automatic TCP-ACK coupling).
  void OfferUplink(UeId ue, std::uint64_t bytes);

  /// Drop any queued downlink bytes for a UE (scripted traffic gating).
  void ClearDownlinkQueue(UeId ue);

  /// Fired on every delivered downlink transport block.
  std::function<void(UeId, std::uint64_t bytes, SimTime now)> on_dl_delivered;

  // --- CellFi observer hooks -----------------------------------------------------
  std::function<void(const PrachObservation&)> on_prach;
  std::function<void(CellId, UeId, const CqiMeasurement&)> on_cqi_report;

  /// Restrict a cell's scheduler (CellFi interference management).
  void SetAllowedMask(CellId id, std::vector<bool> mask);

  /// Aggregate background PRB demand for a cell (DESIGN.md §18): fraction
  /// of its allowed subchannels occupied by unmodelled background users
  /// each DL subframe. A cell with background demand transmits (and
  /// interferes, and contends for LBT) even with no fully-simulated UEs
  /// attached; 0 restores the pre-tier gates byte-identically.
  void SetBackgroundLoad(CellId id, double fraction);

  // --- Run ----------------------------------------------------------------------
  /// Schedule the subframe loop and attach procedures. Call once.
  void Start();

  // --- Measurement -----------------------------------------------------------------
  /// Realized per-subchannel downlink SINR for a UE in the *current*
  /// subframe (what a CQI measurement would see).
  std::vector<double> MeasureDownlinkSinr(UeId ue) const;

  /// Mean (no-fading) SNR from a UE's serving cell.
  double ServingSnrDb(UeId ue) const;

  /// Distance between two cells' radios (an operator knows its own sites).
  bool CellsWithinDistance(CellId a, CellId b, double distance_m) const;

  std::uint64_t total_dl_bits() const;

  /// The engine's SINR memo hits and misses (DESIGN.md §20).
  InterferenceMap::SinrMemoStats sinr_memo_stats() const {
    return imap_.sinr_memo_stats();
  }

  /// Resolved shard partition size / worker threads (1 before the first
  /// subframe builds the shard state). Test/bench introspection.
  int shard_count() const { return shard_grid_ ? shard_grid_->num_shards() : 1; }
  int shard_thread_count() const { return shard_threads_; }

 private:
  struct CellRec {
    std::unique_ptr<EnodeB> mac;
    RadioNodeId radio = 0;
    bool active = true;
    TxPlan current_plan;          // plan for the in-progress subframe
    bool plan_is_data = false;    // true if current_plan carries DL data
    // Listen-before-talk state (AccessMode::kListenBeforeTalk only).
    bool transmitted_last_subframe = false;
    int lbt_burst_remaining = 0;
    int lbt_backoff = -1;         // -1 = no backoff pending
    int lbt_cw = 4;
    std::uint64_t lbt_deferrals = 0;
  };

  /// LBT gate: may this cell transmit data in the current subframe?
  bool LbtMayTransmit(CellRec& rec);

  // Both directions and the CQI pass run one sequence (DESIGN.md §15):
  // serial reset -> parallel plan -> serial merge into the engine in
  // cell-index order -> Seal -> parallel stage -> serial commit.
  void StepSubframe();
  void RunDownlinkSubframe();
  void RunUplinkSubframe();
  void GenerateCqiReports();
  /// Serial subframe entry for both directions: build the shard state and
  /// clear every cell's plan.
  void ResetPlans();
  /// One transmission's link as its direction sees it.
  struct StagedLink {
    RadioNodeId source = 0;       // signal transmitter
    RadioNodeId receiver = 0;
    double signal_scale = 1.0;    // share of the source's power per subchannel
    double crs_penalty_db = 0.0;  // idle-cell CRS coding penalty (downlink)
  };
  /// Parallel stage of both directions: per shard, the tb SINR of each of
  /// its cells' planned transmissions into staged_tb_sinr_, against the
  /// sealed engine lists. `link_of(cell, tx)` gives the StagedLink.
  template <typename LinkOf>
  void StageTransmissions(const LinkOf& link_of);

  // --- Intra-replication sharding (DESIGN.md §15) -------------------------------
  /// Build (once) the spatial partition, worker pool and staging buffers;
  /// presize every lazily grown per-receiver cache at a serial point so no
  /// worker ever triggers a resize.
  void EnsureShardState();
  /// Run task(shard) for every shard — on the worker pool when one exists,
  /// inline otherwise. Returns only after all shards finish: this IS the
  /// subframe barrier between a parallel phase and the serial merge.
  void ForEachShard(const std::function<void(int)>& task);
  /// Deterministic barrier instrumentation for the pass that just ran:
  /// barrier counter + work-item imbalance histogram from
  /// `items_per_shard` (never wall time — obs must not perturb
  /// determinism).
  void EmitShardMetrics(const std::vector<std::size_t>& items_per_shard);
  /// MeasureDownlinkSinr body writing into a caller buffer. Runs on shard
  /// workers during staged SINR/CQI phases (DESIGN.md §16).
  // cellfi-purity: contract-root(parallel-shard-phase) LteNetwork::MeasureDownlinkSinrInto
  void MeasureDownlinkSinrInto(UeId ue, std::vector<double>& out) const;
  void SolicitPrach();
  void TryAttach(UeId ue);
  void Detach(UeId ue, bool count_disconnection);
  void CheckHandovers();
  void ExecuteHandover(UeId ue, CellId target);
  void EmitPrach(UeId ue, CellId serving);
  CellId PickServingCell(UeId ue) const;

  /// Effective SINR penalty (dB) from idle neighbouring cells whose
  /// reference symbols puncture ~6 % of the victim's data REs. Measured in
  /// the paper's Fig. 7(b) as at most ~20 % goodput loss, i.e. a coding
  /// penalty of roughly 1 dB per strong idle interferer, capped at 2 dB.
  /// Only cells actively sending data on a subchannel add interference
  /// power; the always-on CRS of every other active cell counts here.
  /// Served from a per-receiver cache invalidated on serving-cell,
  /// cell-activity and mobility changes (it depends only on the active set
  /// and mean powers, never on plans). Queried from shard workers during
  /// staged measurement (DESIGN.md §16).
  // cellfi-purity: contract-root(parallel-shard-phase) LteNetwork::IdleCrsPenaltyDb
  double IdleCrsPenaltyDb(CellId serving, RadioNodeId rx) const;

  /// Rebuild the engine's downlink transmitter lists from the cells'
  /// committed plans. Runs after plan commit in RunDownlinkSubframe;
  /// EnsureDownlinkMap re-runs it lazily when SetCellActive or an uplink
  /// subframe invalidated the map since (MeasureDownlinkSinr may be called
  /// between subframes).
  void BuildDownlinkMap() const;
  void EnsureDownlinkMap() const;

  Simulator& sim_;
  RadioEnvironment& env_;
  LteNetworkConfig config_;
  Rng rng_;
  std::vector<CellRec> cells_;
  std::vector<UeInfo> ues_;
  double subchannel_bandwidth_hz_ = 360e3;
  int num_subchannels_ = 13;
  bool started_ = false;

  /// Per-epoch interference engine state (mutable: MeasureDownlinkSinr is
  /// const but may need to lazily rebuild the map and its caches).
  mutable InterferenceMap imap_;
  mutable bool dl_map_valid_ = false;
  /// Bumped by SetCellActive; versions the CRS-penalty cache.
  std::uint64_t activity_epoch_ = 1;
  struct CrsCacheEntry {
    CellId serving = kInvalidCell;
    std::uint64_t activity_epoch = 0;
    std::uint64_t position_epoch = 0;
    double penalty_db = 0.0;
  };
  mutable std::vector<CrsCacheEntry> crs_cache_;  // indexed by rx radio id
  /// CheckHandovers scratch: active cells, hoisted out of the per-UE loop.
  std::vector<CellId> handover_cells_scratch_;

  // --- Sharding state (DESIGN.md §15). Parallel phases are RNG-free and
  // write only receiver-owned or shard-owned storage; every merge runs
  // serially in global cell-index (or UE-id) order, so results are
  // bit-identical for any shard or thread count.
  std::unique_ptr<ShardGrid> shard_grid_;
  std::unique_ptr<WorkerPool> shard_pool_;  // only when shard_threads_ > 1
  int shard_threads_ = 1;
  std::vector<std::uint8_t> plan_pending_;  // cells gated into DL planning
  /// Per cell: tb SINR (dB) of each planned transmission, staged by the
  /// parallel phase, consumed by the serial commit.
  std::vector<std::vector<double>> staged_tb_sinr_;
  /// Per shard: work items of the last parallel pass (transmissions staged
  /// or UEs measured), written by the owning shard; feeds EmitShardMetrics.
  std::vector<std::size_t> shard_items_;
  std::vector<std::uint8_t> cqi_pending_;             // UEs reporting this round
  std::vector<std::vector<double>> staged_cqi_sinr_;  // per UE
  std::vector<CqiMeasurer> cqi_measurers_;            // per UE
  /// Downlink serial commit: per-cell served bits, reused across cells.
  std::vector<double> served_bits_scratch_;
};

}  // namespace cellfi::lte
