// LteNetwork: binds cells, UEs, the radio environment and the subframe
// clock into a running system simulation.
//
// Every 1 ms subframe the network
//   1. asks each cell for its transmission plan (DL or UL per the
//      GPS-synchronized TDD pattern),
//   2. resolves each transport block against the realized SINR — with all
//      concurrently transmitting cells/UEs as interferers, idle cells still
//      contributing their control/reference-symbol power (Fig. 7's
//      "signalling interference"),
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
  /// Resolve subframes through the per-epoch interference engine
  /// (InterferenceMap, DESIGN.md §12): per-subchannel transmitter lists
  /// are built once per subframe and shared by every receiver, aggregate
  /// denominators and the idle-CRS penalty are cached. Bit-identical to
  /// the legacy per-link path (which `false` restores — kept for the
  /// regression test and the bench_scale comparison) as long as
  /// RadioEnvironmentConfig::interference_floor_db is off.
  bool use_interference_engine = true;
  /// Intra-replication spatial sharding (DESIGN.md §15). Partition the
  /// cell grid into this many spatially contiguous shards and compute each
  /// shard's RNG-free subframe work (plan building, SINR evaluation, CQI
  /// measurement) concurrently; everything that draws from the shared Rng
  /// or mutates cross-cell state (LBT gating, HARQ completion, callbacks)
  /// runs serially at the subframe barrier in global cell-index order.
  /// Results are bit-identical for ANY value, including 1 — the shard
  /// count only decides which thread computes a value, never the order
  /// values are merged in. Requires use_interference_engine; the legacy
  /// per-link path stays single-threaded.
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
  /// (GPS-synchronized frames, as CellFi requires).
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

  /// Interference terms dropped by the negligible-interferer cull
  /// (RadioEnvironmentConfig::interference_floor_db) — 0 unless the cull
  /// is enabled and the engine is on.
  std::uint64_t interference_culled_total() const { return imap_.culled_total(); }
  /// Drops discovered while resolving the most recent subframe.
  std::uint64_t interference_culled_last_subframe() const {
    return imap_.culled_this_epoch();
  }
  /// The engine's SINR memo hits and misses (DESIGN.md §20).
  InterferenceMap::SinrMemoStats sinr_memo_stats() const {
    return imap_.sinr_memo_stats();
  }

  /// Resolved shard partition size / worker threads (1 before the first
  /// subframe builds the shard state). Test/bench introspection.
  int shard_count() const { return shard_grid_ ? shard_grid_->num_shards() : 1; }
  int shard_thread_count() const { return shard_threads_; }
  /// The cull-derived neighbor graph, or nullptr when the cull is off
  /// (every pair would be a neighbor) or no subframe has run yet.
  const NeighborGraph* neighbor_graph() const {
    return neighbor_graph_.built() ? &neighbor_graph_ : nullptr;
  }

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

  void StepSubframe();
  void RunDownlinkSubframe();
  void RunUplinkSubframe();
  void GenerateCqiReports();

  // --- Intra-replication sharding (DESIGN.md §15) -------------------------------
  /// Build (once) the spatial partition, worker pool, neighbor graph and
  /// staging buffers; presize every lazily grown per-receiver cache at a
  /// serial point so no worker ever triggers a resize.
  void EnsureShardState();
  /// Rebuild the neighbor graph when node mobility invalidated it. Called
  /// at serial subframe entry; correctness never depends on it (a stale
  /// graph is simply ignored by the engine), only cull speed does.
  void RefreshNeighborGraph();
  /// Run task(shard) for every shard — on the worker pool when one exists,
  /// inline otherwise. Returns only after all shards finish: this IS the
  /// subframe barrier between a parallel phase and the serial merge.
  void ForEachShard(const std::function<void(int)>& task);
  /// Deterministic barrier instrumentation: barrier counter + work-item
  /// imbalance histogram from per-shard staged transmission counts (never
  /// wall time — obs must not perturb determinism).
  void EmitShardMetrics();
  /// MeasureDownlinkSinr body writing into a caller buffer; `scratch` is
  /// the per-thread cull scratch for concurrent staging (nullptr = serial).
  /// Runs on shard workers during staged SINR/CQI phases (DESIGN.md §16).
  // cellfi-purity: contract-root(parallel-shard-phase) LteNetwork::MeasureDownlinkSinrInto
  void MeasureDownlinkSinrInto(UeId ue, std::vector<double>& out,
                               std::vector<ActiveTransmitter>* scratch) const;
  void SolicitPrach();
  void TryAttach(UeId ue);
  void Detach(UeId ue, bool count_disconnection);
  void CheckHandovers();
  void ExecuteHandover(UeId ue, CellId target);
  void EmitPrach(UeId ue, CellId serving);
  CellId PickServingCell(UeId ue) const;

  /// Interference contribution of every cell except `except` on
  /// `subchannel` in the current DL subframe. Only cells actively sending
  /// data on the subchannel contribute power; idle cells' always-on CRS is
  /// modelled as a small coding penalty instead (see IdleCrsPenaltyDb).
  void CollectDownlinkInterferers(CellId except, int subchannel,
                                  std::vector<ActiveTransmitter>& out) const;

  /// Effective SINR penalty (dB) from idle neighbouring cells whose
  /// reference symbols puncture ~6 % of the victim's data REs. Measured in
  /// the paper's Fig. 7(b) as at most ~20 % goodput loss, i.e. a coding
  /// penalty of roughly 1 dB per strong idle interferer, capped at 2 dB.
  /// With the engine on the value is served from a per-receiver cache
  /// invalidated on serving-cell, cell-activity and mobility changes (it
  /// depends only on the active set and mean powers, never on plans).
  /// Queried from shard workers during staged measurement (DESIGN.md §16).
  // cellfi-purity: contract-root(parallel-shard-phase) LteNetwork::IdleCrsPenaltyDb
  double IdleCrsPenaltyDb(CellId serving, RadioNodeId rx) const;
  /// Uncached scan behind IdleCrsPenaltyDb (the legacy path calls it
  /// directly every time).
  double ComputeIdleCrsPenaltyDb(CellId serving, RadioNodeId rx) const;

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
  NeighborGraph neighbor_graph_;            // built when the cull is on
  int shard_threads_ = 1;
  std::vector<std::uint8_t> plan_pending_;  // cells gated into DL planning
  /// Per cell: tb SINR (dB) of each planned transmission, staged by the
  /// parallel phase, consumed by the serial commit.
  std::vector<std::vector<double>> staged_tb_sinr_;
  /// Per shard: cull-survivor scratch handed to InterferenceMap::SinrDb.
  std::vector<std::vector<ActiveTransmitter>> shard_scratch_;
  std::vector<std::uint8_t> cqi_pending_;             // UEs reporting this round
  std::vector<std::vector<double>> staged_cqi_sinr_;  // per UE
  std::vector<CqiMeasurer> cqi_measurers_;            // per UE
  /// Downlink serial commit: per-cell served bits, reused across cells.
  std::vector<double> served_bits_scratch_;
};

}  // namespace cellfi::lte
