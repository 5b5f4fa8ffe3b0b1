// eNodeB MAC: per-subframe transmission planning, HARQ bookkeeping and CQI
// intake for one cell.
//
// The eNodeB is deliberately unaware of the radio environment: it plans
// transmissions from reported CQI, and the LteNetwork (which owns
// propagation) feeds back the realized SINR per transport block. The
// interference-management component constrains it only through
// `SetAllowedMask` — exactly the interface the paper describes between
// CellFi's interference manager and the stock LTE scheduler.
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "cellfi/common/rng.h"
#include "cellfi/lte/scheduler.h"
#include "cellfi/lte/types.h"
#include "cellfi/lte/ue_context.h"
#include "cellfi/phy/resource_grid.h"

namespace cellfi::lte {

/// One planned transport block in a subframe.
struct Transmission {
  UeId ue = -1;
  int ue_index = -1;              // index into the cell's UE list
  /// Allocated subchannels, ascending: a view into the owning TxPlan's
  /// subchannel_pool, valid until that plan is cleared or planned again.
  std::span<const int> subchannels;
  int cqi = 0;                    // MCS for the block
  int tb_bits = 0;                // transport block capacity
  std::uint64_t payload_bytes = 0;  // actual queued bytes covered
  bool is_harq_retx = false;
};

/// All transmissions of one cell in one subframe. Filled in place and
/// reused from subframe to subframe (DESIGN.md §21). Move-only: every
/// transmission's span points into this plan's subchannel_pool, so a copy
/// would read the source's pool, while a move carries the pool's buffer
/// (and every span into it) along.
struct TxPlan {
  TxPlan() = default;
  TxPlan(TxPlan&&) noexcept = default;
  TxPlan& operator=(TxPlan&&) noexcept = default;
  TxPlan(const TxPlan&) = delete;
  TxPlan& operator=(const TxPlan&) = delete;

  /// Empty the plan for a grid of `num_subchannels`, keeping every buffer.
  void Clear(int num_subchannels);

  std::vector<Transmission> transmissions;
  /// True where a subchannel carries data this subframe.
  std::vector<bool> data_active;
  /// Storage behind every Transmission::subchannels, reserved to the
  /// subchannel count. A subchannel is granted at most once per plan, so
  /// the pool never reallocates while spans point into it.
  std::vector<int> subchannel_pool;
};

/// Result of resolving one transport block against the channel.
struct DeliveryResult {
  bool delivered = false;
  bool dropped = false;  // HARQ attempts exhausted
  std::uint64_t payload_bytes = 0;
  int attempts = 0;
};

class EnodeB {
 public:
  EnodeB(CellId id, LteMacConfig config);

  CellId id() const { return id_; }
  const LteMacConfig& config() const { return config_; }
  const ResourceGrid& grid() const { return grid_; }
  const TddConfig& tdd() const { return tdd_; }

  // --- UE management -------------------------------------------------------
  UeContext& AddUe(UeId ue);
  void RemoveUe(UeId ue);
  UeContext* FindUe(UeId ue);
  const std::vector<std::unique_ptr<UeContext>>& ues() const { return ues_; }
  bool has_ues() const { return !ues_.empty(); }
  /// The UE a planned transmission serves, by its list index. The UE list
  /// cannot change between plan and commit (attach, detach and handover
  /// run outside the subframe), so the index is exact; asserts the id.
  UeContext& UeOf(const Transmission& tx);

  // --- Interference-management interface ------------------------------------
  /// Restrict the scheduler to these subchannels (CellFi IM). Size must be
  /// num_subchannels.
  void SetAllowedMask(const std::vector<bool>& mask);
  const std::vector<bool>& allowed_mask() const { return allowed_mask_; }
  /// Number of subchannels currently allowed.
  int allowed_count() const;

  // --- Aggregate background load (DESIGN.md §18) -----------------------------
  /// Fraction of the allowed subchannels the aggregate traffic tier
  /// occupies each DL subframe, in [0, 1]. PlanDownlink reserves
  /// round(fraction * allowed) subchannels at a per-subframe rotating
  /// offset: they carry data on air (real interference toward neighbours)
  /// and are withheld from the real-UE scheduler (real scheduler
  /// pressure). The rotation spreads occupancy over every allowed
  /// subchannel so CQI probes of the fully-simulated UEs still sample all
  /// of them. 0 restores the pre-tier behavior byte-identically.
  void SetBackgroundPrbDemand(double fraction);
  double background_prb_demand() const { return background_prb_demand_; }
  /// True when the cell has anything to put on air: attached UEs or
  /// background demand from the aggregate tier.
  bool has_load() const { return !ues_.empty() || background_prb_demand_ > 0.0; }

  // --- Per-subframe MAC ------------------------------------------------------
  /// Build the downlink plan for this subframe into `plan` (only
  /// meaningful on DL subframes), replacing its contents and reusing its
  /// buffers. Runs on shard workers; everything it reaches must be
  /// RNG-free, schedule-free and lock-free (DESIGN.md §16).
  // cellfi-purity: contract-root(parallel-shard-phase) EnodeB::PlanDownlink
  void PlanDownlink(TxPlan& plan);

  /// Build the uplink grant plan (UL subframes) into `plan`. Same purity
  /// contract as PlanDownlink.
  // cellfi-purity: contract-root(parallel-shard-phase) EnodeB::PlanUplink
  void PlanUplink(TxPlan& plan);

  /// Resolve a downlink transport block given its realized SINR; updates
  /// HARQ state, queues and statistics.
  DeliveryResult CompleteDownlink(const Transmission& tx, double sinr_db, Rng& rng);

  /// Resolve an uplink transport block.
  DeliveryResult CompleteUplink(const Transmission& tx, double sinr_db, Rng& rng);

  /// Update proportional-fair averages after a DL subframe. `served_bits`
  /// is indexed like the UE list; unserved UEs decay toward zero.
  void UpdatePfAverages(const std::vector<double>& served_bits);

  // --- Cell-wide statistics ---------------------------------------------------
  std::uint64_t total_dl_bits() const { return total_dl_bits_; }
  std::uint64_t total_ul_bits() const { return total_ul_bits_; }

  // --- Epoch schedule statistics (CellFi IM input) -------------------------------
  /// Per-UE, per-subchannel count of DL subframes scheduled since the last
  /// reset; frac_j in the paper's bucket update is count / dl_subframes.
  /// A UE's row is created by AddUe and zeroed, not dropped, by a reset;
  /// readers treat an all-zero row exactly like a missing one.
  struct ScheduleStats {
    int dl_subframes = 0;
    std::unordered_map<UeId, std::vector<int>> ue_subchannel_subframes;
  };
  const ScheduleStats& schedule_stats() const { return schedule_stats_; }
  void ResetScheduleStats();

 private:
  /// Turn assignment_ into `plan`: one transmission per granted UE, in
  /// UE-list order, its subchannels written straight into the plan's pool.
  void EmitTransmissions(TxPlan& plan, bool uplink);
  Transmission MakeNewBlock(const UeContext& ue, int ue_index,
                            std::span<const int> subchannels, bool uplink) const;
  Transmission MakeRetxBlock(const UeContext& ue, int ue_index,
                             std::span<const int> subchannels, bool uplink) const;
  DeliveryResult Complete(const Transmission& tx, double sinr_db, Rng& rng, bool uplink);

  CellId id_;
  LteMacConfig config_;
  ResourceGrid grid_;
  TddConfig tdd_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<std::unique_ptr<UeContext>> ues_;
  std::vector<bool> allowed_mask_;
  double background_prb_demand_ = 0.0;
  /// Rotating start offset for the background reservation. A plain
  /// counter, bumped once per planned DL subframe: cell-owned state, so
  /// PlanDownlink stays RNG-free and shard-deterministic (DESIGN.md §16).
  std::uint64_t background_rotation_ = 0;
  /// Scratch for the background-masked allowed set (avoids a per-subframe
  /// allocation on the hot path).
  std::vector<bool> background_mask_scratch_;
  /// Planning scratch, reused every subframe: the scheduler's input view
  /// of the UE list and its output.
  std::vector<UeContext*> ue_ptrs_;
  SubchannelAssignment assignment_;
  /// EmitTransmissions scratch: per UE, where its run of the pool ends.
  std::vector<int> run_end_;
  std::uint64_t total_dl_bits_ = 0;
  std::uint64_t total_ul_bits_ = 0;
  ScheduleStats schedule_stats_;
};

}  // namespace cellfi::lte
