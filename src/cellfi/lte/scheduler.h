// Subframe schedulers: proportional fair, round robin and max-CQI.
//
// The scheduler assigns CellFi subchannels (RBGs) to UEs within the set of
// subchannels the interference-management component has made available
// (paper Section 4.3: "The scheduler is free to schedule any client in any
// of the resource blocks made available by the interference management
// system"). Plain LTE runs with an all-true mask.
//
// Every pass writes into caller-owned output and scheduler-owned scratch
// (one scheduler per eNodeB, so the reuse is shard-safe): a steady-state
// pass allocates nothing (DESIGN.md §21).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cellfi/lte/types.h"
#include "cellfi/lte/ue_context.h"

namespace cellfi::lte {

/// Assignment output: subchannel -> index into the UE list (-1 = unused).
using SubchannelAssignment = std::vector<int>;

/// Scheduler interface. Implementations must be stateless across cells but
/// may keep per-cell cursors (e.g. round-robin position) and scratch.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Assign allowed subchannels to the UEs in `ues` that have downlink
  /// data. UEs with a pending HARQ retransmission take priority and must
  /// receive exactly their original allocation width (HARQ retransmits the
  /// same transport block). Overwrites `out` (sized like `allowed_mask`).
  virtual void AssignDownlink(const std::vector<UeContext*>& ues,
                              const std::vector<bool>& allowed_mask,
                              SubchannelAssignment& out) = 0;

  /// Assign subchannels for uplink demand. Uplink allocations are sized to
  /// the demand: a UE with only TCP ACKs to send gets the single best
  /// subchannel rather than the whole band (Fig. 1(c)). Every scheduler
  /// type shares this one backlog-ordered policy.
  virtual void AssignUplink(const std::vector<UeContext*>& ues,
                            const std::vector<bool>& allowed_mask, int data_re_per_rb,
                            int rbs_per_subchannel, SubchannelAssignment& out) = 0;
};

std::unique_ptr<Scheduler> MakeScheduler(SchedulerType type);

/// Shared helper: the allowed subchannels in the order a UE would pick
/// them (descending CQI, ties in ascending subchannel index), written into
/// `out`: the UE's cached cqi_order() filtered by the mask.
void RankSubchannelsByCqi(const UeContext& ue, const std::vector<bool>& allowed_mask,
                          std::vector<int>& out);

/// Uplink service order: UE indices by decreasing uplink backlog, ties in
/// list order (a stable insertion sort into `out`).
void OrderByUplinkBacklog(const std::vector<UeContext*>& ues, std::vector<std::size_t>& out);

}  // namespace cellfi::lte
