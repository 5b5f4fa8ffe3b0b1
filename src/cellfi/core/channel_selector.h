// CellFi channel-selection component (paper Section 4.2, evaluated in
// Section 6.2 / Fig. 6).
//
// Responsibilities:
//  * keep a list of available channels fresh by polling the spectrum
//    database over PAWS — through a `PawsSession`, so database slowness,
//    loss and outages are survived with retries and bounded staleness;
//  * vacate the channel within the ETSI 60 s budget once the lease is lost.
//    The budget is a HARD deadline armed at the last successful lease
//    confirmation (not at poll time): if the database becomes unreachable,
//    the radio still goes dark no later than t_lastconfirm + budget;
//  * select the best channel available for BOTH downlink and uplink,
//    preferring channels that network-listen finds idle, then channels
//    occupied by other CellFi cells (whose interference management can
//    share), then anything else;
//  * model the AP radio lifecycle: retuning requires a reboot (1 m 36 s on
//    the paper's E40), after which clients need a cell search (~56 s) to
//    reconnect. The AP never goes on air on stale data: reboot completion
//    re-validates the lease with a fresh database exchange.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cellfi/sim/event_queue.h"
#include "cellfi/sim/timer.h"
#include "cellfi/tvws/paws_session.h"

namespace cellfi::core {

using tvws::ChannelAvailability;
using tvws::GeoLocation;

/// What network-listen hears on each candidate channel.
class NetworkListenScanner {
 public:
  virtual ~NetworkListenScanner() = default;

  /// Received energy from other networks on `channel`, normalized to
  /// [0, 1] (0 = idle). Idle threshold is 0.05.
  virtual double OccupancyScore(int channel) const = 0;

  /// True if the occupant was identified as a CellFi/LTE cell (via PSS/SSS
  /// detection during network listen).
  virtual bool IsCellFiOccupied(int channel) const = 0;
};

/// Scanner for environments with no other transmitters.
class QuietScanner final : public NetworkListenScanner {
 public:
  double OccupancyScore(int) const override { return 0.0; }
  bool IsCellFiOccupied(int) const override { return false; }
};

struct ChannelSelectorConfig {
  GeoLocation location;
  /// AP index reported to the ambient trace sink / invariant checker so
  /// fleet campaigns can attribute events per AP.
  int instance = 0;
  /// Channel aggregation (paper Section 7, "future work"): lease up to
  /// this many CONTIGUOUS TV channels when available, widening the LTE
  /// carrier (two 6 MHz channels fit a 10 MHz carrier). All aggregated
  /// channels must be valid for both downlink and uplink; losing any of
  /// them vacates the whole block (conservative compliance).
  int max_aggregated_channels = 1;
  SimTime db_poll_interval = 1 * kSecond;
  SimTime vacate_delay = 1 * kSecond;          // radio-off latency after loss
  SimTime reboot_duration = 96 * kSecond;      // E40: 1 min 36 s
  SimTime client_reacquire = 56 * kSecond;     // cell search on the client
  double idle_occupancy_threshold = 0.05;
  // ETSI EN 301 598: transmissions must stop within 60 s of losing the
  // channel; db_poll_interval + vacate_delay must stay below this.
  SimTime etsi_vacate_budget = 60 * kSecond;
};

enum class ApRadioState { kOff, kRebooting, kOn };

/// One timeline entry for the Fig. 6 style report.
struct TimelineEvent {
  SimTime time = 0;
  std::string what;  // "ap_on", "ap_off", "client_connected", ...
  int channel = -1;
};

/// Channel-selection state machine for one access point.
class ChannelSelector {
 public:
  /// All referenced objects must outlive the selector.
  ChannelSelector(Simulator& sim, tvws::PawsSession& session,
                  const NetworkListenScanner& scanner, ChannelSelectorConfig config);

  /// Begin polling the database and bring the radio up on the best channel.
  void Start();

  /// Model an AP process crash: the radio dies instantly (no clean vacate),
  /// all in-RAM lease state is lost, every pending timer and in-flight
  /// query is abandoned, and the process restarts — full PAWS INIT
  /// re-registration — after `config.reboot_duration`. The caller is
  /// responsible for resetting the shared PawsSession (its state is also
  /// process RAM) via `PawsSession::Reset()`.
  void Crash();

  /// Times the process crashed (for reports).
  std::uint64_t crash_count() const { return crash_count_; }

  ApRadioState state() const { return state_; }

  /// Primary channel currently transmitted on (only when state == kOn).
  std::optional<ChannelAvailability> current_channel() const { return current_; }

  /// All channels in use (primary first); size > 1 under aggregation.
  const std::vector<ChannelAvailability>& current_channels() const { return aggregated_; }

  /// Total leased bandwidth in Hz (0 when off the air).
  double AggregatedBandwidthHz() const;

  /// Most restrictive EIRP cap across the aggregated channels, dBm
  /// (power optimization must respect every channel's limit).
  double MaxPowerDbm() const;

  /// True while attached clients may transmit (AP on + cell search done).
  bool clients_connected() const { return clients_connected_; }

  /// Ordered record of every state change.
  const std::vector<TimelineEvent>& timeline() const { return timeline_; }

  /// Times of every successful lease confirmation while on air (the
  /// instants the ETSI vacate deadline was re-armed).
  const std::vector<SimTime>& lease_confirms() const { return lease_confirms_; }

  /// Last successful lease confirmation (-1 before the first one).
  SimTime last_lease_confirm() const { return last_lease_confirm_; }

  /// Polls that ended without a usable response (database unreachable).
  std::uint64_t failed_polls() const { return failed_polls_; }

  /// Invoked on acquiring / losing a channel (optional).
  std::function<void(const ChannelAvailability&)> on_channel_acquired;
  std::function<void()> on_channel_lost;

 private:
  /// In-flight downlink + uplink query pair (one poll or reboot check).
  struct PollContext {
    std::optional<tvws::AvailSpectrumResponse> dl, ul;
    bool dl_done = false, ul_done = false;
    bool complete() const { return dl_done && ul_done; }
  };

  void TryInit();
  void Poll();
  void QueryBoth(const std::function<void(PollContext&)>& done);
  void OnPollComplete(PollContext& ctx);
  void ConfirmLease();
  void OnVacateDeadline();
  void ScheduleVacate(std::string reason);
  void RadioOff(const std::string& reason);
  void BeginReboot(const ChannelAvailability& target);
  void CompleteReboot(const ChannelAvailability& target, PollContext& ctx);
  void Record(const std::string& what, int channel);

  /// Rank candidates: idle first, then CellFi-occupied, then the rest;
  /// ties broken by lower occupancy, then lower channel number.
  std::optional<ChannelAvailability> PickBest(
      const std::vector<ChannelAvailability>& downlink,
      const std::vector<ChannelAvailability>& uplink) const;

  /// Channels valid for both directions (lease not expired).
  std::vector<ChannelAvailability> UsableBoth(
      const std::vector<ChannelAvailability>& downlink,
      const std::vector<ChannelAvailability>& uplink) const;

  /// Extend `primary` with contiguous usable channels up to the
  /// aggregation cap.
  std::vector<ChannelAvailability> BuildAggregate(
      const ChannelAvailability& primary,
      const std::vector<ChannelAvailability>& usable) const;

  Simulator& sim_;
  tvws::PawsSession& session_;
  const NetworkListenScanner& scanner_;
  ChannelSelectorConfig config_;

  ApRadioState state_ = ApRadioState::kOff;
  bool clients_connected_ = false;
  bool poll_in_flight_ = false;
  /// Bumped on every crash; callbacks captured before the crash carry the
  /// old value and become no-ops (a dead process's replies must not steer
  /// the restarted one).
  std::uint64_t generation_ = 0;
  std::uint64_t crash_count_ = 0;
  std::optional<ChannelAvailability> current_;
  std::vector<ChannelAvailability> aggregated_;
  std::vector<TimelineEvent> timeline_;
  std::vector<SimTime> lease_confirms_;
  SimTime last_lease_confirm_ = -1;
  std::uint64_t failed_polls_ = 0;
  EventId poll_event_;
  /// The pending reboot, restart or client-reacquire step. A Timer, so a
  /// step forgets its event once it fires and a later Cancel leaves
  /// nothing behind in the simulator.
  Timer transition_timer_;
  Timer init_retry_timer_;
  Timer deadline_timer_;  // fires at last confirm + budget - vacate_delay
  Timer vacate_timer_;    // models the radio-off latency
};

}  // namespace cellfi::core
