#include "cellfi/core/channel_selector.h"

#include <algorithm>
#include <cassert>

#include "cellfi/chaos/invariants.h"
#include "cellfi/obs/trace.h"

namespace cellfi::core {

ChannelSelector::ChannelSelector(Simulator& sim, tvws::PawsSession& session,
                                 const NetworkListenScanner& scanner,
                                 ChannelSelectorConfig config)
    : sim_(sim), session_(session), scanner_(scanner), config_(config),
      transition_timer_(sim), init_retry_timer_(sim), deadline_timer_(sim),
      vacate_timer_(sim) {
  assert(config_.db_poll_interval + config_.vacate_delay <= config_.etsi_vacate_budget);
}

void ChannelSelector::Start() {
  Record("selector_started", -1);
  // Surface database-session health transitions on the timeline so outage
  // reports show when the AP entered/left the lease-grace window.
  session_.on_state_change = [this](tvws::SessionState s) {
    Record(std::string("db_session_") + tvws::SessionStateName(s),
           current_ ? current_->channel.number : -1);
  };
  TryInit();
}

void ChannelSelector::TryInit() {
  // PAWS INIT handshake: required before the database answers spectrum
  // queries (RFC 7545); also tells us the regulatory ruleset in force.
  session_.Init(config_.location, [this, gen = generation_](
                                      std::optional<std::string> ruleset) {
    if (gen != generation_) return;  // process crashed while registering
    if (!ruleset) {
      // Registration failed (database unreachable); keep trying at the
      // poll cadence — nothing transmits until the handshake succeeds.
      Record("init_failed", -1);
      init_retry_timer_.Arm(config_.db_poll_interval, [this] { TryInit(); });
      return;
    }
    Record("registered_" + *ruleset, -1);
    Poll();
    poll_event_ = sim_.SchedulePeriodic(config_.db_poll_interval, [this] { Poll(); });
  });
}

void ChannelSelector::Record(const std::string& what, int channel) {
  timeline_.push_back({sim_.Now(), what, channel});
  if (obs::TraceSink* tr = obs::ActiveTrace()) {
    tr->Emit(sim_.Now(), "channel_selector", what, {{"channel", channel}});
  }
}

void ChannelSelector::QueryBoth(const std::function<void(PollContext&)>& done) {
  // The paper queries downlink and uplink availability independently
  // (master device for the AP, generic slave parameters for all clients)
  // and uses a channel valid for both. Both queries run concurrently.
  auto ctx = std::make_shared<PollContext>();
  // Both closures carry the generation at query time: replies addressed to
  // a process incarnation that has since crashed are dead letters.
  const std::uint64_t gen = generation_;
  session_.GetSpectrum(config_.location, /*master=*/true,
                       [this, gen, ctx, done](std::optional<tvws::AvailSpectrumResponse> dl) {
                         if (gen != generation_) return;
                         ctx->dl = std::move(dl);
                         ctx->dl_done = true;
                         if (ctx->complete()) done(*ctx);
                       });
  session_.GetSpectrum(config_.location, /*master=*/false,
                       [this, gen, ctx, done](std::optional<tvws::AvailSpectrumResponse> ul) {
                         if (gen != generation_) return;
                         ctx->ul = std::move(ul);
                         ctx->ul_done = true;
                         if (ctx->complete()) done(*ctx);
                       });
}

void ChannelSelector::Poll() {
  if (poll_in_flight_) return;  // previous poll still retrying; don't pile up
  if (state_ == ApRadioState::kRebooting) return;  // revalidated at reboot end
  poll_in_flight_ = true;
  QueryBoth([this](PollContext& ctx) { OnPollComplete(ctx); });
}

void ChannelSelector::OnPollComplete(PollContext& ctx) {
  poll_in_flight_ = false;
  const auto& dl = ctx.dl;
  const auto& ul = ctx.ul;
  if (!dl || !ul) {
    // Database unreachable even after the session's retries. While on air
    // we stay inside the lease-grace window: the vacate deadline armed at
    // the last successful confirmation still guarantees ETSI compliance.
    ++failed_polls_;
    return;
  }

  // Every channel of the aggregate must stay leased in both directions.
  bool current_still_valid = current_.has_value();
  if (current_still_valid) {
    for (const ChannelAvailability& used : aggregated_) {
      const bool dl_ok = std::any_of(dl->channels.begin(), dl->channels.end(),
                                     [&](const ChannelAvailability& a) {
                                       return a.channel == used.channel &&
                                              a.lease_expiry > sim_.Now();
                                     });
      const bool ul_ok = std::any_of(ul->channels.begin(), ul->channels.end(),
                                     [&](const ChannelAvailability& a) {
                                       return a.channel == used.channel;
                                     });
      if (!dl_ok || !ul_ok) {
        current_still_valid = false;
        break;
      }
    }
  }

  switch (state_) {
    case ApRadioState::kOn:
      if (!current_still_valid) {
        // Lease lost: stop transmitting. Clients stop with the AP because
        // uplink needs per-transmission grants (paper Section 4.2).
        deadline_timer_.Cancel();
        ScheduleVacate("lease_lost");
      } else {
        // Stay compliant: refresh the lease bookkeeping and re-arm the
        // vacate deadline from this confirmation.
        current_->lease_expiry = std::max(current_->lease_expiry, sim_.Now());
        ConfirmLease();
      }
      break;
    case ApRadioState::kOff: {
      const auto best = PickBest(dl->channels, ul->channels);
      if (best.has_value()) BeginReboot(*best);
      break;
    }
    case ApRadioState::kRebooting:
      break;  // finish the reboot first; validity is rechecked after
  }
}

void ChannelSelector::ConfirmLease() {
  last_lease_confirm_ = sim_.Now();
  lease_confirms_.push_back(last_lease_confirm_);
  if (obs::TraceSink* tr = obs::ActiveTrace()) {
    // Every confirmation re-arms the ETSI clock: a later `vacate_fired`
    // must sit within budget of the latest preceding `vacate_armed`.
    tr->Emit(sim_.Now(), "channel_selector", "vacate_armed",
             {{"channel", current_ ? current_->channel.number : -1},
              {"deadline_us",
               (sim_.Now() + config_.etsi_vacate_budget) / kMicrosecond}});
  }
  // Hard ETSI deadline: if no further confirmation arrives, the radio-off
  // command fires early enough that transmissions stop at exactly
  // last confirm + budget, regardless of poll cadence or retry state.
  deadline_timer_.Arm(config_.etsi_vacate_budget - config_.vacate_delay,
                      [this] { OnVacateDeadline(); });
}

void ChannelSelector::OnVacateDeadline() {
  if (state_ != ApRadioState::kOn) return;
  Record("vacate_deadline_reached", current_ ? current_->channel.number : -1);
  ScheduleVacate("lease_confirmation_overdue");
}

void ChannelSelector::ScheduleVacate(std::string reason) {
  if (vacate_timer_.armed()) return;  // a vacate is already committed
  vacate_timer_.Arm(config_.vacate_delay,
                    [this, reason = std::move(reason)] { RadioOff(reason); });
}

void ChannelSelector::RadioOff(const std::string& reason) {
  if (state_ == ApRadioState::kOff) return;
  if (obs::TraceSink* tr = obs::ActiveTrace()) {
    tr->Emit(sim_.Now(), "channel_selector", "vacate_fired",
             {{"channel", current_ ? current_->channel.number : -1},
              {"reason", reason}});
  }
  state_ = ApRadioState::kOff;
  if (clients_connected_) {
    clients_connected_ = false;
    Record("client_stopped", current_ ? current_->channel.number : -1);
  }
  Record(reason, current_ ? current_->channel.number : -1);
  Record("ap_off", current_ ? current_->channel.number : -1);
  if (chaos::InvariantChecker* ic = chaos::ActiveChecker()) {
    ic->OnApOffAir(config_.instance, sim_.Now());
  }
  current_.reset();
  aggregated_.clear();
  deadline_timer_.Cancel();
  vacate_timer_.Cancel();
  transition_timer_.Cancel();
  if (on_channel_lost) on_channel_lost();
}

void ChannelSelector::Crash() {
  ++generation_;
  ++crash_count_;
  const int channel = current_ ? current_->channel.number : -1;
  const bool was_on = state_ == ApRadioState::kOn;
  // The process dies mid-instruction: the radio is simply gone, with none
  // of the clean-vacate bookkeeping. Off air is off air, though — a dead
  // transmitter cannot violate the vacate budget.
  Record("ap_crash", channel);
  if (chaos::InvariantChecker* ic = chaos::ActiveChecker()) {
    ic->OnApOffAir(config_.instance, sim_.Now());
  }
  state_ = ApRadioState::kOff;
  clients_connected_ = false;
  poll_in_flight_ = false;
  current_.reset();
  aggregated_.clear();
  deadline_timer_.Cancel();
  vacate_timer_.Cancel();
  init_retry_timer_.Cancel();
  sim_.Cancel(poll_event_);
  poll_event_ = EventId{};
  transition_timer_.Cancel();
  if (was_on && on_channel_lost) on_channel_lost();
  // Process restart: the lease table is gone, so the new incarnation goes
  // through the full INIT handshake again. Every AP of a fleet crashing at
  // once turns this into a re-registration storm against the database.
  transition_timer_.Arm(config_.reboot_duration, [this, gen = generation_] {
    if (gen != generation_) return;  // crashed again while down
    Record("ap_restarted", -1);
    TryInit();
  });
}

void ChannelSelector::BeginReboot(const ChannelAvailability& target) {
  state_ = ApRadioState::kRebooting;
  Record("ap_rebooting", target.channel.number);
  transition_timer_.Arm(config_.reboot_duration, [this, target] {
    // Never go on air on stale data: the authorization that started this
    // reboot is reboot_duration old (> ETSI budget). Re-validate with a
    // fresh exchange; the database may be down or the lease gone.
    QueryBoth([this, target](PollContext& ctx) { CompleteReboot(target, ctx); });
  });
}

void ChannelSelector::CompleteReboot(const ChannelAvailability& target,
                                     PollContext& ctx) {
  if (state_ != ApRadioState::kRebooting) return;
  const auto& dl = ctx.dl;
  const auto& ul = ctx.ul;
  if (!dl || !ul) {
    state_ = ApRadioState::kOff;
    Record("reboot_abandoned_db_unreachable", target.channel.number);
    return;
  }
  const auto fresh = std::find_if(dl->channels.begin(), dl->channels.end(),
                                  [&](const ChannelAvailability& a) {
                                    return a.channel == target.channel &&
                                           a.lease_expiry > sim_.Now();
                                  });
  const bool ul_ok = std::any_of(ul->channels.begin(), ul->channels.end(),
                                 [&](const ChannelAvailability& a) {
                                   return a.channel == target.channel;
                                 });
  if (fresh == dl->channels.end() || !ul_ok) {
    state_ = ApRadioState::kOff;
    Record("reboot_abandoned_lease_expired", target.channel.number);
    return;
  }

  state_ = ApRadioState::kOn;
  current_ = *fresh;
  Record("ap_on", fresh->channel.number);
  if (chaos::InvariantChecker* ic = chaos::ActiveChecker()) {
    ic->OnApOnAir(config_.instance, fresh->channel.number, sim_.Now());
  }
  ConfirmLease();
  // Derive the aggregate from the same fresh query (leases may have moved
  // during the reboot).
  aggregated_ = {*fresh};
  if (config_.max_aggregated_channels > 1) {
    aggregated_ = BuildAggregate(*fresh, UsableBoth(dl->channels, ul->channels));
    if (aggregated_.size() > 1) {
      Record("aggregated_" + std::to_string(aggregated_.size()) + "_channels",
             fresh->channel.number);
    }
  }
  // Notify the database of actual use (SPECTRUM_USE_NOTIFY).
  for (const ChannelAvailability& used : aggregated_) {
    session_.NotifyUse(config_.location, used);
  }
  if (on_channel_acquired) on_channel_acquired(*fresh);
  transition_timer_.Arm(config_.client_reacquire, [this] {
    if (state_ == ApRadioState::kOn) {
      clients_connected_ = true;
      Record("client_connected", current_ ? current_->channel.number : -1);
    }
  });
}

double ChannelSelector::AggregatedBandwidthHz() const {
  double total = 0.0;
  for (const ChannelAvailability& a : aggregated_) {
    total += tvws::TvChannelWidthHz(a.channel.regulatory);
  }
  return total;
}

double ChannelSelector::MaxPowerDbm() const {
  double cap = 1e9;
  for (const ChannelAvailability& a : aggregated_) cap = std::min(cap, a.max_eirp_dbm);
  return aggregated_.empty() ? 0.0 : cap;
}

std::vector<ChannelAvailability> ChannelSelector::UsableBoth(
    const std::vector<ChannelAvailability>& downlink,
    const std::vector<ChannelAvailability>& uplink) const {
  std::vector<ChannelAvailability> usable;
  for (const ChannelAvailability& a : downlink) {
    if (a.lease_expiry <= sim_.Now()) continue;
    const bool in_uplink =
        std::any_of(uplink.begin(), uplink.end(), [&](const ChannelAvailability& u) {
          return u.channel == a.channel;
        });
    if (in_uplink) usable.push_back(a);
  }
  return usable;
}

std::vector<ChannelAvailability> ChannelSelector::BuildAggregate(
    const ChannelAvailability& primary,
    const std::vector<ChannelAvailability>& usable) const {
  std::vector<ChannelAvailability> block{primary};
  auto find = [&](int number) -> const ChannelAvailability* {
    for (const ChannelAvailability& a : usable) {
      if (a.channel.number == number &&
          scanner_.OccupancyScore(number) <= config_.idle_occupancy_threshold) {
        return &a;
      }
    }
    return nullptr;
  };
  // Grow upward then downward from the primary, keeping the block
  // contiguous in channel numbers.
  int up = primary.channel.number + 1;
  int down = primary.channel.number - 1;
  while (static_cast<int>(block.size()) < config_.max_aggregated_channels) {
    if (const ChannelAvailability* a = find(up)) {
      block.push_back(*a);
      ++up;
      continue;
    }
    if (const ChannelAvailability* a = find(down)) {
      block.push_back(*a);
      --down;
      continue;
    }
    break;
  }
  return block;
}

std::optional<ChannelAvailability> ChannelSelector::PickBest(
    const std::vector<ChannelAvailability>& downlink,
    const std::vector<ChannelAvailability>& uplink) const {
  std::optional<ChannelAvailability> best;
  int best_rank = 3;
  double best_occupancy = 2.0;
  for (const ChannelAvailability& a : downlink) {
    if (a.lease_expiry <= sim_.Now()) continue;
    const bool in_uplink =
        std::any_of(uplink.begin(), uplink.end(), [&](const ChannelAvailability& u) {
          return u.channel == a.channel;
        });
    if (!in_uplink) continue;

    const double occupancy = scanner_.OccupancyScore(a.channel.number);
    int rank;
    if (occupancy <= config_.idle_occupancy_threshold) {
      rank = 0;  // idle
    } else if (scanner_.IsCellFiOccupied(a.channel.number)) {
      rank = 1;  // sharable with CellFi interference management
    } else {
      rank = 2;  // occupied by another technology
    }
    const bool better =
        rank < best_rank ||
        (rank == best_rank &&
         (occupancy < best_occupancy ||
          (occupancy == best_occupancy && best.has_value() &&
           a.channel.number < best->channel.number)));
    if (!best.has_value() || better) {
      best = a;
      best_rank = rank;
      best_occupancy = occupancy;
    }
  }
  return best;
}

}  // namespace cellfi::core
