#include "policy/aggressive_li_policy.h"

#include <cmath>
#include <stdexcept>

#include "check/contracts.h"

namespace stale::policy {

namespace {

// Degraded-rate-estimate hardening shared by both representations: a
// non-finite or negative expected-arrival count degrades to "start of
// schedule" rather than feeding garbage into the group lookup.
double safe_jobs_elapsed(const DispatchContext& context) {
  double jobs_elapsed =
      context.lambda_total *
      (context.periodic() ? context.phase_elapsed : context.age);
  if (!std::isfinite(jobs_elapsed) || jobs_elapsed < 0.0) jobs_elapsed = 0.0;
  return jobs_elapsed;
}

}  // namespace

namespace {

// Cold path, kept out of select() so the vector-building machinery does not
// weigh on the untraced hot loop: materializes the uniform-over-group
// probability vector the schedule walk implies and hands it to the sink.
// `denom` is the number of eligible group members; when `alive_only` is set,
// known-dead members get probability 0.
[[gnu::noinline]] void trace_implied_group(const DispatchContext& context,
                                           const core::AggressiveSchedule& s,
                                           int group, std::uint64_t denom,
                                           bool alive_only) {
  std::vector<double> p(context.loads.size(), 0.0);
  for (int i = 0; i < group; ++i) {
    const int server = s.order[static_cast<std::size_t>(i)];
    if (alive_only && context.known_dead(server)) continue;
    p[static_cast<std::size_t>(server)] = 1.0 / static_cast<double>(denom);
  }
  context.trace_probabilities(p);
}

}  // namespace

int AggressiveLiPolicy::select(const DispatchContext& context, sim::Rng& rng) {
  if (context.loads.empty()) {
    throw std::invalid_argument("AggressiveLiPolicy: empty load vector");
  }
  if (context.use_bucketed()) return select_bucketed(context, rng);
  if (!schedule_ || cached_version_ != context.info_version) {
    schedule_.emplace(core::make_aggressive_schedule(context.loads));
    bucketed_.reset();
    cached_version_ = context.info_version;
  }
  const double jobs_elapsed = safe_jobs_elapsed(context);
  const int group = context.periodic()
                        ? core::aggressive_group_at(*schedule_, jobs_elapsed)
                        : core::aggressive_stationary_group(*schedule_,
                                                            jobs_elapsed);
  if (context.alive.empty()) {
    // Uniform over the `group` least-loaded servers (non-fault fast path).
    // The implied per-server probability vector is materialized only for the
    // trace sink; the pick itself never touches it.
    if (context.trace != nullptr) {
      trace_implied_group(context, *schedule_, group,
                          static_cast<std::uint64_t>(group), false);
    }
    const auto pick = rng.next_below(static_cast<std::uint64_t>(group));
    return schedule_->order[static_cast<std::size_t>(pick)];
  }
  // Fault run: pick uniformly among the group's known-alive members; if the
  // whole group is believed down, fall back to uniform over alive servers.
  std::uint64_t alive_in_group = 0;
  for (int i = 0; i < group; ++i) {
    const int s = schedule_->order[static_cast<std::size_t>(i)];
    if (!context.known_dead(s)) ++alive_in_group;
  }
  if (alive_in_group == 0) {
    context.count_sanitize_event();
    return pick_uniform_alive(context.alive, context.loads.size(), rng);
  }
  if (context.trace != nullptr) {
    trace_implied_group(context, *schedule_, group, alive_in_group, true);
  }
  std::uint64_t pick = rng.next_below(alive_in_group);
  for (int i = 0; i < group; ++i) {
    const int s = schedule_->order[static_cast<std::size_t>(i)];
    if (!context.known_dead(s) && pick-- == 0) return s;
  }
  throw std::logic_error("AggressiveLiPolicy: liveness mask changed mid-pick");
}

int AggressiveLiPolicy::select_bucketed(const DispatchContext& context,
                                        sim::Rng& rng) {
  if (!bucketed_ || cached_version_ != context.info_version) {
    bucketed_.emplace(
        core::make_bucketed_aggressive_schedule(context.levels->histogram()));
    schedule_.reset();
    cached_version_ = context.info_version;
  }
  const double jobs_elapsed = safe_jobs_elapsed(context);
  const std::int64_t count =
      context.periodic()
          ? core::bucketed_aggressive_count_at(*bucketed_, jobs_elapsed)
          : core::bucketed_aggressive_stationary_count(*bucketed_,
                                                       jobs_elapsed);
  // Equivalence vs the vector path only holds at full membership; with
  // quarantined servers retired from the index the representations diverge
  // by design (see policy.h: DispatchContext::levels).
  STALE_AUDIT(context.levels->retired_count() == 0
                  ? core::audit_aggressive_equivalence(
                        *bucketed_, count, context.loads, jobs_elapsed,
                        context.periodic(),
                        "AggressiveLiPolicy::select_bucketed")
                  : void());
  if (context.trace != nullptr) {
    trace_level_masses(context,
                       core::aggressive_level_masses(*bucketed_, count));
  }
  // Uniform over the `count` least-loaded servers: pick a rank in the sorted
  // order, resolved through the level index without materializing the order.
  return context.levels->pick_uniform_in_prefix(count, rng);
}

}  // namespace stale::policy
