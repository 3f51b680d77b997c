#include "msys/dsched/fallback.hpp"

#include <functional>
#include <sstream>
#include <utility>

#include "msys/common/error.hpp"
#include "msys/dsched/alloc_driver.hpp"
#include "msys/dsched/plan_cache.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"

namespace msys::dsched {

namespace {

/// Rung 4: DS at RF = 1 with nothing retained, packed best-fit without
/// regularity hints.  Its decision is DS's RF-1 walk (a memo hit in a
/// chain), so it fits exactly when that walk does: only its placement
/// differs.  It can still rescue a chain entered at Basic.
DataSchedule split_rung_schedule(PlanCache& plans) {
  DriverOptions options;
  options.rf = 1;
  options.release_at_last_use = true;
  options.regularity_hints = false;
  options.fit = alloc::FitPolicy::kBestFit;
  const RoundDecision& decision = plans.decide(options);
  if (!decision.ok) {
    return infeasible("DS+split", plans.analysis().sched(), decision.fail_reason);
  }
  return plans.schedule(options, "DS+split");
}

/// dsched.fallback.selected.<rung>, resolved once per rung on its first
/// selection.  Indexed by position in the fixed rung order built by
/// schedule_with_fallback: CDS, DS, Basic, DS+split.
obs::Counter& selected_counter(std::size_t rung) {
  switch (rung) {
    case 0: {
      static obs::Counter& c = obs::counter("dsched.fallback.selected.CDS");
      return c;
    }
    case 1: {
      static obs::Counter& c = obs::counter("dsched.fallback.selected.DS");
      return c;
    }
    case 2: {
      static obs::Counter& c = obs::counter("dsched.fallback.selected.Basic");
      return c;
    }
    default: {
      static obs::Counter& c = obs::counter("dsched.fallback.selected.DS+split");
      return c;
    }
  }
}

}  // namespace

std::string to_string(FallbackEntry entry) {
  switch (entry) {
    case FallbackEntry::kCDS: return "CDS";
    case FallbackEntry::kDS: return "DS";
    case FallbackEntry::kBasic: return "Basic";
  }
  return "?";
}

std::string ScheduleOutcome::chosen_rung() const {
  for (const FallbackAttempt& a : attempts) {
    if (a.succeeded) return a.rung;
  }
  return {};
}

std::string ScheduleOutcome::chain_summary() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    if (i > 0) out << " -> ";
    const FallbackAttempt& a = attempts[i];
    out << a.rung << ':';
    if (!a.attempted) {
      out << "skipped";
    } else if (a.succeeded) {
      out << "ok";
    } else {
      out << "failed(" << a.reason << ')';
    }
  }
  return out.str();
}

ScheduleOutcome schedule_with_fallback(const extract::ScheduleAnalysis& analysis,
                                       const arch::M1Config& cfg,
                                       const FallbackOptions& options,
                                       const CancelToken& cancel) {
  MSYS_TRACE_SPAN(span, "dsched.fallback", "dsched");
  static obs::Counter& chains = obs::counter("dsched.fallback.chains");
  static obs::Counter& demotions = obs::counter("dsched.fallback.demotions");
  static obs::Counter& exhausted = obs::counter("dsched.fallback.exhausted");
  static obs::Counter& cancelled_chains = obs::counter("dsched.fallback.cancelled");
  static obs::Counter& degraded_entries = obs::counter("dsched.fallback.degraded_entries");
  chains.add();
  if (options.entry != FallbackEntry::kCDS) degraded_entries.add();
  ScheduleOutcome outcome;
  // Every rung decides through one memo: DS repeats CDS's max-RF probes
  // and RF pick, and DS+split's decision is DS's RF-1 walk.
  PlanCache plans(analysis, cfg);

  // Rung factories, tried in order of decreasing ambition.
  struct Rung {
    std::string name;
    std::function<DataSchedule()> run;
  };
  const Rung rungs[] = {
      {"CDS", [&] { return CompleteDataScheduler{options.cds}.schedule(plans, cancel); }},
      {"DS", [&] { return DataScheduler{}.schedule(plans, cancel); }},
      {"Basic", [&] { return BasicScheduler{}.schedule(plans, cancel); }},
      {"DS+split", [&] { return split_rung_schedule(plans); }},
  };

  // Degraded entry: rungs above the entry point are never attempted, but
  // still appear in the record so chain_summary() shows what was skipped.
  const std::size_t first_rung =
      options.entry == FallbackEntry::kBasic ? 2
      : options.entry == FallbackEntry::kDS  ? 1
                                             : 0;

  for (std::size_t ri = 0; ri < std::size(rungs); ++ri) {
    const Rung& rung = rungs[ri];
    FallbackAttempt attempt;
    attempt.rung = rung.name;
    if (ri < first_rung) {
      attempt.attempted = false;
      attempt.reason = "degraded entry";
      outcome.attempts.push_back(std::move(attempt));
      continue;
    }
    if (outcome.feasible()) {
      attempt.attempted = false;
      attempt.reason = "not reached";
      outcome.attempts.push_back(std::move(attempt));
      continue;
    }
    // A deadline or cancel that fired stops the ladder: a cheaper rung
    // would only burn more of a budget that is already spent, and a result
    // computed after the deadline is a lie about what the deadline bought.
    if (outcome.cancelled() || cancel.cancelled()) {
      outcome.cancel_cause =
          outcome.cancelled() ? outcome.cancel_cause : cancel.cause();
      attempt.attempted = false;
      attempt.reason = "cancelled";
      outcome.attempts.push_back(std::move(attempt));
      continue;
    }
    attempt.attempted = true;
    MSYS_TRACE_SPAN(rung_span, "dsched.rung", "dsched");
    if (rung_span.active()) rung_span.add_arg(obs::arg("rung", rung.name));
    try {
      DataSchedule candidate = rung.run();
      if (candidate.feasible) {
        attempt.succeeded = true;
        attempt.reason = "selected";
        outcome.schedule = std::move(candidate);
        selected_counter(ri).add();
      } else {
        attempt.reason = candidate.infeasible_reason.empty()
                             ? "infeasible"
                             : candidate.infeasible_reason;
        if (candidate.cancelled) {
          // The rung was cut short, not beaten: latch the cause so the
          // remaining rungs are skipped, and prefer the cut-short record
          // as the reported schedule (it names the cancellation).
          outcome.cancel_cause = cancel.can_cancel() && cancel.cancelled()
                                     ? cancel.cause()
                                     : CancelCause::kCancelled;
          outcome.schedule = std::move(candidate);
        } else if (outcome.schedule.scheduler_name.empty()) {
          // Keep the most ambitious rung's record as the reported schedule
          // so the caller still sees scheduler_name/reason when all fail.
          outcome.schedule = std::move(candidate);
        }
      }
    } catch (const Error& e) {
      // A scheduler invariant tripped on this input: demote to the next
      // rung instead of crashing the caller, but record it loudly.
      attempt.reason = std::string("internal: ") + e.what();
      outcome.diagnostics.push_back(
          make_error("schedule.internal", rung.name + ": " + e.what()));
    }
    if (!attempt.succeeded) {
      // A rung transition: this rung was tried and lost, the chain moves on.
      demotions.add();
      MSYS_TRACE_INSTANT("dsched.fallback.demote", "dsched",
                         obs::arg("rung", attempt.rung),
                         obs::arg("reason", attempt.reason));
    }
    outcome.attempts.push_back(std::move(attempt));
  }

  if (!outcome.feasible()) {
    if (outcome.cancelled()) {
      cancelled_chains.add();
      std::ostringstream why;
      why << "scheduling " << to_string(outcome.cancel_cause) << " on " << cfg.name
          << ": " << outcome.chain_summary();
      outcome.diagnostics.push_back(make_error(
          outcome.cancel_cause == CancelCause::kDeadline ? "schedule.timeout"
                                                         : "schedule.cancelled",
          why.str()));
    } else {
      exhausted.add();
      std::ostringstream why;
      why << "no scheduler rung fits this workload on " << cfg.name << " (fbset="
          << cfg.fb_set_size.value() << " words): " << outcome.chain_summary();
      outcome.diagnostics.push_back(make_error("schedule.infeasible", why.str()));
    }
  }
  if (span.active()) {
    span.add_arg(obs::arg("chosen", outcome.chosen_rung()));
    span.add_arg(obs::arg("feasible",
                          std::string(outcome.feasible() ? "yes" : "no")));
  }
  return outcome;
}

}  // namespace msys::dsched
