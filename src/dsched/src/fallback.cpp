#include "msys/dsched/fallback.hpp"

#include <span>
#include <sstream>
#include <utility>

#include "msys/common/error.hpp"
#include "msys/dsched/alloc_driver.hpp"
#include "msys/dsched/plan_cache.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"

namespace msys::dsched {

namespace {

/// The rungs a pipeline can run.
enum class Rung : std::uint8_t { kCDS, kDS, kBasic, kRescue };

/// A rung's name in the attempt record and its
/// dsched.fallback.selected.<name> counter, resolved once.
struct RungInfo {
  const char* name;
  obs::Counter& selected;
};

const RungInfo& info(Rung rung) {
  static const RungInfo rungs[] = {
      {"CDS", obs::counter("dsched.fallback.selected.CDS")},
      {"DS", obs::counter("dsched.fallback.selected.DS")},
      {"Basic", obs::counter("dsched.fallback.selected.Basic")},
      {"DS+split", obs::counter("dsched.fallback.selected.DS+split")},
  };
  return rungs[static_cast<std::size_t>(rung)];
}

/// Basic-then-rescue's second rung: DS's decision at RF 1 with nothing
/// retained, placed like DS.  Releasing each object after its last use is
/// what fits where Basic, which holds everything to the cluster's end,
/// does not.
DataSchedule rescue_schedule(PlanCache& plans) {
  const char* name = info(Rung::kRescue).name;
  const DriverOptions options{};  // RF 1, release at last use, nothing retained
  const RoundDecision& decision = plans.decide(options);
  if (!decision.ok) return infeasible(name, plans.analysis().sched(), decision.fail_reason);
  return plans.schedule(options, name);
}

DataSchedule run_rung(Rung rung, const FallbackOptions& options, PlanCache& plans,
                      const CancelToken& cancel) {
  switch (rung) {
    case Rung::kCDS: return CompleteDataScheduler{options.cds}.schedule(plans, cancel);
    case Rung::kDS: return DataScheduler{}.schedule(plans, cancel);
    case Rung::kBasic: return BasicScheduler{}.schedule(plans, cancel);
    case Rung::kRescue: break;
  }
  return rescue_schedule(plans);
}

/// The rungs `pipeline` runs, in order.
std::span<const Rung> rungs_of(Pipeline pipeline) {
  static constexpr Rung kCds[] = {Rung::kCDS};
  static constexpr Rung kDs[] = {Rung::kDS};
  static constexpr Rung kBasic[] = {Rung::kBasic};
  static constexpr Rung kBasicThenRescue[] = {Rung::kBasic, Rung::kRescue};
  switch (pipeline) {
    case Pipeline::kCDS: return kCds;
    case Pipeline::kDS: return kDs;
    case Pipeline::kBasic: return kBasic;
    case Pipeline::kBasicThenRescue: break;
  }
  return kBasicThenRescue;
}

}  // namespace

std::string to_string(Pipeline pipeline) {
  switch (pipeline) {
    case Pipeline::kCDS: return "CDS";
    case Pipeline::kDS: return "DS";
    case Pipeline::kBasic: return "Basic";
    case Pipeline::kBasicThenRescue: return "Basic+rescue";
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
  chains.add();
  ScheduleOutcome outcome;
  // The rungs of one pipeline decide through one memo.
  PlanCache plans(analysis, cfg);

  for (const Rung rung : rungs_of(options.pipeline)) {
    FallbackAttempt attempt;
    attempt.rung = info(rung).name;
    if (outcome.feasible()) {
      attempt.attempted = false;
      attempt.reason = "not reached";
      outcome.attempts.push_back(std::move(attempt));
      continue;
    }
    // A deadline or cancel that fired stops the chain: a cheaper rung
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
    if (rung_span.active()) rung_span.add_arg(obs::arg("rung", attempt.rung));
    try {
      DataSchedule candidate = run_rung(rung, options, plans, cancel);
      if (candidate.feasible) {
        attempt.succeeded = true;
        attempt.reason = "selected";
        outcome.schedule = std::move(candidate);
        info(rung).selected.add();
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
      // rung, if any, instead of crashing the caller, but record it loudly.
      attempt.reason = std::string("internal: ") + e.what();
      outcome.diagnostics.push_back(
          make_error("schedule.internal", attempt.rung + ": " + e.what()));
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
