#include "msys/sim/cross_check.hpp"

#include <cstdint>
#include <string>
#include <utility>

#include "msys/codegen/program.hpp"
#include "msys/dsched/validate.hpp"

namespace msys::sim {

std::string CrossCheck::why() const {
  switch (stage) {
    case Stage::kOk: return "";
    case Stage::kInfeasible: return predicted.summary();
    case Stage::kValidator: return "invalid plan: " + render(diagnostics);
    case Stage::kSimulator: return "simulator fault: " + render(diagnostics);
    case Stage::kMismatch: return "prediction mismatch: " + mismatch;
  }
  return "";
}

CrossCheck cross_check(const dsched::DataSchedule& schedule, dsched::CostBreakdown predicted,
                       const extract::ScheduleAnalysis& analysis, const arch::M1Config& cfg,
                       const csched::ContextPlan& ctx_plan) {
  using Stage = CrossCheck::Stage;
  CrossCheck out;
  out.predicted = std::move(predicted);
  if (!schedule.feasible) return out;
  out.diagnostics = dsched::validate_schedule(schedule, analysis, cfg);
  if (!out.diagnostics.empty()) {
    out.stage = Stage::kValidator;
    return out;
  }
  if (!out.predicted.feasible) return out;

  Simulator simulator(cfg, ctx_plan);
  Simulator::Outcome run = simulator.try_run(codegen::generate(schedule, ctx_plan));
  if (!run.ok()) {
    out.stage = Stage::kSimulator;
    out.diagnostics = std::move(run.diagnostics);
    return out;
  }
  const dsched::CostBreakdown& p = out.predicted;
  const SimReport& m = out.measured.emplace(std::move(*run.report));
  auto compare = [&](const char* field, std::uint64_t predicted, std::uint64_t measured) {
    if (predicted == measured) return;
    if (!out.mismatch.empty()) out.mismatch += "; ";
    out.mismatch += std::string(field) + " predicted " + std::to_string(predicted) +
                    " measured " + std::to_string(measured);
  };
  compare("total", p.total.value(), m.total.value());
  compare("compute", p.compute.value(), m.compute.value());
  compare("stall", p.stall.value(), m.stall.value());
  compare("dma_busy", p.dma_busy.value(), m.dma_busy.value());
  compare("data_words_loaded", p.data_words_loaded, m.data_words_loaded);
  compare("data_words_stored", p.data_words_stored, m.data_words_stored);
  compare("context_words", p.context_words, m.context_words);
  compare("dma_requests", p.dma_requests, m.dma_requests);
  out.stage = out.mismatch.empty() ? Stage::kOk : Stage::kMismatch;
  return out;
}

}  // namespace msys::sim
