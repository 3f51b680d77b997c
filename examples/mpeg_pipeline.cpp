// MPEG-2 encoder pipeline walkthrough: the workload behind Table 1's MPEG
// rows, run end to end with a simulator trace excerpt.
//
//   $ ./build/examples/mpeg_pipeline [fb_set_words]
//
// Shows the cluster structure, the Information Extractor's retention
// candidates with their TF factors, the three schedulers' results, and
// the first DMA/RC events of the simulated execution.
#include <cstdint>
#include <iostream>
#include <vector>

#include "msys/codegen/program.hpp"
#include "msys/common/strfmt.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/report/runner.hpp"
#include "msys/report/timeline.hpp"
#include "msys/sim/simulator.hpp"
#include "msys/workloads/experiments.hpp"

int main(int argc, char** argv) {
  using namespace msys;
  SizeWords fb = kilowords(2);
  if (argc > 1) {
    std::uint64_t words = 0;
    if (!parse_int(argv[1], words) || words == 0) {
      std::cerr << "usage: mpeg_pipeline [fb_set_words > 0]\n";
      return 2;
    }
    fb = SizeWords{words};
  }

  workloads::Experiment exp = workloads::make_mpeg(fb);
  std::cout << "machine:  " << exp.cfg.summary() << "\n";
  std::cout << "schedule: " << exp.sched.summary() << "\n\n";

  extract::ScheduleAnalysis analysis(exp.sched);
  std::cout << analysis.summary() << '\n';

  report::ExperimentResult result = report::run_experiment("MPEG", exp.sched, exp.cfg);
  for (const report::SchedulerOutcome* o : {&result.basic, &result.ds, &result.cds}) {
    std::cout << o->scheduler << ": ";
    if (!o->feasible()) {
      std::cout << "infeasible — " << o->schedule().infeasible_reason << '\n';
      continue;
    }
    std::cout << o->predicted().total.value() << " cycles (compute "
              << o->predicted().compute.value() << ", stall " << o->predicted().stall.value()
              << "), RF=" << o->schedule().rf << ", kept " << o->schedule().retained.size()
              << " object(s)\n";
    if (o->scheduler == "CDS") {
      for (DataId d : o->schedule().retained) {
        std::cout << "    retained: " << exp.app->data(d).name << " ("
                  << exp.app->data(d).size.value() << " words)\n";
      }
    }
  }

  // ---- Trace the first events of the CDS execution. ----
  if (result.cds.feasible()) {
    std::cout << "\nfirst 24 timed events of the CDS run:\n";
    csched::ContextPlan plan = csched::ContextPlan::build(*result.cds.result->input.sched,
                                                          exp.cfg.cm_capacity_words);
    codegen::ScheduleProgram program = codegen::generate(result.cds.schedule(), plan);
    sim::Simulator simulator(exp.cfg, plan);
    struct Event {
      Cycles start, end;
      std::string what;
    };
    std::vector<Event> events;
    simulator.set_trace([&](Cycles s, Cycles e, const std::string& what) {
      events.push_back({s, e, what});
    });
    (void)simulator.run(program);
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      if (a.start != b.start) return a.start < b.start;
      return a.end < b.end;
    });
    for (std::size_t i = 0; i < events.size() && i < 24; ++i) {
      std::cout << "  [" << pad_left(std::to_string(events[i].start.value()), 6) << ", "
                << pad_left(std::to_string(events[i].end.value()), 6) << ") "
                << events[i].what << '\n';
    }

    std::cout << "\nfirst round as a timeline:\n";
    report::TimelineOptions window;
    window.to = Cycles{events.empty() ? 1 : events[std::min<std::size_t>(
                                                      events.size() - 1, 80)]
                                            .end.value()};
    std::cout << report::render_timeline(program, exp.cfg, plan, window);
  }
  return 0;
}
