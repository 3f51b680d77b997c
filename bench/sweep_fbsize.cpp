// Sweep A3: Frame Buffer set size vs RF and improvement.
//
// The paper observes (E1 vs E1*, MPEG vs MPEG*, ATR-FI vs ATR-FI*) that a
// bigger memory raises the achievable context-reuse factor RF and with it
// the Data/Complete Data Scheduler improvement, and that below some size
// the Basic Scheduler stops working entirely while DS/CDS survive.  This
// harness sweeps the FB set size for the three applications the paper
// varies and prints the full curve.
#include <iostream>

#include "msys/common/strfmt.hpp"
#include "msys/common/table.hpp"
#include "msys/report/runner.hpp"
#include "msys/workloads/experiments.hpp"

namespace {

void sweep(const char* title,
           const std::function<msys::workloads::Experiment(msys::SizeWords)>& make,
           const std::vector<std::uint64_t>& sizes) {
  using namespace msys;
  TextTable table({"FB", "Basic", "RF", "DS%", "CDS%", "Kept", "DT/iter"});
  for (std::uint64_t words : sizes) {
    workloads::Experiment exp = make(SizeWords{words});
    report::ExperimentResult r = report::run_experiment(exp.name, exp.sched, exp.cfg);
    if (!r.ds.feasible()) {
      table.add_row({size_kb(SizeWords{words}), "n/a", "-", "n/a", "n/a", "-", "-"});
      continue;
    }
    table.add_row({
        size_kb(SizeWords{words}),
        r.basic.feasible() ? "ok" : "n/a",
        std::to_string(r.rf()),
        r.ds_improvement() ? fixed(*r.ds_improvement() * 100, 0) + "%" : "n/a",
        r.cds_improvement() ? fixed(*r.cds_improvement() * 100, 0) + "%" : "n/a",
        std::to_string(r.cds.schedule().retained.size()),
        size_kb(r.dt_words_avoided_per_iteration()),
    });
  }
  std::cout << title << "\n\n";
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() {
  using namespace msys;
  sweep("Sweep A3a: MPEG vs FB set size (paper rows: 2K and 3K; prose: Basic fails at 1K)",
        [](SizeWords fb) { return workloads::make_mpeg(fb); },
        {768, 1024, 1536, 2048, 2560, 3072, 4096, 6144});

  sweep("Sweep A3b: E1 vs FB set size (paper rows: 1K and 2K)",
        [](SizeWords fb) {
          workloads::Experiment exp = workloads::make_e1(false);
          exp.cfg = exp.cfg.with_fb_set_size(fb);
          return exp;
        },
        {512, 768, 1024, 1536, 2048, 3072, 4096});

  sweep("Sweep A3c: ATR-FI vs FB set size (paper rows: 1K and 2K)",
        [](SizeWords fb) {
          workloads::Experiment exp = workloads::make_atr_fi(0);
          exp.cfg = exp.cfg.with_fb_set_size(fb);
          return exp;
        },
        {512, 640, 768, 1024, 1536, 2048, 3072});
  return 0;
}
