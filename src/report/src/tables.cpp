#include "msys/report/tables.hpp"

#include <algorithm>
#include <sstream>

#include "msys/common/strfmt.hpp"

namespace msys::report {

namespace {

std::string improvement_cell(const std::optional<double>& improvement) {
  if (!improvement.has_value()) return "n/a";
  return fixed(*improvement * 100.0, 0) + "%";
}

}  // namespace

TextTable table1(const std::vector<ExperimentResult>& results) {
  TextTable table({"Experiment", "N", "n", "DS", "DT", "RF", "FB", "DS%", "CDS%"});
  for (const ExperimentResult& r : results) {
    table.add_row({
        r.name,
        std::to_string(r.n_clusters),
        std::to_string(r.max_kernels_per_cluster),
        size_kb(r.data_size_per_iteration),
        size_kb(r.dt_words_avoided_per_iteration()),
        std::to_string(r.rf()),
        size_kb(r.cfg.fb_set_size),
        improvement_cell(r.ds_improvement()),
        improvement_cell(r.cds_improvement()),
    });
  }
  return table;
}

TextTable fig6(const std::vector<ExperimentResult>& results) {
  TextTable table({"Experiment", "CDS%", "DS%"});
  for (const ExperimentResult& r : results) {
    table.add_row({r.name, improvement_cell(r.cds_improvement()),
                   improvement_cell(r.ds_improvement())});
  }
  return table;
}

std::string fig6_ascii(const std::vector<ExperimentResult>& results) {
  std::ostringstream out;
  std::size_t name_width = 0;
  for (const ExperimentResult& r : results) name_width = std::max(name_width, r.name.size());
  auto bar = [](double fraction) {
    const int cells = static_cast<int>(fraction * 60.0 + 0.5);
    return std::string(static_cast<std::size_t>(std::max(cells, 0)), '#');
  };
  out << "Relative execution improvement over the Basic Scheduler (%)\n";
  for (const ExperimentResult& r : results) {
    const auto cds = r.cds_improvement();
    const auto ds = r.ds_improvement();
    out << pad_right(r.name, name_width) << "  CDS |"
        << (cds ? bar(*cds) + ' ' + fixed(*cds * 100.0, 0) : std::string("n/a")) << '\n';
    out << std::string(name_width, ' ') << "  DS  |"
        << (ds ? bar(*ds) + ' ' + fixed(*ds * 100.0, 0) : std::string("n/a")) << '\n';
  }
  return out.str();
}

TextTable detail_table(const std::vector<ExperimentResult>& results) {
  TextTable table({"Experiment", "Sched", "RF", "Kept", "Cycles", "Compute", "Stall",
                   "LoadW", "StoreW", "CtxW"});
  for (const ExperimentResult& r : results) {
    for (const SchedulerOutcome* o : {&r.basic, &r.ds, &r.cds}) {
      if (!o->feasible()) {
        table.add_row({r.name, o->scheduler, "-", "-", "infeasible", "-", "-", "-", "-",
                       "-"});
        continue;
      }
      table.add_row({
          r.name,
          o->scheduler,
          std::to_string(o->schedule().rf),
          std::to_string(o->schedule().retained.size()),
          std::to_string(o->predicted().total.value()),
          std::to_string(o->predicted().compute.value()),
          std::to_string(o->predicted().stall.value()),
          std::to_string(o->predicted().data_words_loaded),
          std::to_string(o->predicted().data_words_stored),
          std::to_string(o->predicted().context_words),
      });
    }
    table.add_rule();
  }
  return table;
}

TextTable anneal_table(const std::vector<AnnealRow>& rows) {
  TextTable table({"Experiment", "Greedy", "Annealed", "Saved", "Saved%", "RF",
                   "Retained", "Clusters"});
  auto transition = [](std::uint64_t from, std::uint64_t to) {
    if (from == to) return std::to_string(from);
    return std::to_string(from) + "->" + std::to_string(to);
  };
  for (const AnnealRow& row : rows) {
    const std::uint64_t saved = row.cycles_saved();
    const double pct = row.greedy_cycles > 0 ? 100.0 * static_cast<double>(saved) /
                                                   static_cast<double>(row.greedy_cycles)
                                             : 0.0;
    table.add_row({row.name, std::to_string(row.greedy_cycles),
                   std::to_string(row.annealed_cycles), std::to_string(saved),
                   saved > 0 ? fixed(pct, 2) + "%" : "-",
                   transition(row.greedy_rf, row.annealed_rf),
                   transition(row.greedy_retained, row.annealed_retained),
                   transition(row.greedy_clusters, row.annealed_clusters)});
  }
  return table;
}

}  // namespace msys::report
