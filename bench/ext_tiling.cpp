// Extension bench: "data management within a kernel" (paper §7 future
// work), realised as kernel tiling.
//
// A detection workload with one oversized kernel is swept across FB set
// sizes; below its working set nothing runs untiled.  Tiling the kernel
// (its template bank replicated, frame data sliced) lets the Data and
// Complete Data Schedulers stream the slices, and the replicated bank
// becomes a retention candidate the CDS keeps resident.
#include <iostream>

#include "msys/common/strfmt.hpp"
#include "msys/common/table.hpp"
#include "msys/model/tiling.hpp"
#include "msys/report/runner.hpp"

namespace {

struct App {
  std::unique_ptr<msys::model::Application> app;
  msys::KernelId big, post;
  msys::DataId frame, bank;
};

App build() {
  using namespace msys;
  App r;
  model::ApplicationBuilder b("detector", 8);
  r.frame = b.external_input("frame", SizeWords{960});
  r.bank = b.external_input("bank", SizeWords{96});
  r.big = b.kernel("scan", 48, Cycles{1200}, {r.frame, r.bank});
  DataId hits = b.output(r.big, "hits", SizeWords{480});
  r.post = b.kernel("post", 24, Cycles{300}, {hits});
  b.output(r.post, "dets", SizeWords{60}, true);
  r.app = std::make_unique<model::Application>(std::move(b).build());
  return r;
}

}  // namespace

int main() {
  using namespace msys;
  App base = build();

  TextTable table({"FB", "untiled DS", "untiled CDS", "T", "tiled DS", "tiled CDS",
                   "tiled kept"});
  for (std::uint64_t fb : {512, 768, 1024, 1536, 2048, 3072}) {
    arch::M1Config cfg = arch::M1Config::m1_default();
    cfg.fb_set_size = SizeWords{fb};
    cfg.cm_capacity_words = 128;
    cfg = arch::M1Config::validated(cfg);

    model::KernelSchedule plain = model::KernelSchedule::from_partition(
        *base.app, {{base.big}, {base.post}});
    report::ExperimentResult untiled = report::run_experiment("plain", plain, cfg);

    // Pick the smallest tile count that fits (2, 4 or 8).
    std::string tiled_ds = "n/a";
    std::string tiled_cds = "n/a";
    std::string kept = "-";
    std::uint32_t used_tiles = 0;
    for (std::uint32_t tiles : {2u, 4u, 8u}) {
      model::TilingSpec spec;
      spec.kernel = base.big;
      spec.tiles = tiles;
      spec.modes = {{base.bank, model::TileMode::kReplicated}};
      model::TiledApplication tiled = model::tile_kernel(*base.app, spec);
      std::vector<std::vector<KernelId>> partition;
      for (KernelId k : tiled.tile_kernels) partition.push_back({k});
      partition.push_back({tiled.kernel_map.at(base.post)});
      model::KernelSchedule sched =
          model::KernelSchedule::from_partition(tiled.app, partition);
      report::ExperimentResult r = report::run_experiment("tiled", sched, cfg);
      if (!r.ds.feasible()) continue;
      used_tiles = tiles;
      tiled_ds = std::to_string(r.ds.cycles().value());
      tiled_cds = std::to_string(r.cds.cycles().value());
      kept = std::to_string(r.cds.schedule().retained.size());
      break;
    }
    table.add_row({
        size_kb(SizeWords{fb}),
        untiled.ds.feasible() ? std::to_string(untiled.ds.cycles().value()) : "n/a",
        untiled.cds.feasible() ? std::to_string(untiled.cds.cycles().value()) : "n/a",
        used_tiles ? std::to_string(used_tiles) : "-",
        tiled_ds,
        tiled_cds,
        kept,
    });
  }
  std::cout << "Extension: kernel tiling (the paper's other §7 future-work item)\n\n";
  table.print(std::cout);
  std::cout << "\nBelow the oversized kernel's working set the untiled workload cannot\n"
               "execute at all; tiling streams slices through the FB and turns the\n"
               "replicated template bank into a retention candidate for the CDS.\n";
  return 0;
}
