#include "msys/search/kernel_search.hpp"

#include <optional>

#include "msys/common/error.hpp"
#include "msys/obs/trace.hpp"
#include "msys/search/space.hpp"

namespace msys::search {

namespace {

/// Runs `explore`, which hands every shape it wants priced to the
/// `consider` it is called with, and returns the best shape's schedule
/// (built once, at the end).  consider() returns the shape's cycles at
/// CDS's own decisions, or nullopt when the shape is infeasible.
template <typename Explore>
SearchResult search(const model::Application& app, const arch::M1Config& cfg,
                    Explore explore) {
  MSYS_TRACE_SPAN(span, "search.kernel_schedule", "search");
  MSYS_REQUIRE(app.kernel_count() >= 1, "application has no kernels");
  SearchResult result;
  std::optional<Shape> best_shape;
  auto consider = [&](const Shape& shape) {
    ShapeContext ctx(app, app.topological_order(), shape, cfg);
    std::optional<Cycles> cycles;
    if (const std::optional<dsched::DriverOptions> options = ctx.greedy()) {
      cycles = ctx.price(options->rf, options->retained);
    }
    ++result.evaluated;
    if (cycles.has_value()) {
      ++result.feasible_count;
      if (!best_shape || *cycles < result.best_cycles) {
        best_shape = shape;
        result.best_cycles = *cycles;
      }
    }
    return cycles;
  };
  explore(consider);
  if (best_shape) {
    result.best = std::make_unique<model::KernelSchedule>(
        schedule_of(app, app.topological_order(), *best_shape));
  }
  if (span.active()) {
    span.add_arg(obs::arg("evaluated", result.evaluated));
    span.add_arg(obs::arg("feasible", result.feasible_count));
    if (result.found()) span.add_arg(obs::arg("best_cycles", result.best_cycles.value()));
  }
  return result;
}

}  // namespace

SearchResult find_best_schedule(const model::Application& app, const arch::M1Config& cfg) {
  return space_size(app.kernel_count()) <= kExhaustiveLimit ? exhaustive_search(app, cfg)
                                                            : greedy_merge_search(app, cfg);
}

SearchResult exhaustive_search(const model::Application& app, const arch::M1Config& cfg) {
  return search(app, cfg, [n = app.kernel_count()](auto& consider) {
    for (std::uint64_t mask = 0; mask < space_size(n); ++mask) {
      consider(shape_of_mask(mask, n));
    }
  });
}

SearchResult greedy_merge_search(const model::Application& app, const arch::M1Config& cfg) {
  return search(app, cfg, [n = app.kernel_count()](auto& consider) {
    Shape shape(n, 1);
    std::optional<Cycles> current = consider(shape);
    bool improved = true;
    while (improved && shape.size() > 1) {
      improved = false;
      std::optional<Cycles> best_merge;
      std::size_t best_at = 0;
      for (std::size_t i = 0; i + 1 < shape.size(); ++i) {
        Shape merged = shape;
        merged[i] += merged[i + 1];
        merged.erase(merged.begin() + static_cast<std::ptrdiff_t>(i + 1));
        const std::optional<Cycles> cycles = consider(merged);
        if (cycles && (!best_merge || *cycles < *best_merge)) {
          best_merge = cycles;
          best_at = i;
        }
      }
      if (best_merge && (!current || *best_merge < *current)) {
        shape[best_at] += shape[best_at + 1];
        shape.erase(shape.begin() + static_cast<std::ptrdiff_t>(best_at + 1));
        current = best_merge;
        improved = true;
      }
    }
  });
}

}  // namespace msys::search
