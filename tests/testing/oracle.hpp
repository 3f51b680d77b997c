// Random-workload families the three-way oracle is screened on, and the
// fallback schedule of one of them checked by engine::compile_checked.  Shared
// by the cross_check unit tests (sim_test), the differential screen
// (oracle_screen_test) and the annealer's pricing property (search_test).
#pragma once

#include <array>
#include <cstdint>

#include "msys/engine/job.hpp"
#include "msys/workloads/random.hpp"

namespace msys::testing {

/// 8-14 kernels, 8-32 iterations, heavy reuse.
inline workloads::RandomSpec family_spec(std::uint64_t seed) {
  workloads::RandomSpec spec;
  spec.seed = seed;
  spec.min_kernels = 8;
  spec.max_kernels = 14;
  spec.min_iterations = 8;
  spec.max_iterations = 32;
  spec.reuse_percent = 60;
  spec.shared_inputs = 3;
  return spec;
}

/// The family widened to 24 kernels and 64 iterations.
inline workloads::RandomSpec large_spec(std::uint64_t seed) {
  workloads::RandomSpec spec = family_spec(seed);
  spec.max_kernels = 24;
  spec.max_iterations = 64;
  return spec;
}

/// The annealing workloads: 6-10 kernels, 40% reuse.
inline workloads::RandomSpec anneal_spec(std::uint64_t seed) {
  workloads::RandomSpec spec;
  spec.seed = seed;
  spec.min_kernels = 6;
  spec.max_kernels = 10;
  spec.reuse_percent = 40;
  return spec;
}

/// anneal_spec seeds whose annealing search met candidates with empty-store
/// slots, which a model charging an empty-store barrier priced above the
/// simulator.
inline constexpr std::array<std::uint64_t, 23> kEmptyStoreAnnealSeeds = {
    29,  43,  64,  68,  83,  97,  113, 163, 165, 175, 212, 221,
    241, 303, 312, 349, 369, 378, 402, 414, 422, 430, 454};

/// Cross-checks the CDS schedule of `spec`'s workload.
inline sim::CrossCheck cds_cross_check(const workloads::RandomSpec& spec) {
  const workloads::RandomExperiment exp = workloads::make_random(spec);
  return engine::compile_checked({engine::make_input(exp.sched, exp.cfg)}).check;
}

}  // namespace msys::testing
