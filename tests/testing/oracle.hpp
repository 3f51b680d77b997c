// Random-workload families the three-way oracle is screened on, and the
// fallback schedule of one of them checked by engine::compile_checked.  Shared
// by the cross_check unit tests (sim_test) and the differential screen
// (oracle_screen_test).
#pragma once

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

/// Cross-checks the CDS schedule of `spec`'s workload.
inline sim::CrossCheck cds_cross_check(const workloads::RandomSpec& spec) {
  const workloads::RandomExperiment exp = workloads::make_random(spec);
  return engine::compile_checked({engine::make_input(exp.sched, exp.cfg)}).check;
}

}  // namespace msys::testing
