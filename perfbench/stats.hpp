// Percentiles and failure accounting for the benchmark driver.
//
// Header-only and free of repository dependencies so that stats_test.cpp
// can check the two rules every reported number rests on:
//
//   * A percentile is the nearest-rank value (the ceil(p*n)-th smallest
//     sample) and is only reported when at least kMinBeyond samples lie
//     beyond it; a run too short for that is a failed run, not a number.
//   * Every operation a workload attempts is counted once.  Infeasible
//     schedules are correct answers and are counted on their own; a failed
//     operation (internal error, predicted != simulated, a serve
//     infeasible/compile-timeout outcome, an annealing sim_reject) is
//     counted and its input listed by name.  An input on the documented
//     known-divergence list is listed too, but kept out of `failed`.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p < 1) among `n` samples.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// Nearest-rank percentile of `samples`, or nullopt when fewer than
/// kMinBeyond samples lie beyond it.
[[nodiscard]] inline std::optional<double> percentile(std::vector<double> samples, double p) {
  if (samples_beyond(samples.size(), p) < kMinBeyond) return std::nullopt;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median by the same rule (used for set-up times repeated a few times in
/// one run, where the ten-beyond rule does not apply).
[[nodiscard]] inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), 0.5) - 1];
}

enum class Verdict : std::uint8_t { kOk, kInfeasible, kFailed };

/// Attempted/failed bookkeeping for one workload run.
struct Tally {
  /// Inputs whose failure is a documented, still-open program bug: their
  /// failures are listed in `failing` but not counted in `failed`.
  std::set<std::string> known_divergent;

  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t infeasible{0};
  std::uint64_t known_failures{0};
  /// Input name -> failures seen on it (known divergences included).
  std::map<std::string, std::uint64_t> failing;

  void record(const std::string& input, Verdict verdict) {
    ++attempted;
    if (verdict == Verdict::kInfeasible) ++infeasible;
    if (verdict != Verdict::kFailed) return;
    ++failing[input];
    if (known_divergent.contains(input)) {
      ++known_failures;
    } else {
      ++failed;
    }
  }
};

}  // namespace perfbench
