#include "msys/common/fault_injector.hpp"

#include <cstdlib>
#include <utility>
#include <vector>

#include "msys/common/hash.hpp"
#include "msys/common/strfmt.hpp"

namespace msys {

void FaultInjector::arm(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  sites_.clear();
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::set_site(std::string site, SiteSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spec.den == 0) spec.den = 1;
  sites_[std::move(site)] = Site{spec, 0, 0};
}

void FaultInjector::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_relaxed);
  sites_.clear();
}

bool FaultInjector::should_fail(std::string_view site) {
  // fire_param reports a firing with no magnitude as 1, so 0 always means
  // "did not fire".
  return fire_param(site) != 0;
}

std::uint64_t FaultInjector::fire_param(std::string_view site) {
  if (!armed_.load(std::memory_order_relaxed)) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sites_.find(site);
  if (it == sites_.end()) return 0;
  Site& s = it->second;
  const std::uint64_t n = s.occurrences++;
  const std::uint64_t draw = hash_of(seed_, std::string_view(it->first), n);
  if (draw % s.spec.den >= s.spec.num) return 0;
  ++s.injected;
  // A firing with no magnitude still reports 1 so boolean call sites
  // (should_fail) see it; param-consuming sites always arm a param.
  return s.spec.param == 0 ? 1 : s.spec.param;
}

std::uint64_t FaultInjector::injected_count(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.injected;
}

std::uint64_t FaultInjector::total_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [name, site] : sites_) total += site.injected;
  return total;
}

bool FaultInjector::arm_from_spec(std::string_view spec, std::string* error) {
  auto fail = [&](const std::string& why) {
    disarm();
    if (error != nullptr) *error = why;
    return false;
  };

  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, SiteSpec>> parsed;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t end = std::min(spec.find(';', pos), spec.size());
    const std::string_view directive = spec.substr(pos, end - pos);
    pos = end + 1;
    if (directive.empty()) continue;
    const std::size_t eq = directive.find('=');
    if (eq == std::string_view::npos) {
      return fail("directive without '=': " + std::string(directive));
    }
    const std::string_view key = directive.substr(0, eq);
    std::string_view value = directive.substr(eq + 1);
    if (key == "seed") {
      if (!parse_int(value, seed)) {
        return fail("bad seed: " + std::string(value));
      }
      continue;
    }
    SiteSpec site;
    const std::size_t colon = value.find(':');
    if (colon != std::string_view::npos) {
      if (!parse_int(value.substr(colon + 1), site.param)) {
        return fail("bad param for " + std::string(key));
      }
      value = value.substr(0, colon);
    }
    if (value == "always") {
      site.num = site.den = 1;
    } else if (value == "never") {
      site.num = 0;
      site.den = 1;
    } else {
      const std::size_t slash = value.find('/');
      if (slash == std::string_view::npos ||
          !parse_int(value.substr(0, slash), site.num) ||
          !parse_int(value.substr(slash + 1), site.den) || site.den == 0) {
        return fail("bad rate for " + std::string(key) + " (want num/den, always or never)");
      }
    }
    parsed.emplace_back(std::string(key), site);
  }

  if (parsed.empty() && seed == 0 && spec.empty()) {
    disarm();
    return true;
  }
  arm(seed);
  for (auto& [name, site] : parsed) set_site(std::move(name), site);
  return true;
}

FaultInjector& FaultInjector::global() {
  static FaultInjector injector;
  return injector;
}

bool FaultInjector::arm_global_from_env(std::string* error) {
  const char* spec = std::getenv("MSYS_FAULTS");
  if (spec == nullptr) return true;
  return global().arm_from_spec(spec, error);
}

}  // namespace msys
