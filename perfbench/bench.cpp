#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (i + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z >> 24;
}

std::vector<std::uint64_t> draw_seeds(std::uint64_t seed,
                                      const msys::workloads::RandomSpec& spec,
                                      std::uint64_t lo, std::uint64_t hi,
                                      const std::set<std::uint64_t>& exclude,
                                      std::size_t count) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pool;  // (size, seed)
  for (std::uint64_t s = lo; s < hi; ++s) {
    if (exclude.contains(s)) continue;
    msys::workloads::RandomSpec one = spec;
    one.seed = s;
    const msys::workloads::RandomExperiment exp = msys::workloads::make_random(one);
    pool.emplace_back(exp.app->kernel_count() * exp.app->total_iterations(), s);
  }
  std::sort(pool.begin(), pool.end());
  count = std::min(count, pool.size());
  std::vector<std::uint64_t> out;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t begin = k * pool.size() / count;
    const std::size_t end = (k + 1) * pool.size() / count;
    out.push_back(pool[begin + derive_seed(seed, k) % (end - begin)].second);
  }
  return out;
}

std::vector<std::vector<std::string>> partition_names(
    const msys::model::KernelSchedule& sched) {
  std::vector<std::vector<std::string>> out;
  for (const msys::model::Cluster& c : sched.clusters()) {
    std::vector<std::string> names;
    for (msys::KernelId id : c.kernels) names.push_back(sched.app().kernel(id).name);
    out.push_back(std::move(names));
  }
  return out;
}

void Fingerprint::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  h_ ^= 0xff;  // field separator
  h_ *= 0x100000001b3ULL;
}

void Fingerprint::add(std::uint64_t value) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(value));
  add(std::string_view(buf, static_cast<std::size_t>(n)));
}

std::string Fingerprint::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

SpeedReference::SpeedReference() : next_(1u << 18) {
  // Sattolo's shuffle with a fixed LCG: one cycle through every slot.
  std::iota(next_.begin(), next_.end(), 0u);
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(next_[i], next_[(x >> 33) % i]);
  }
}

void SpeedReference::sample_if_due() {
  if (ms_.empty() || Clock::now() - last_ >= kSampleInterval) sample();
}

void SpeedReference::sample() {
  const auto t0 = Clock::now();
  std::uint32_t at = 0;
  for (int k = 0; k < 40000; ++k) at = next_[at];
  std::uint64_t h = at;
  for (std::uint64_t k = 0; k < 200000; ++k) h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL + k;
  std::map<std::uint64_t, std::string> m;
  for (std::uint64_t k = 0; k < 1500; ++k) m.emplace((h + k * 0x9e3779b9ULL) % 100003, "x");
  h += m.size();
  std::vector<std::vector<std::uint32_t>> blocks;
  for (std::uint32_t k = 0; k < 1500; ++k) blocks.emplace_back(k % 64 + 1, k);
  sink_ ^= h + blocks.size();
  const auto t1 = Clock::now();
  last_ = t1;
  ms_.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
}

double SpeedReference::scale() const {
  return ms_.empty() ? 1.0 : kReferenceMs / median(ms_);
}

std::vector<double> Measurement::latency_ms(const SpeedReference& speed) const {
  std::vector<double> out = raw_ms;
  for (double& v : out) v *= speed.scale();
  return out;
}

SpanStat SpanCollector::operator[](const std::string& name) const {
  const auto it = stats_.find(name);
  return it == stats_.end() ? SpanStat{} : it->second;
}

void SpanCollector::absorb(const std::vector<msys::obs::TraceEvent>& events) {
  struct Open {
    const msys::obs::TraceEvent* event;
    std::uint64_t end;
    std::uint64_t children{0};
  };
  std::vector<const msys::obs::TraceEvent*> spans;
  for (const msys::obs::TraceEvent& e : events) {
    if (e.phase == 'X' && !e.sim_time) spans.push_back(&e);
  }
  // Parents before children: by thread, start time, then longest first.
  std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->ts != b->ts) return a->ts < b->ts;
    return a->dur > b->dur;
  });
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    SpanStat& s = stats_[o.event->name];
    ++s.count;
    s.total_us += static_cast<double>(o.event->dur) / 1000.0;
    s.self_us += static_cast<double>(o.event->dur - std::min(o.children, o.event->dur)) / 1000.0;
  };
  for (const auto* e : spans) {
    while (!stack.empty() &&
           (stack.back().event->tid != e->tid || stack.back().end <= e->ts)) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().children += e->dur;
    stack.push_back({e, e->ts + e->dur});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
}

}  // namespace perfbench
