// Heap allocations of one appdsl::parse_collect call.
//
// The reader walks the text as views: it splits lines in place, tokenizes
// each into one reused vector of views, parses numbers from views and
// looks names up in maps keyed by views into the text, and its own
// containers draw on a buffer inside the parser.  It makes a std::string
// only where the Application, the partition or a Diagnostic keeps one, so
// a clean text costs about the parsed model's own blocks: the data and
// kernel arrays, each kernel's input and output lists, each object's
// consumer list and each cluster's name list.  A reader that copies the
// text into a stream, makes a string per token and a vector per line and
// keys its maps by strings allocates about three times as many.  This
// test pins the bound per text, per line of it.
//
// It replaces the global operator new to count, so it is a test binary of
// its own; sanitizer builds that own the allocator leave it out.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "msys/appdsl/parser.hpp"
#include "msys/workloads/experiments.hpp"
#include "msys/workloads/random.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Out of line, so the compiler never pairs the free() with a visible new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}

namespace msys::appdsl {
namespace {

std::vector<std::vector<std::string>> partition_names(const model::KernelSchedule& sched) {
  std::vector<std::vector<std::string>> partition;
  for (const model::Cluster& c : sched.clusters()) {
    std::vector<std::string> names;
    for (KernelId k : c.kernels) names.push_back(sched.app().kernel(k).name);
    partition.push_back(std::move(names));
  }
  return partition;
}

/// (name, text): the Table-1 rows and cold-compile-shaped family texts
/// (8-14 kernels, 8-32 iterations, 60% reuse, 3 shared inputs, every
/// fourth at half the FB), each as appdsl::write emits it.
std::vector<std::pair<std::string, std::string>> texts() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& name : workloads::table1_experiment_names()) {
    const workloads::Experiment exp = workloads::make_experiment(name);
    out.emplace_back("table1:" + name, write(*exp.app, partition_names(exp.sched), exp.cfg));
  }
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    workloads::RandomSpec spec;
    spec.seed = seed;
    spec.min_kernels = 8;
    spec.max_kernels = 14;
    spec.min_iterations = 8;
    spec.max_iterations = 32;
    spec.reuse_percent = 60;
    spec.shared_inputs = 3;
    if (seed % 4 == 3) spec.fb_scale_percent = 50;
    const workloads::RandomExperiment exp = workloads::make_random(spec);
    out.emplace_back("family:" + std::to_string(seed),
                     write(*exp.app, partition_names(exp.sched), exp.cfg));
  }
  return out;
}

/// Most heap blocks one parse_collect may allocate per line of text.  The
/// texts above take 2.4-3.2 per line (72-133 per family text); the
/// string-per-token reader took 8.4-10.4 (242-435 per family text).
constexpr double kAllocationsPerLineBound = 4.0;

TEST(ParseAllocations, ReaderStaysUnderThePerLineBound) {
  double worst = 0;
  std::string worst_text;
  std::uint64_t total = 0, total_lines = 0;
  for (const auto& [name, text] : texts()) {
    std::uint64_t lines = 0;
    for (char c : text) lines += c == '\n' ? 1 : 0;
    ASSERT_GT(lines, 0u) << name;

    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    ParseResult result = parse_collect(text);
    g_counting.store(false, std::memory_order_relaxed);
    const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed);

    ASSERT_TRUE(result.ok()) << name << '\n' << render(result.diagnostics);
    const double per_line = static_cast<double>(allocations) / static_cast<double>(lines);
    EXPECT_LE(per_line, kAllocationsPerLineBound)
        << name << ": " << allocations << " allocations over " << lines << " lines";
    total += allocations;
    total_lines += lines;
    if (per_line > worst) {
      worst = per_line;
      worst_text = name;
    }
  }
  std::cout << "parse allocations: " << total << " over " << total_lines
            << " lines; worst " << worst << " per line (" << worst_text << ")\n";
}

}  // namespace
}  // namespace msys::appdsl
