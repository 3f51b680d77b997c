// Heap allocations of one appdsl::parse_collect call and of the
// engine::make_input that follows it in a cold compile.
//
// The reader walks the text as views: it splits lines in place, tokenizes
// each into one reused vector of views, parses numbers from views and
// looks names up in one open-addressing table keyed by views into the
// text, and its own containers draw on a buffer inside the parser.  It
// builds straight into the ApplicationBuilder's flat staging (kernels,
// objects, input edges), and build() lays the adjacency out in three
// shared arrays.  It makes a std::string only where the Application, the
// partition or a Diagnostic keeps one, so a clean text costs the staging
// arrays' growth, the Application's arrays and each cluster's name list.
// make_input then costs the partition's id lists, the schedule's arrays
// and two shared owners; the digest allocates nothing.  This test pins
// both per text: the parse per line of it, make_input per text.
//
// It replaces the global operator new to count, so it is a test binary of
// its own; sanitizer builds that own the allocator leave it out.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "msys/appdsl/parser.hpp"
#include "msys/engine/job.hpp"
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
/// texts above take 0.97 per line on average, 1.44 at worst (table1:MPEG).
/// The reader that built per-kernel and per-object vectors and kept two
/// hash maps took 2.87 on average, 3.21 at worst; the string-per-token
/// reader before it 8.4-10.4.
constexpr double kAllocationsPerLineBound = 2.0;

/// Most heap blocks one make_input (kernel-name partition) may allocate.
/// The texts above take 12.7 on average, 16 at worst; with the byte-serial
/// digest's sort vectors and the schedule's growing arrays it was 24.3 and
/// 29.
constexpr std::uint64_t kMakeInputBound = 20;

/// Heap blocks `fn` allocates.
template <class Fn>
std::uint64_t allocations_of(Fn&& fn) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(ParseAllocations, ReaderStaysUnderThePerLineBound) {
  double worst = 0;
  std::string worst_text;
  std::uint64_t total = 0, total_lines = 0, make_input_total = 0, make_input_worst = 0;
  const auto all = texts();
  for (const auto& [name, text] : all) {
    std::uint64_t lines = 0;
    for (char c : text) lines += c == '\n' ? 1 : 0;
    ASSERT_GT(lines, 0u) << name;

    ParseResult result;
    const std::uint64_t allocations = allocations_of([&] { result = parse_collect(text); });
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

    ParsedExperiment& exp = *result.experiment;
    engine::CompileInput input;
    const std::uint64_t made = allocations_of([&] {
      input = engine::make_input(std::move(exp.app), exp.partition, exp.cfg);
    });
    EXPECT_LE(made, kMakeInputBound) << name;
    make_input_total += made;
    make_input_worst = std::max(make_input_worst, made);
  }
  std::cout << "parse allocations: " << total << " over " << total_lines
            << " lines; worst " << worst << " per line (" << worst_text << ")\n"
            << "make_input allocations: "
            << static_cast<double>(make_input_total) / static_cast<double>(all.size())
            << " per text; worst " << make_input_worst << "\n";
}

}  // namespace
}  // namespace msys::appdsl
