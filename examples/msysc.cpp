// msysc — a miniature command-line front end for the whole compilation
// flow: parse an application description, run the data schedulers, and
// simulate the generated programs.
//
//   $ ./build/examples/msysc examples/apps/demo.mapp
//   $ ./build/examples/msysc --emit examples/apps/demo.mapp    # dump DSL back
//   $ ./build/examples/msysc --timeline examples/apps/demo.mapp
//   $ ./build/examples/msysc --cross-set examples/apps/demo.mapp
//   $ ./build/examples/msysc --search examples/apps/demo.mapp  # ignore clusters,
//                                                              # let the search pick
//   $ ./build/examples/msysc --validate examples/apps/demo.mapp
//   $ ./build/examples/msysc --batch examples/apps -j 4        # every .mapp in
//                                                              # the dir, 4 workers
//   $ ./build/examples/msysc --batch examples/apps --store /tmp/msr
//                                       # persistent schedule store (crash-safe;
//                                       # a rerun is served from disk)
//   $ ./build/examples/msysc --batch examples/apps --deadline-ms 50 --retries 1
//                                       # per-job wall-clock budget + retry
//   $ ./build/examples/msysc --gen-trace /tmp/a.trace --trace-jobs 32
//                                       # deterministic arrival trace
//   $ ./build/examples/msysc --serve /tmp/a.trace --tenants 2 -j 2
//                                       # multi-tenant serving replay
//   $ ./build/examples/msysc --verify-store /tmp/msr           # fsck sweep
//   $ ./build/examples/msysc --trace out.json --stats examples/apps/demo.mapp
//                                       # Chrome-trace JSON + counter table
//
// All diagnostics go to stderr.  Exit codes:
//   0  success
//   1  usage error (bad flags, no input file)
//   2  the input did not parse (parser diagnostics on stderr)
//   3  the application does not fit the machine (structured infeasibility)
//      — a per-job deadline timeout lands here too: the job did not fit
//      its wall-clock budget, and that is data, not an internal error
//   4  internal invariant broken (validator violation, prediction mismatch)
//
// --batch compiles every file through the engine's BatchRunner (shared
// schedule cache, -j N worker threads), prints one summary table instead of
// interleaved per-file output, and exits with the worst per-file code.
// --results-out writes one canonical line per file; those bytes depend only
// on the inputs, never on -j, the cache tier or a degraded store.
//
// $MSYS_FAULTS (see msys/common/fault_injector.hpp) arms deterministic
// fault injection for smoke tests: store corruption, short writes, compile
// stalls.  A malformed spec is a usage error, never a silent no-op.
//
// The text format is documented in msys/appdsl/parser.hpp.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "msys/appdsl/parser.hpp"
#include "msys/codegen/program.hpp"
#include "msys/common/fault_injector.hpp"
#include "msys/common/strfmt.hpp"
#include "msys/common/table.hpp"
#include "msys/engine/batch_runner.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/obs/chrome_trace.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"
#include "msys/report/runner.hpp"
#include "msys/report/tables.hpp"
#include "msys/report/timeline.hpp"
#include "msys/search/anneal.hpp"
#include "msys/search/kernel_search.hpp"
#include "msys/serve/partition.hpp"
#include "msys/serve/serve_loop.hpp"
#include "msys/serve/trace_file.hpp"
#include "msys/store/disk_store.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitParse = 2;
constexpr int kExitInfeasible = 3;
constexpr int kExitInternal = 4;

/// Fault-tolerance knobs for --batch (all off by default).
struct BatchFtOptions {
  /// Persistent schedule store directory ("" => memory-only cache).
  std::string store_dir;
  /// Per-job wall-clock deadline in milliseconds (0 => none).
  int deadline_ms{0};
  /// Extra attempts for deadline-expired jobs.
  int retries{0};
  /// Canonical per-job result lines are written here when non-empty.
  std::string results_out;
};

/// Front-end product for one --batch file: an engine::Job when the file
/// parsed and a kernel schedule exists, else the structured early failure.
struct PreparedJob {
  /// Present iff the job reached the engine.
  std::optional<msys::engine::Job> job;
  int exit_code{kExitOk};
  std::string status{"ok"};
  /// Parse (or open) diagnostics when the front end failed.
  msys::Diagnostics diagnostics;
};

/// Parses the file at `path` and builds the engine job, mirroring the
/// single-file flow: explicit `cluster` lines win, otherwise the Kernel
/// Scheduler searches for a partition.
PreparedJob prepare_job(const std::string& path) {
  using namespace msys;
  PreparedJob prepared;
  appdsl::ParseResult parsed = appdsl::parse_file_collect(path);
  if (!parsed.ok()) {
    prepared.exit_code = kExitParse;
    prepared.status = "parse-error";
    prepared.diagnostics = std::move(parsed.diagnostics);
    return prepared;
  }
  std::vector<std::vector<KernelId>> partition;
  if (parsed.experiment->partition.empty()) {
    search::SearchResult found =
        search::find_best_schedule(parsed.experiment->app, parsed.experiment->cfg);
    if (!found.found()) {
      prepared.exit_code = kExitInfeasible;
      prepared.status = "no-schedule";
      return prepared;
    }
    for (const model::Cluster& c : found.best->clusters()) partition.push_back(c.kernels);
  } else {
    for (const std::vector<std::string>& cluster : parsed.experiment->partition) {
      std::vector<KernelId> ids;
      for (const std::string& kernel_name : cluster) {
        ids.push_back(*parsed.experiment->app.find_kernel(kernel_name));
      }
      partition.push_back(std::move(ids));
    }
  }
  engine::Job job;
  job.input = engine::make_input(std::move(parsed.experiment->app), std::move(partition),
                                 parsed.experiment->cfg);
  prepared.job = std::move(job);
  return prepared;
}

/// One file's row of the batch report.
struct ResultRecord {
  std::uint64_t index{0};
  /// Leaf filename (what the summary table shows).
  std::string name;
  std::string status{"ok"};
  int exit_code{kExitOk};
  std::string scheduler{"-"};
  std::string rf{"-"};
  std::string cycles{"-"};
  /// Run-dependent: which tier served the job ("hit"/"miss"/"disk", "-"
  /// when it never reached the engine).  Excluded from canonical_line.
  std::string cache{"-"};
  /// Rendered diagnostic lines (parse errors, infeasibility chain, ...).
  std::vector<std::string> diagnostics;
};

/// Fills status / exit code / scheduler / RF / cycles / diagnostics from an
/// engine result.
ResultRecord classify_result(std::uint64_t index, const std::string& path,
                             const msys::engine::JobResult& result) {
  using namespace msys;
  ResultRecord record;
  record.index = index;
  record.name = std::filesystem::path(path).filename().string();
  record.cache = result.tier == engine::CacheTier::kMemory
                     ? "hit"
                     : (result.tier == engine::CacheTier::kDisk ? "disk" : "miss");
  if (result.feasible()) {
    record.scheduler = result.result->outcome.chosen_rung();
    record.rf = std::to_string(result.result->outcome.schedule.rf);
    record.cycles = std::to_string(result.result->predicted.total.value());
  } else {
    const Diagnostics& diags = result.result->outcome.diagnostics;
    for (const Diagnostic& d : diags) record.diagnostics.push_back(d.to_string());
    if (result.cancelled()) {
      // The job did not fit its wall-clock budget: structured data, same
      // exit class as "does not fit the machine".
      record.exit_code = kExitInfeasible;
      record.status = result.result->outcome.cancel_cause == CancelCause::kDeadline
                          ? "timeout"
                          : "cancelled";
    } else {
      const bool internal =
          std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
            return d.code == "schedule.internal";
          });
      record.exit_code = internal ? kExitInternal : kExitInfeasible;
      record.status = internal ? "internal-error" : "infeasible";
    }
  }
  if (result.store_degraded) {
    // Run-dependent (so not part of the canonical line), but structured: a
    // store fault reads differently from infeasibility.
    record.diagnostics.push_back(
        make_warning("store.read.exhausted",
                     "store read retry budget exhausted for " + record.name +
                         "; result was recomputed (store degraded)")
            .to_string());
  }
  return record;
}

/// The record for a file that failed before reaching the engine.
ResultRecord classify_prepared_failure(std::uint64_t index, const std::string& path,
                                       const PreparedJob& prepared) {
  ResultRecord record;
  record.index = index;
  record.name = std::filesystem::path(path).filename().string();
  record.status = prepared.status;
  record.exit_code = prepared.exit_code;
  for (const msys::Diagnostic& d : prepared.diagnostics) {
    record.diagnostics.push_back(d.to_string());
  }
  return record;
}

/// The deterministic --results-out line: index, name, scheduler, RF,
/// cycles, status, exit code — tab-separated, newline-terminated.
std::string canonical_line(const ResultRecord& record) {
  std::ostringstream out;
  out << record.index << '\t' << record.name << '\t' << record.scheduler << '\t'
      << record.rf << '\t' << record.cycles << '\t' << record.status << '\t'
      << record.exit_code << '\n';
  return out.str();
}

/// Compiles every .mapp under `dir` on the in-process batch engine and
/// prints one File/Scheduler/RF/Cycles/Cache/Status summary table.  Returns
/// the worst per-file exit code (internal > infeasible > parse error > ok).
int run_batch(const std::string& dir, unsigned n_threads, const BatchFtOptions& ft) {
  namespace fs = std::filesystem;
  using namespace msys;

  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    std::cerr << "msysc: --batch " << dir << " is not a directory\n";
    return kExitUsage;
  }
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".mapp") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::cerr << "msysc: no .mapp files in " << dir << '\n';
    return kExitUsage;
  }

  std::vector<PreparedJob> prepared(paths.size());
  // Index into `jobs` when the file reached the engine, else -1.
  std::vector<int> job_index(paths.size(), -1);
  std::vector<engine::Job> jobs;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    prepared[i] = prepare_job(paths[i]);
    if (prepared[i].job.has_value()) {
      job_index[i] = static_cast<int>(jobs.size());
      jobs.push_back(std::move(*prepared[i].job));
    }
  }

  std::shared_ptr<store::DiskScheduleStore> disk;
  if (!ft.store_dir.empty()) {
    store::StoreConfig store_cfg;
    store_cfg.dir = ft.store_dir;
    std::string store_error;
    disk = store::DiskScheduleStore::open(store_cfg, &store_error);
    if (disk == nullptr) {
      std::cerr << "msysc: cannot open --store " << ft.store_dir << ": " << store_error
                << '\n';
      return kExitUsage;
    }
  }

  engine::ThreadPool pool(n_threads);
  engine::ScheduleCache cache(disk);
  engine::BatchRunner runner(pool, &cache);
  engine::RunOptions run_options;
  if (ft.deadline_ms > 0) {
    run_options.job_deadline = std::chrono::milliseconds(ft.deadline_ms);
  }
  run_options.retries = ft.retries;
  engine::BatchStats batch_stats;
  const std::vector<engine::JobResult> results =
      runner.run(jobs, run_options, &batch_stats);

  std::vector<ResultRecord> records;
  records.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (job_index[i] >= 0) {
      const auto& result = results[static_cast<std::size_t>(job_index[i])];
      records.push_back(classify_result(i, paths[i], result));
    } else {
      records.push_back(classify_prepared_failure(i, paths[i], prepared[i]));
    }
  }
  const engine::ScheduleCache::Stats cache_stats = cache.stats();
  std::cout << "batch: " << paths.size() << " files, " << pool.size()
            << " threads, cache " << cache_stats.hits << " hits / "
            << cache_stats.misses << " misses\n";
  std::cout << "batch: " << batch_stats.summary() << '\n';

  TextTable table({"File", "Scheduler", "RF", "Cycles", "Cache", "Status"});
  int worst = kExitOk;
  for (const ResultRecord& record : records) {
    if (!record.diagnostics.empty()) {
      std::cerr << paths[record.index] << ":\n";
      for (const std::string& line : record.diagnostics) std::cerr << line << '\n';
    }
    table.add_row({record.name, record.scheduler, record.rf, record.cycles, record.cache,
                   record.status + " (" + std::to_string(record.exit_code) + ")"});
    worst = std::max(worst, record.exit_code);
  }
  if (disk != nullptr) {
    const store::StoreStats ss = disk->stats();
    std::cout << "store: " << ss.hits << " hits / " << ss.misses << " misses, "
              << ss.saves << " saves (" << ss.save_failures << " failed), "
              << ss.quarantined << " quarantined, " << ss.retry_attempts
              << " retried ops; " << disk->entry_count() << " entries in "
              << ft.store_dir << '\n';
  }
  std::cout << '\n';
  table.print(std::cout);

  if (!ft.results_out.empty()) {
    std::ofstream out(ft.results_out, std::ios::binary);
    if (!out) {
      std::cerr << "msysc: cannot write --results-out " << ft.results_out << '\n';
      worst = std::max(worst, kExitUsage);
    } else {
      for (const ResultRecord& record : records) out << canonical_line(record);
    }
  }
  return worst;
}

/// --gen-trace: write a deterministic arrival trace (see
/// msys/serve/trace_file.hpp for the format and the generator's
/// integer-only Poisson-like sampling).
int run_gen_trace(const std::string& out_path, const msys::serve::TraceGenSpec& spec) {
  using namespace msys;
  const serve::TraceFile trace = serve::generate_trace(spec);
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::cerr << "msysc: cannot write --gen-trace " << out_path << '\n';
    return kExitUsage;
  }
  out << serve::write_trace(trace);
  std::cout << "gen-trace: " << trace.events.size() << " arrivals, seed " << spec.seed
            << ", " << spec.streams << " streams -> " << out_path << '\n';
  return kExitOk;
}

/// --serve: replay an arrival trace against an evenly partitioned machine
/// (see msys/serve/serve_loop.hpp).  The serving loop is an *open* system:
/// rejected/late/infeasible jobs are SLO data in the outcome records, not
/// process failures, so a run that processed its trace exits 0.  Only an
/// unreadable/malformed trace (parse) or an impossible partition (usage)
/// fails the process.
int run_serve(const std::string& trace_path, unsigned tenants, unsigned n_threads,
              const BatchFtOptions& ft, const std::string& serve_out,
              std::uint64_t shed_cycles, std::uint64_t degraded_cycles) {
  using namespace msys;
  std::ifstream in(trace_path, std::ios::binary);
  if (!in) {
    std::cerr << "msysc: cannot open --serve " << trace_path << '\n';
    return kExitUsage;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const serve::ParseTraceResult parsed = serve::parse_trace(text.str(), trace_path);
  if (!parsed.ok()) {
    std::cerr << render(parsed.diagnostics) << '\n';
    return kExitParse;
  }

  const arch::M1Config machine = arch::M1Config::m1_default();
  serve::TenantPartition::BuildResult built =
      serve::TenantPartition::build(machine, serve::TenantPartition::even_specs(machine, tenants));
  if (!built.ok()) {
    std::cerr << "msysc: cannot partition " << machine.name << " into " << tenants
              << " tenants:\n"
              << render(built.diagnostics) << '\n';
    return kExitUsage;
  }

  serve::ServeOptions options;
  options.threads = n_threads;
  options.shed_threshold_cycles = shed_cycles;
  options.degraded_threshold_cycles = degraded_cycles;
  if (ft.deadline_ms > 0) {
    options.compile_deadline = std::chrono::milliseconds(ft.deadline_ms);
  }
  if (!ft.store_dir.empty()) {
    store::StoreConfig store_cfg;
    store_cfg.dir = ft.store_dir;
    std::string store_error;
    options.store = store::DiskScheduleStore::open(store_cfg, &store_error);
    if (options.store == nullptr) {
      std::cerr << "msysc: cannot open --store " << ft.store_dir << ": " << store_error
                << '\n';
      return kExitUsage;
    }
  }

  try {
    serve::ServeLoop loop(std::move(*built.partition), options);
    std::cout << "machine: " << machine.summary() << '\n';
    std::cout << "partition:\n" << loop.partition().summary() << '\n';
    const serve::ServeReport report = loop.run(*parsed.trace);

    std::cout << "serve: " << report.stats.compile.summary() << '\n';
    std::cout << "serve: " << report.stats.summary() << "\n\n";
    TextTable table({"Tenant", "Jobs", "Done", "Rejected", "Shed", "Missed",
                     "Infeasible", "p50", "p99"});
    for (const serve::TenantStats& t : report.stats.tenants) {
      table.add_row({t.name, std::to_string(t.jobs), std::to_string(t.completed),
                     std::to_string(t.rejected), std::to_string(t.shed),
                     std::to_string(t.deadline_missed), std::to_string(t.infeasible),
                     std::to_string(t.p50_latency_cycles),
                     std::to_string(t.p99_latency_cycles)});
    }
    table.print(std::cout);

    if (!serve_out.empty()) {
      std::ofstream out(serve_out, std::ios::binary);
      if (!out) {
        std::cerr << "msysc: cannot write --serve-out " << serve_out << '\n';
        return kExitUsage;
      }
      for (const serve::JobOutcome& o : report.outcomes) {
        out << serve::canonical_outcome_line(o) << '\n';
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "msysc: internal error: " << e.what() << '\n';
    return kExitInternal;
  }
  return kExitOk;
}

/// --verify-store: full fsck sweep over a store directory.  Quarantining a
/// bad entry and removing stale temp files *is* the repair, so the sweep
/// itself exits 0 whenever it completed; only an unopenable directory is
/// an error.
int run_verify_store(const std::string& dir) {
  using namespace msys;
  store::StoreConfig store_cfg;
  store_cfg.dir = dir;
  std::string store_error;
  const std::unique_ptr<store::DiskScheduleStore> disk =
      store::DiskScheduleStore::open(store_cfg, &store_error);
  if (disk == nullptr) {
    std::cerr << "msysc: cannot open store " << dir << ": " << store_error << '\n';
    return kExitUsage;
  }
  const store::FsckReport report = disk->verify_store();
  std::cout << "verify-store " << dir << ": " << report.scanned << " scanned, "
            << report.valid << " valid, " << report.quarantined << " quarantined, "
            << report.removed_tmp << " temp files removed — "
            << (report.clean() ? "clean" : "repaired") << '\n';
  return kExitOk;
}

/// Options for the `--anneal` pass over a single file.
struct AnnealCliOptions {
  bool enabled{false};
  msys::search::AnnealOptions search;
};

/// Runs the annealing search above greedy CDS and prints the delta
/// summary.  Every printed field is deterministic (byte-identical across
/// -j values — scripts/check.sh byte-compares exactly this output).
void run_anneal(const msys::extract::ScheduleAnalysis& analysis,
                const msys::arch::M1Config& cfg, const AnnealCliOptions& opt,
                unsigned n_threads) {
  using namespace msys;
  engine::ThreadPool pool(n_threads);
  const search::AnnealResult r = search::anneal_schedule(analysis, cfg, opt.search, &pool);
  const std::string budget_str = std::to_string(opt.search.islands) + " islands x " +
                                 std::to_string(opt.search.budget) + " moves";
  if (!r.greedy.feasible || !r.greedy_predicted.feasible) {
    std::cout << "anneal: skipped (greedy CDS infeasible: "
              << (r.greedy.feasible ? r.greedy_predicted.infeasible_reason
                                    : r.greedy.infeasible_reason)
              << ")\n";
    return;
  }
  std::uint64_t accepted = 0;
  std::uint64_t priced = 0;
  std::uint64_t sim_rejects = 0;
  for (const search::IslandStats& s : r.islands) {
    accepted += s.accepted;
    priced += s.improvements;
    sim_rejects += s.sim_rejects;
  }
  if (r.improved) {
    const double pct = 100.0 * static_cast<double>(r.cycles_saved()) /
                       static_cast<double>(r.greedy_cycles());
    std::cout << "anneal: greedy " << r.greedy_cycles() << "c -> annealed "
              << r.annealed_cycles() << "c (saved " << r.cycles_saved() << "c, "
              << fixed(pct, 2) << "%), RF " << r.greedy.rf << "->" << r.schedule.rf
              << ", retained " << r.greedy.retained.size() << "->"
              << r.schedule.retained.size() << ", clusters "
              << analysis.sched().cluster_count() << "->"
              << r.schedule.sched->cluster_count() << ", winner island "
              << r.winner_island << '\n';
  } else {
    std::cout << "anneal: no improvement (greedy " << r.greedy_cycles() << "c"
              << (r.cancelled ? ", cancelled" : "") << ")\n";
  }
  std::cout << "anneal: " << budget_str << ", " << accepted << " accepted, " << priced
            << " improvements priced, " << sim_rejects << " sim rejects\n";
}

/// Single-file flow: parse, schedule with Basic, DS and CDS, simulate, and
/// print the requested reports.
int run_single(const std::string& path, bool emit, bool timeline, bool cross_set,
               bool search, bool validate,
               const AnnealCliOptions& anneal, unsigned n_threads) {
  using namespace msys;
  try {
    appdsl::ParseResult parse_result = appdsl::parse_file_collect(path);
    if (!parse_result.ok()) {
      std::cerr << render(parse_result.diagnostics) << '\n';
      return kExitParse;
    }
    appdsl::ParsedExperiment& parsed = *parse_result.experiment;
    if (emit) {
      std::cout << appdsl::write(parsed.app, parsed.partition, parsed.cfg);
      return kExitOk;
    }

    if (cross_set) parsed.cfg = parsed.cfg.with_cross_set_reads(true);
    std::cout << "machine: " << parsed.cfg.summary() << '\n';
    if (parsed.partition.empty() || search) {
      // No cluster lines: let the Kernel Scheduler find one.
      std::cout << "no schedule in file; searching...\n";
      search::SearchResult found = search::find_best_schedule(parsed.app, parsed.cfg);
      if (!found.found()) {
        std::cerr << "msysc: no feasible kernel schedule on this machine\n";
        return kExitInfeasible;
      }
      std::cout << "picked: " << found.best->summary() << "\n\n";
      report::ExperimentResult r =
          report::run_experiment(parsed.app.name(), *found.best, parsed.cfg);
      report::detail_table({r}).print(std::cout);
      if (anneal.enabled) {
        const extract::ScheduleAnalysis found_analysis(*found.best,
                                                       parsed.cfg.cross_set_reads);
        std::cout << '\n';
        run_anneal(found_analysis, parsed.cfg, anneal, n_threads);
      }
      return kExitOk;
    }

    model::KernelSchedule sched = parsed.schedule();
    std::cout << "schedule: " << sched.summary() << "\n\n";
    extract::ScheduleAnalysis analysis(sched, parsed.cfg.cross_set_reads);
    std::cout << analysis.summary() << '\n';

    // The CDS job decides feasibility; its one-rung chain names the cluster
    // that does not fit.
    report::ExperimentResult r =
        report::run_experiment(parsed.app.name(), sched, parsed.cfg);
    const dsched::ScheduleOutcome& chain = r.cds.outcome();
    std::cout << "fallback chain: " << chain.chain_summary() << '\n';
    if (!r.cds.feasible()) {
      std::cerr << "msysc: application does not fit this machine:\n"
                << render(chain.diagnostics) << '\n';
      return kExitInfeasible;
    }
    std::cout << "scheduled by: " << chain.chosen_rung() << "\n\n";
    report::detail_table({r}).print(std::cout);
    if (r.ds_improvement()) {
      std::cout << "\nDS  improvement over Basic: " << percent(*r.ds_improvement());
      std::cout << "\nCDS improvement over Basic: " << percent(*r.cds_improvement())
                << '\n';
    }
    if (validate) {
      // run_experiment ran every feasible plan through sim::cross_check,
      // which throws (exit 4) on a validator violation; report the verdicts.
      for (const report::SchedulerOutcome* o : {&r.basic, &r.ds, &r.cds}) {
        std::cout << "validate: " << o->scheduler << ": "
                  << (o->feasible() ? "clean" : "skipped (infeasible)") << '\n';
      }
    }
    if (timeline && r.cds.feasible()) {
      const csched::ContextPlan plan = csched::ContextPlan::build(
          *r.cds.result->input.sched, parsed.cfg.cm_capacity_words);
      codegen::ScheduleProgram program = codegen::generate(r.cds.schedule(), plan);
      std::cout << "\nCDS execution timeline:\n"
                << report::render_timeline(program, parsed.cfg, plan);
    }
    if (anneal.enabled) {
      std::cout << '\n';
      run_anneal(analysis, parsed.cfg, anneal, n_threads);
    }
  } catch (const std::exception& e) {
    // Anything that escapes to here is a broken internal invariant, not a
    // bad input: bad inputs surface as parse or infeasibility diagnostics.
    std::cerr << "msysc: internal error: " << e.what() << '\n';
    return kExitInternal;
  }
  return kExitOk;
}

/// Prints every counter and gauge in `delta` as a two-column table.
void print_stats(const msys::obs::MetricsSnapshot& delta) {
  msys::TextTable table({"Metric", "Value"});
  for (const auto& [name, value] : delta.counters) {
    table.add_row({name, std::to_string(value)});
  }
  for (const auto& [name, value] : delta.gauges) {
    table.add_row({name + " (gauge)", std::to_string(value)});
  }
  std::cout << "\nobservability counters (this run):\n";
  if (delta.empty()) {
    std::cout << "  (none)\n";
    return;
  }
  table.print(std::cout);
}

/// `-j` must be a positive base-10 integer (std::stoi would accept "4abc").
bool parse_thread_count(const std::string& value, unsigned* out) {
  int n = 0;
  if (!msys::parse_int(value, n) || n < 1) return false;
  *out = static_cast<unsigned>(n);
  return true;
}

/// Strict non-negative integer for --deadline-ms / --retries (0 allowed —
/// it means "off").
bool parse_nonneg(const std::string& value, int* out) {
  int n = 0;
  if (!msys::parse_int(value, n) || n < 0) return false;
  *out = n;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msys;

  // Arm deterministic fault injection from $MSYS_FAULTS before any work:
  // a malformed spec is a usage error, never a silently disarmed run.
  if (std::string fault_error; !FaultInjector::arm_global_from_env(&fault_error)) {
    std::cerr << "msysc: bad MSYS_FAULTS: " << fault_error << '\n';
    return kExitUsage;
  }

  bool emit = false;
  bool timeline = false;
  bool cross_set = false;
  bool search = false;
  bool validate = false;
  bool stats = false;
  std::string trace_path;
  std::string batch_dir;
  std::string verify_store_dir;
  std::string serve_trace;
  std::string serve_out;
  std::string gen_trace_out;
  std::uint64_t shed_cycles = 0;
  std::uint64_t degraded_cycles = 0;
  unsigned tenants = 1;
  serve::TraceGenSpec gen_spec;
  AnnealCliOptions anneal;
  BatchFtOptions ft;
  unsigned n_threads = 1;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--emit") {
      emit = true;
    } else if (arg == "--timeline") {
      timeline = true;
    } else if (arg == "--cross-set") {
      cross_set = true;
    } else if (arg == "--search") {
      search = true;
    } else if (arg == "--validate") {
      validate = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--anneal") {
      anneal.enabled = true;
    } else if (arg == "--anneal-budget") {
      unsigned v = 0;
      if (i + 1 >= argc || !parse_thread_count(argv[i + 1], &v)) {
        std::cerr << "msysc: --anneal-budget needs a positive integer\n";
        return kExitUsage;
      }
      anneal.search.budget = v;
      ++i;
    } else if (arg == "--anneal-islands") {
      unsigned v = 0;
      if (i + 1 >= argc || !parse_thread_count(argv[i + 1], &v)) {
        std::cerr << "msysc: --anneal-islands needs a positive integer\n";
        return kExitUsage;
      }
      anneal.search.islands = v;
      ++i;
    } else if (arg == "--trace") {
      if (i + 1 >= argc) {
        std::cerr << "msysc: --trace needs an output file\n";
        return kExitUsage;
      }
      trace_path = argv[++i];
    } else if (arg == "--batch") {
      if (i + 1 >= argc) {
        std::cerr << "msysc: --batch needs a directory\n";
        return kExitUsage;
      }
      batch_dir = argv[++i];
    } else if (arg == "--store") {
      if (i + 1 >= argc) {
        std::cerr << "msysc: --store needs a directory\n";
        return kExitUsage;
      }
      ft.store_dir = argv[++i];
    } else if (arg == "--verify-store") {
      if (i + 1 >= argc) {
        std::cerr << "msysc: --verify-store needs a directory\n";
        return kExitUsage;
      }
      verify_store_dir = argv[++i];
    } else if (arg == "--results-out") {
      if (i + 1 >= argc) {
        std::cerr << "msysc: --results-out needs a file\n";
        return kExitUsage;
      }
      ft.results_out = argv[++i];
    } else if (arg == "--deadline-ms") {
      if (i + 1 >= argc || !parse_nonneg(argv[i + 1], &ft.deadline_ms)) {
        std::cerr << "msysc: --deadline-ms needs a non-negative integer\n";
        return kExitUsage;
      }
      ++i;
    } else if (arg == "--serve") {
      if (i + 1 >= argc) {
        std::cerr << "msysc: --serve needs a .trace file\n";
        return kExitUsage;
      }
      serve_trace = argv[++i];
    } else if (arg == "--serve-out") {
      if (i + 1 >= argc) {
        std::cerr << "msysc: --serve-out needs a file\n";
        return kExitUsage;
      }
      serve_out = argv[++i];
    } else if (arg == "--shed-cycles") {
      if (i + 1 >= argc || !parse_int(argv[i + 1], shed_cycles)) {
        std::cerr << "msysc: --shed-cycles needs a non-negative integer (cycles)\n";
        return kExitUsage;
      }
      ++i;
    } else if (arg == "--degraded-cycles") {
      if (i + 1 >= argc || !parse_int(argv[i + 1], degraded_cycles)) {
        std::cerr << "msysc: --degraded-cycles needs a non-negative integer (cycles)\n";
        return kExitUsage;
      }
      ++i;
    } else if (arg == "--tenants") {
      if (i + 1 >= argc || !parse_thread_count(argv[i + 1], &tenants)) {
        std::cerr << "msysc: --tenants needs a positive integer\n";
        return kExitUsage;
      }
      ++i;
    } else if (arg == "--gen-trace") {
      if (i + 1 >= argc) {
        std::cerr << "msysc: --gen-trace needs an output file\n";
        return kExitUsage;
      }
      gen_trace_out = argv[++i];
    } else if (arg == "--seed") {
      if (i + 1 >= argc || !parse_int(argv[i + 1], gen_spec.seed)) {
        std::cerr << "msysc: --seed needs a non-negative integer\n";
        return kExitUsage;
      }
      anneal.search.seed = gen_spec.seed;
      ++i;
    } else if (arg == "--trace-jobs") {
      int v = 0;
      if (i + 1 >= argc || !parse_nonneg(argv[i + 1], &v) || v < 1) {
        std::cerr << "msysc: --trace-jobs needs a positive integer\n";
        return kExitUsage;
      }
      gen_spec.jobs = static_cast<unsigned>(v);
      ++i;
    } else if (arg == "--streams") {
      int v = 0;
      if (i + 1 >= argc || !parse_nonneg(argv[i + 1], &v) || v < 1) {
        std::cerr << "msysc: --streams needs a positive integer\n";
        return kExitUsage;
      }
      gen_spec.streams = static_cast<unsigned>(v);
      ++i;
    } else if (arg == "--mean-gap") {
      if (i + 1 >= argc || !parse_int(argv[i + 1], gen_spec.mean_gap_cycles)) {
        std::cerr << "msysc: --mean-gap needs a non-negative integer (cycles)\n";
        return kExitUsage;
      }
      ++i;
    } else if (arg == "--deadline-cycles") {
      if (i + 1 >= argc || !parse_int(argv[i + 1], gen_spec.deadline_cycles)) {
        std::cerr << "msysc: --deadline-cycles needs a non-negative integer\n";
        return kExitUsage;
      }
      ++i;
    } else if (arg == "--retries") {
      if (i + 1 >= argc || !parse_nonneg(argv[i + 1], &ft.retries)) {
        std::cerr << "msysc: --retries needs a non-negative integer\n";
        return kExitUsage;
      }
      ++i;
    } else if (arg == "-j") {
      if (i + 1 >= argc) {
        std::cerr << "msysc: -j needs a thread count\n";
        return kExitUsage;
      }
      if (!parse_thread_count(argv[++i], &n_threads)) {
        std::cerr << "msysc: bad -j value '" << argv[i]
                  << "' (want a positive integer)\n";
        return kExitUsage;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "msysc: unknown flag " << arg << "\n";
      return kExitUsage;
    } else {
      path = arg;
    }
  }
  if (!verify_store_dir.empty()) {
    return run_verify_store(verify_store_dir);
  }
  if (!gen_trace_out.empty()) {
    return run_gen_trace(gen_trace_out, gen_spec);
  }
  if (batch_dir.empty() && path.empty() && serve_trace.empty()) {
    std::cerr << "usage: msysc [--emit|--timeline|--cross-set|--search|--validate]"
                 " [--trace out.json] [--stats]\n"
                 "             [--anneal [--anneal-budget N] [--anneal-islands N] "
                 "[--seed N] [-j N]] <file.mapp>\n"
                 "       msysc --batch <dir> [-j N] [--store dir] [--deadline-ms N]\n"
                 "             [--retries N] [--results-out file] [--trace out.json]\n"
                 "             [--stats]\n"
                 "       msysc --verify-store <dir>\n"
                 "       msysc --serve <file.trace> [--tenants N] [-j N]\n"
                 "             [--deadline-ms N] [--store dir] [--serve-out file]\n"
                 "             [--shed-cycles N] [--degraded-cycles N]\n"
                 "       msysc --gen-trace <out.trace> [--seed N] [--trace-jobs N]\n"
                 "             [--streams N] [--mean-gap cycles] "
                 "[--deadline-cycles N]\n";
    return kExitUsage;
  }

  // Observability bracket around the whole run: the counter delta and the
  // trace cover exactly the work this invocation did.
  const obs::MetricsSnapshot before = obs::snapshot();
  std::optional<obs::TraceRecorder> recorder;
  std::optional<obs::TraceSession> session;
  if (!trace_path.empty()) {
    recorder.emplace();
    session.emplace(*recorder);
  }

  int code;
  if (!serve_trace.empty()) {
    code = run_serve(serve_trace, tenants, n_threads, ft, serve_out, shed_cycles,
                     degraded_cycles);
  } else if (!batch_dir.empty()) {
    try {
      code = run_batch(batch_dir, n_threads, ft);
    } catch (const std::exception& e) {
      std::cerr << "msysc: internal error: " << e.what() << '\n';
      code = kExitInternal;
    }
  } else {
    code = run_single(path, emit, timeline, cross_set, search, validate, anneal, n_threads);
  }

  session.reset();  // stop recording before exporting
  const obs::MetricsSnapshot delta = obs::snapshot().since(before);
  if (recorder) {
    std::ofstream out(trace_path, std::ios::binary);
    if (!out) {
      std::cerr << "msysc: cannot write trace to " << trace_path << '\n';
      code = std::max(code, kExitUsage);
    } else {
      obs::write_chrome_trace(out, *recorder, &delta);
      std::cerr << "msysc: wrote " << recorder->event_count() << " trace events to "
                << trace_path << '\n';
    }
  }
  if (stats) print_stats(delta);
  return code;
}
