#include "msys/sim/simulator.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "msys/common/error.hpp"
#include "msys/common/strfmt.hpp"
#include "msys/dsched/schedule_types.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"

namespace msys::sim {

using codegen::Op;
using codegen::OpKind;
using codegen::ScheduleProgram;
using dsched::DataSchedule;
using dsched::ObjInstance;
using dsched::Placement;

namespace {

constexpr std::size_t kNone = SIZE_MAX;

/// A timed op plus the timestamps the timing pass assigned.
struct TimedOp {
  const Op* op;
  Cycles start{};
  Cycles end{};
};

/// Functional-pass event phases: at equal timestamps removals apply first,
/// then insertions, then checks.
enum Phase : std::uint8_t { kRemove = 0, kInsert = 1, kCheck = 2 };

struct Event {  // 16 bytes: the largest transient buffer of a run
  Cycles time;
  std::uint32_t seq;  // index of the op's TimedOp; stable order within a phase
  Phase phase;
};

/// The total event order: (time, phase, seq).
bool before(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.phase != b.phase) return a.phase < b.phase;
  return a.seq < b.seq;
}

/// Events of the RC-array kinds (executions and releases) form one stream,
/// every other kind the DMA stream.
bool rc_kind(OpKind kind) { return kind == OpKind::kExec || kind == OpKind::kRelease; }

/// Number of functional-pass events an op emits (see write_events).
std::size_t event_count(const Op& op) {
  switch (op.kind) {
    case OpKind::kRelease:
    case OpKind::kLoadContext: return 1;
    case OpKind::kStoreData: return op.release_after_store ? 3 : 2;
    case OpKind::kLoadData:
    case OpKind::kExec: return 2;
  }
  return 0;
}

/// Writes an op's events, in emission order, to `out`; returns their count.
std::size_t write_events(const TimedOp& t, std::uint32_t seq, Event* out) {
  switch (t.op->kind) {
    case OpKind::kLoadData:
      out[0] = {t.start, seq, kCheck};   // external availability
      out[1] = {t.start, seq, kInsert};  // FB words occupied
      return 2;
    case OpKind::kExec:
      out[0] = {t.start, seq, kCheck};   // inputs + contexts
      out[1] = {t.start, seq, kInsert};  // outputs appear
      return 2;
    case OpKind::kStoreData:
      out[0] = {t.start, seq, kCheck};  // instance resident
      out[1] = {t.end, seq, kInsert};   // reaches external memory
      if (!t.op->release_after_store) return 2;
      out[2] = {t.end, seq, kRemove};
      return 3;
    case OpKind::kRelease:
      out[0] = {t.start, seq, kRemove};
      return 1;
    case OpKind::kLoadContext:
      out[0] = {t.end, seq, kInsert};
      return 1;
  }
  return 0;
}

/// The buffers a run needs in proportion to its program.  Callers build a
/// fresh Simulator per check, so the buffers live per thread, not per
/// Simulator: a run takes the thread's spare set and hands it back when it
/// returns, so back-to-back runs on a thread reuse their capacity.  A run
/// started inside another (from a trace callback) finds no spare and
/// allocates its own; a run that throws frees its set.
struct RunBuffers {
  std::vector<TimedOp> timed;
  /// Grown, never shrunk: a run uses a prefix, so reuse writes no filler.
  std::vector<Event> events;
  /// Dense placement index: (cluster, data, iter) -> placement or null.
  std::vector<const Placement*> placements;
};
thread_local RunBuffers spare_buffers;

/// Functional FB-set state: a word bitset of occupied words, checked and
/// marked with 64-bit masks, plus the extents each resident instance holds
/// (a pointer into the schedule's placement), indexed densely by instance.
class FbState {
 public:
  FbState(SizeWords capacity, std::size_t instances)
      : capacity_(capacity),
        words_((capacity.value() + 63) / 64, 0),
        resident_(instances, nullptr) {}

  /// `what` builds the failure description; it runs only on failure.
  /// Every extent is checked before any is marked, so an instance's own
  /// extents are never compared with each other.
  template <class Describe>
  void insert(std::size_t inst, const std::vector<Extent>& extents, const Describe& what) {
    MSYS_REQUIRE(resident_[inst] == nullptr, "instance already resident: " + what());
    for (const Extent& e : extents) {
      MSYS_REQUIRE(e.begin() <= e.end() && e.end() <= capacity_.value(),
                   "placement out of range: " + what());
      MSYS_REQUIRE(!collides(e), "FB words doubly occupied: " + what());
    }
    for (const Extent& e : extents) {
      if (e.empty()) {
        ++empty_extents_;
      } else {
        mark(e, true);
      }
    }
    used_ += total_size(extents).value();
    peak_ = std::max(peak_, used_);
    resident_[inst] = &extents;
  }

  template <class Describe>
  void remove(std::size_t inst, const Describe& what) {
    const std::vector<Extent>* extents = resident_[inst];
    MSYS_REQUIRE(extents != nullptr, "releasing a non-resident instance: " + what());
    for (const Extent& e : *extents) {
      if (e.empty()) {
        --empty_extents_;
      } else {
        mark(e, false);
      }
    }
    used_ -= total_size(*extents).value();
    resident_[inst] = nullptr;
  }

  [[nodiscard]] bool resident(std::size_t inst) const { return resident_[inst] != nullptr; }
  /// The lowest resident instance, or the instance count when none is.
  [[nodiscard]] std::size_t first_resident() const {
    return static_cast<std::size_t>(
        std::find_if(resident_.begin(), resident_.end(), [](const auto* e) { return e; }) -
        resident_.begin());
  }
  [[nodiscard]] std::uint64_t peak_words() const { return peak_; }

 private:
  /// Extent::overlaps against every resident extent.  Set bits are exactly
  /// the words of resident non-empty extents, which decides every pair of
  /// non-empty extents.  An empty extent covers no word yet overlaps an
  /// extent that strictly contains its address, so while one is involved
  /// on either side the pairwise rule is applied directly.
  [[nodiscard]] bool collides(const Extent& e) const {
    if (e.empty() || empty_extents_ > 0) {
      for (const std::vector<Extent>* other : resident_) {
        if (other == nullptr) continue;
        for (const Extent& o : *other) {
          if (e.overlaps(o)) return true;
        }
      }
      return false;
    }
    return for_each_chunk(e, [&](std::size_t w, std::uint64_t mask) {
      return (words_[w] & mask) != 0;
    });
  }

  /// Sets (or clears) the bits of a non-empty, in-range extent.
  void mark(const Extent& e, bool occupied) {
    for_each_chunk(e, [&](std::size_t w, std::uint64_t mask) {
      words_[w] = occupied ? (words_[w] | mask) : (words_[w] & ~mask);
      return false;
    });
  }

  /// Calls fn(word, mask) for each 64-bit word a non-empty, in-range extent
  /// touches, `mask` selecting the extent's bits; stops once fn returns true.
  template <class Fn>
  static bool for_each_chunk(const Extent& e, Fn fn) {
    const std::size_t first = e.begin() / 64;
    const std::size_t last = (e.end() - 1) / 64;
    for (std::size_t w = first; w <= last; ++w) {
      std::uint64_t mask = ~std::uint64_t{0};
      if (w == first) mask &= ~std::uint64_t{0} << (e.begin() % 64);
      if (w == last) mask &= ~std::uint64_t{0} >> (63 - (e.end() - 1) % 64);
      if (fn(w, mask)) return true;
    }
    return false;
  }

  SizeWords capacity_;
  std::vector<std::uint64_t> words_;
  std::vector<const std::vector<Extent>*> resident_;
  std::size_t empty_extents_{0};
  std::uint64_t used_{0};
  std::uint64_t peak_{0};
};

/// Functional Context Memory state.
class CmState {
 public:
  CmState(std::uint32_t capacity, bool persistent, std::size_t kernels)
      : capacity_(capacity), persistent_(persistent), is_resident_(kernels, false) {}

  void load(KernelId kernel, std::uint32_t words, ClusterId cluster,
            ClusterId prev_cluster, const model::KernelSchedule& sched) {
    MSYS_REQUIRE(kernel.index() < is_resident_.size(), "kernel id out of range");
    if (is_resident_[kernel.index()]) return;  // persistent regime reload
    // Make room: evict kernels belonging to neither the loading cluster
    // nor the one still executing (its contexts are live until its slot
    // ends).  The per-slot-serial regime may additionally evict the
    // previous cluster — its execution finished before this load started.
    if (!persistent_) {
      auto evictable = [&](KernelId k) {
        const ClusterId c = sched.cluster_of(k);
        return c != cluster && c != prev_cluster;
      };
      evict_if(evictable, words);
      evict_if([&](KernelId k) { return sched.cluster_of(k) != cluster; }, words);
    }
    MSYS_REQUIRE(used_ + words <= capacity_,
                 "context memory overflow loading kernel contexts");
    resident_.emplace(kernel, words);
    is_resident_[kernel.index()] = true;
    used_ += words;
    peak_ = std::max(peak_, used_);
  }

  [[nodiscard]] bool resident(KernelId kernel) const {
    return kernel.index() < is_resident_.size() && is_resident_[kernel.index()];
  }
  [[nodiscard]] std::uint32_t peak_words() const { return peak_; }

 private:
  template <class Pred>
  void evict_if(Pred pred, std::uint32_t needed) {
    if (used_ + needed <= capacity_) return;
    for (auto it = resident_.begin(); it != resident_.end();) {
      if (used_ + needed <= capacity_) return;
      if (pred(it->first)) {
        used_ -= it->second;
        is_resident_[it->first.index()] = false;
        it = resident_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::uint32_t capacity_;
  bool persistent_;
  /// Resident kernels and their words.  Only eviction walks it, and its
  /// iteration order decides which kernels go (and so max_cm_words).
  std::unordered_map<KernelId, std::uint32_t> resident_;
  /// resident_ as a per-kernel flag, for the per-execution check.
  std::vector<bool> is_resident_;
  std::uint32_t used_{0};
  std::uint32_t peak_{0};
};

/// One-line op description: "<KIND> <kernel-or-data name> slot=S iter=I".
std::string describe(const model::Application& app, const Op& op) {
  const std::string& name = op.kind == OpKind::kLoadContext || op.kind == OpKind::kExec
                                ? app.kernel(op.kernel).name
                                : app.data(op.data).name;
  std::string out = to_string(op.kind);
  out.reserve(out.size() + name.size() + 32);
  out += ' ';
  out += name;
  out += " slot=";
  append_uint(out, op.slot);
  out += " iter=";
  append_uint(out, op.iter);
  return out;
}

}  // namespace

std::string SimReport::summary() const {
  std::ostringstream out;
  out << "total=" << total.value() << "c compute=" << compute.value() << "c stall="
      << stall.value() << "c dma=" << dma_busy.value() << "c loads=" << data_words_loaded
      << "w stores=" << data_words_stored << "w ctx=" << context_words << "w execs="
      << exec_count;
  return out.str();
}

Simulator::Simulator(const arch::M1Config& cfg, const csched::ContextPlan& ctx_plan)
    : cfg_(&cfg), ctx_plan_(&ctx_plan) {}

SimReport Simulator::run(const ScheduleProgram& program) {
  MSYS_TRACE_SPAN(span, "sim.run", "sim");
  MSYS_REQUIRE(program.schedule != nullptr, "program not bound to a schedule");
  const DataSchedule& schedule = *program.schedule;
  const model::KernelSchedule& sched = *schedule.sched;
  const model::Application& app = sched.app();
  const std::size_t n_slots = program.slots.size();
  MSYS_REQUIRE(n_slots > 0, "empty program");
  MSYS_REQUIRE(program.dma_ops.size() + program.rc_ops.size() <= UINT32_MAX,
               "program too large to simulate");

  SimReport report;
  RunBuffers buffers = std::exchange(spare_buffers, {});

  // ---- Static slot bookkeeping. ----
  std::vector<std::size_t> prev_same_set(n_slots, kNone);
  std::vector<FbSet> slot_set(n_slots);
  {
    std::size_t last_on_set[2] = {kNone, kNone};
    for (std::size_t s = 0; s < n_slots; ++s) {
      slot_set[s] = sched.cluster(program.slots[s].cluster).set;
      const auto set = static_cast<std::size_t>(slot_set[s]);
      prev_same_set[s] = last_on_set[set];
      last_on_set[set] = s;
    }
  }
  std::vector<std::uint32_t> in_remaining(n_slots, 0);
  std::vector<std::uint32_t> exec_remaining(n_slots, 0);
  // Functional-pass events, counted by stream: DMA kinds, then RC kinds.
  std::size_t n_events[2] = {0, 0};
  for (const Op& op : program.dma_ops) {
    MSYS_REQUIRE(op.slot < n_slots, "op slot outside the program");
    if (op.kind == OpKind::kLoadContext || op.kind == OpKind::kLoadData) {
      ++in_remaining[op.slot];
    }
    n_events[rc_kind(op.kind)] += event_count(op);
  }
  for (const Op& op : program.rc_ops) {
    MSYS_REQUIRE(op.slot < n_slots, "op slot outside the program");
    if (op.kind == OpKind::kExec) ++exec_remaining[op.slot];
    n_events[rc_kind(op.kind)] += event_count(op);
  }
  for (std::size_t s = 0; s < n_slots; ++s) {
    MSYS_REQUIRE(exec_remaining[s] > 0, "slot with no executions");
  }

  // in_done / exec_done become known when the slot's counters reach zero.
  std::vector<Cycles> in_done(n_slots, Cycles::zero());
  std::vector<bool> in_known(n_slots, false);
  std::vector<Cycles> exec_done(n_slots, Cycles::zero());
  std::vector<bool> exec_known(n_slots, false);
  for (std::size_t s = 0; s < n_slots; ++s) {
    if (in_remaining[s] == 0) in_known[s] = true;
  }

  auto op_duration = [&](const Op& op) -> Cycles {
    switch (op.kind) {
      case OpKind::kLoadContext:
        return cfg_->dma.context_cycles(app.kernel(op.kernel).context_words);
      case OpKind::kLoadData:
      case OpKind::kStoreData:
        return cfg_->dma.data_cycles(app.data(op.data).size);
      case OpKind::kExec:
        return app.kernel(op.kernel).exec_cycles;
      case OpKind::kRelease:
        return Cycles::zero();
    }
    return Cycles::zero();
  };

  // Each timed op's events are written once, as it is timed, to its
  // stream's part of one exactly sized buffer: DMA kinds in [0, dma_end),
  // RC kinds in [dma_end, rc_end).  Either part receives its events in
  // timing order, i.e. in ascending seq.
  std::vector<TimedOp>& timed = buffers.timed;
  timed.clear();
  timed.reserve(program.dma_ops.size() + program.rc_ops.size());
  const std::size_t dma_end = n_events[0];
  const std::size_t rc_end = n_events[0] + n_events[1];
  std::vector<Event>& events = buffers.events;
  if (events.size() < rc_end) events.resize(rc_end);
  std::size_t written[2] = {0, dma_end};
  auto record = [&](const Op& op, Cycles start, Cycles end) {
    const auto seq = static_cast<std::uint32_t>(timed.size());
    timed.push_back({&op, start, end});
    std::size_t& w = written[rc_kind(op.kind)];
    w += write_events(timed.back(), seq, &events[w]);
  };

  // ---- Timing pass: two cursors over the FIFO streams, advancing
  // whichever head op has all of its dependencies resolved. ----
  const bool ctx_serial = !ctx_plan_->overlaps_compute();
  const bool ctx_persistent =
      ctx_plan_->regime() == csched::ContextRegime::kPersistent;

  std::size_t di = 0;
  std::size_t ri = 0;
  Cycles dma_t = Cycles::zero();
  Cycles rc_t = Cycles::zero();
  std::vector<bool> slot_first_load_done(n_slots, false);

  while (di < program.dma_ops.size() || ri < program.rc_ops.size()) {
    bool progressed = false;

    // RC head.
    while (ri < program.rc_ops.size()) {
      const Op& op = program.rc_ops[ri];
      if (op.kind == OpKind::kExec) {
        if (!in_known[op.slot]) break;
        const Cycles start = std::max(rc_t, in_done[op.slot]);
        const Cycles duration = op_duration(op);
        const Cycles end = start + duration;
        record(op, start, end);
        rc_t = end;
        report.compute += duration;
        ++report.exec_count;
        if (--exec_remaining[op.slot] == 0) {
          exec_done[op.slot] = end;
          exec_known[op.slot] = true;
        }
      } else {  // kRelease: bookkeeping at the current RC time
        record(op, rc_t, rc_t);
        ++report.release_count;
      }
      ++ri;
      progressed = true;
    }

    // DMA head.
    while (di < program.dma_ops.size()) {
      const Op& op = program.dma_ops[di];
      Cycles start = dma_t;
      if (op.kind == OpKind::kLoadContext) {
        if (ctx_serial && op.slot > 0) {
          if (!exec_known[op.slot - 1]) break;
          start = std::max(start, exec_done[op.slot - 1]);
        } else if (!ctx_persistent && op.slot >= 2) {
          // CM prefetch depth is one slot: see dsched::predict_cost.
          if (!exec_known[op.slot - 2]) break;
          start = std::max(start, exec_done[op.slot - 2]);
        }
      } else if (op.kind == OpKind::kLoadData) {
        const std::size_t t = prev_same_set[op.slot];
        if (!slot_first_load_done[op.slot] && t != kNone) {
          if (!exec_known[t]) break;
          start = std::max(start, exec_done[t]);
        }
        slot_first_load_done[op.slot] = true;
      } else {  // kStoreData
        if (!exec_known[op.slot]) break;
        start = std::max(start, exec_done[op.slot]);
      }
      const Cycles duration = op_duration(op);
      const Cycles end = start + duration;
      record(op, start, end);
      dma_t = end;
      report.dma_busy += duration;
      ++report.dma_requests;
      if (op.kind == OpKind::kLoadContext) {
        report.context_words += app.kernel(op.kernel).context_words;
      } else if (op.kind == OpKind::kLoadData) {
        report.data_words_loaded += app.data(op.data).size.value();
      } else {
        report.data_words_stored += app.data(op.data).size.value();
      }
      if ((op.kind == OpKind::kLoadContext || op.kind == OpKind::kLoadData) &&
          --in_remaining[op.slot] == 0) {
        in_done[op.slot] = end;
        in_known[op.slot] = true;
      }
      ++di;
      progressed = true;
    }

    MSYS_REQUIRE(progressed || (di >= program.dma_ops.size() && ri >= program.rc_ops.size()),
                 "scheduling deadlock: circular dependency between DMA and RC streams");
  }

  report.total = std::max(dma_t, rc_t);
  report.stall = report.total - report.compute;

  // ---- Functional pass: apply effects in simulated-time order. ----
  // The total order is (time, phase, seq).  The DMA channel and the RC
  // array are each serial, so each stream's events come out in
  // nondecreasing time and only equal-time runs need ordering; the two
  // streams then merge with two cursors.
  auto order_stream = [&](std::size_t first, std::size_t last) {
    for (std::size_t run = first; run < last;) {
      std::size_t next = run + 1;
      while (next < last && events[next].time == events[run].time) ++next;
      MSYS_REQUIRE(next == last || events[run].time < events[next].time,
                   "simulator stream emitted events out of time order");
      // Insertion sort: runs are short and already ascend by seq.
      for (std::size_t i = run + 1; i < next; ++i) {
        for (std::size_t j = i; j > run && before(events[j], events[j - 1]); --j) {
          std::swap(events[j], events[j - 1]);
        }
      }
      run = next;
    }
  };
  order_stream(0, dma_end);
  order_stream(dma_end, rc_end);

  // Dense residency tables, sized from the program itself: FB instances by
  // (data, iter), and results present in external memory by (round, data,
  // iter) — each round produces fresh instances, so a load of a produced
  // object must follow this round's store.  Every round runs at least one
  // of the application's iterations, which bounds both dimensions.
  std::uint64_t n_iters = 1;
  for (const auto* stream : {&program.dma_ops, &program.rc_ops}) {
    for (const Op& op : *stream) n_iters = std::max(n_iters, std::uint64_t{op.iter} + 1);
  }
  MSYS_REQUIRE(n_iters <= app.total_iterations(), "op iteration outside the application");
  std::uint64_t n_rounds = 1;
  for (const codegen::Slot& slot : program.slots) {
    n_rounds = std::max(n_rounds, std::uint64_t{slot.round} + 1);
  }
  MSYS_REQUIRE(n_rounds <= app.total_iterations(), "slot round outside the application");
  const std::size_t n_instances = app.data_count() * n_iters;
  auto inst = [&](DataId data, std::uint32_t iter) -> std::size_t {
    MSYS_REQUIRE(data.index() < app.data_count() && iter < n_iters,
                 "object instance outside the program");
    return static_cast<std::size_t>(data.index()) * n_iters + iter;
  };
  FbState fb[2] = {FbState(cfg_->fb_set_size, n_instances),
                   FbState(cfg_->fb_set_size, n_instances)};
  CmState cm(cfg_->cm_capacity_words,
             ctx_plan_->regime() == csched::ContextRegime::kPersistent, app.kernel_count());
  std::vector<bool> in_external(n_rounds * n_instances, false);
  auto external = [&](std::uint32_t slot, DataId data, std::uint32_t iter) {
    return program.slots[slot].round * n_instances + inst(data, iter);
  };

  // Placements by (cluster, data, iter < RF), from the schedule's keyed
  // map.  A key whose decoded fields fall outside those bounds names no
  // instance of the steady round, so it stays out of the index.
  const std::size_t n_clusters = sched.cluster_count();
  const std::size_t rf = schedule.rf;
  std::vector<const Placement*>& placements = buffers.placements;
  placements.assign(n_clusters * app.data_count() * rf, nullptr);
  auto slot_of = [&](ClusterId cluster, DataId data, std::uint32_t iter) -> std::size_t {
    if (cluster.index() >= n_clusters || data.index() >= app.data_count() || iter >= rf) {
      return kNone;
    }
    return (cluster.index() * app.data_count() + data.index()) * rf + iter;
  };
  for (const auto& [key, p] : schedule.placements) {
    const auto [cluster, instance] = DataSchedule::unkey(key);
    const std::size_t at = slot_of(cluster, instance.data, instance.iter);
    if (at != kNone) placements[at] = &p;
  }
  auto placement = [&](ClusterId cluster, DataId data, std::uint32_t iter) -> const Placement& {
    const std::size_t at = slot_of(cluster, data, iter);
    MSYS_REQUIRE(at != kNone && placements[at] != nullptr, "no placement for object instance");
    return *placements[at];
  };

  auto apply = [&](const Event& ev) {
    const Op& op = *timed[ev.seq].op;
    const auto what = [&] { return describe(app, op); };
    const codegen::Slot& slot = program.slots[op.slot];
    const FbSet home_set = slot_set[op.slot];
    switch (op.kind) {
      case OpKind::kLoadData: {
        if (ev.phase == kCheck) {
          // Data produced inside the application exists in external memory
          // only once this round's store has completed.
          const KernelId producer = app.data(op.data).producer;
          MSYS_REQUIRE(!producer.valid() || in_external[external(op.slot, op.data, op.iter)],
                       "loading a result before its store: " + what());
          break;
        }
        const Placement& p = placement(op.cluster, op.data, op.iter);
        fb[static_cast<std::size_t>(p.set)].insert(inst(op.data, op.iter), p.extents, what);
        break;
      }
      case OpKind::kExec: {
        const model::Kernel& kernel = app.kernel(op.kernel);
        if (ev.phase == kCheck) {
          MSYS_REQUIRE(cm.resident(op.kernel), "contexts not CM-resident for " + what());
          for (DataId in : kernel.inputs) {
            const std::size_t i = inst(in, op.iter);
            const bool home = fb[static_cast<std::size_t>(home_set)].resident(i);
            const bool across = cfg_->cross_set_reads &&
                                fb[static_cast<std::size_t>(other_set(home_set))].resident(i);
            MSYS_REQUIRE(home || across,
                         "input '" + app.data(in).name + "' not resident for " + what());
          }
        } else {
          for (DataId out : kernel.outputs) {
            const Placement& p = placement(slot.cluster, out, op.iter);
            fb[static_cast<std::size_t>(p.set)].insert(inst(out, op.iter), p.extents, what);
          }
        }
        break;
      }
      case OpKind::kStoreData: {
        const std::size_t set = static_cast<std::size_t>(home_set);
        if (ev.phase == kCheck) {
          MSYS_REQUIRE(fb[set].resident(inst(op.data, op.iter)),
                       "storing a non-resident instance: " + what());
        } else if (ev.phase == kInsert) {
          in_external[external(op.slot, op.data, op.iter)] = true;
        } else {
          fb[set].remove(inst(op.data, op.iter), what);
        }
        break;
      }
      case OpKind::kRelease: {
        const Placement& p = placement(op.cluster, op.data, op.iter);
        fb[static_cast<std::size_t>(p.set)].remove(inst(op.data, op.iter), what);
        break;
      }
      case OpKind::kLoadContext: {
        const ClusterId prev =
            op.slot > 0 ? program.slots[op.slot - 1].cluster : slot.cluster;
        cm.load(op.kernel, app.kernel(op.kernel).context_words, slot.cluster, prev,
                sched);
        break;
      }
    }
  };
  for (std::size_t d = 0, r = dma_end; d < dma_end || r < rc_end;) {
    if (r == rc_end || (d < dma_end && before(events[d], events[r]))) {
      apply(events[d++]);
    } else {
      apply(events[r++]);
    }
  }
  // Every instance a run brings into the Frame Buffer leaves it again, by a
  // store or a release, before the run ends.
  for (const FbSet set : {FbSet::kA, FbSet::kB}) {
    const std::size_t i = fb[static_cast<std::size_t>(set)].first_resident();
    MSYS_REQUIRE(i == n_instances,
                 "instance still resident at the end of the run: " +
                     app.data(DataId(static_cast<DataId::rep>(i / n_iters))).name +
                     " iter=" + std::to_string(i % n_iters) + " set=" + to_string(set));
  }

  report.max_resident_words[0] = fb[0].peak_words();
  report.max_resident_words[1] = fb[1].peak_words();
  report.max_cm_words = cm.peak_words();

  if (trace_) {
    for (const TimedOp& t : timed) trace_(t.start, t.end, describe(app, *t.op));
  }

  // ---- Observability. ----  Counters mirror the SimReport fields so the
  // obs cross-check tests can reconcile the two; the trace recorder gets
  // the same per-op busy intervals render_timeline draws, on the sim-time
  // clock (pid 2): EXEC on the RC-array lane, transfers on the DMA lane.
  {
    static obs::Counter& runs = obs::counter("sim.runs");
    static obs::Counter& cycles_total = obs::counter("sim.cycles.total");
    static obs::Counter& cycles_compute = obs::counter("sim.cycles.compute");
    static obs::Counter& cycles_dma = obs::counter("sim.cycles.dma_busy");
    static obs::Counter& cycles_stall = obs::counter("sim.cycles.stall");
    static obs::Counter& words_loaded = obs::counter("sim.words.loaded");
    static obs::Counter& words_stored = obs::counter("sim.words.stored");
    static obs::Counter& words_context = obs::counter("sim.words.context");
    runs.add();
    cycles_total.add(report.total.value());
    cycles_compute.add(report.compute.value());
    cycles_dma.add(report.dma_busy.value());
    cycles_stall.add(report.stall.value());
    words_loaded.add(report.data_words_loaded);
    words_stored.add(report.data_words_stored);
    words_context.add(report.context_words);
  }
  if (obs::TraceRecorder* rec = obs::TraceRecorder::active()) {
    for (const TimedOp& t : timed) {
      if (t.op->kind == OpKind::kRelease || t.start == t.end) continue;
      const obs::SimLane lane =
          t.op->kind == OpKind::kExec ? obs::SimLane::kRc : obs::SimLane::kDma;
      rec->sim_complete(describe(app, *t.op), "sim", t.start.value(),
                        (t.end - t.start).value(), lane);
    }
  }
  if (span.active()) {
    span.add_arg(obs::arg("total_cycles", report.total.value()));
    span.add_arg(obs::arg("execs", std::uint64_t{report.exec_count}));
  }
  spare_buffers = std::move(buffers);
  return report;
}

Simulator::Outcome Simulator::try_run(const ScheduleProgram& program) {
  Outcome outcome;
  try {
    outcome.report = run(program);
  } catch (const Error& e) {
    outcome.diagnostics.push_back(make_error("sim.fault", e.what()));
  }
  return outcome;
}

}  // namespace msys::sim
