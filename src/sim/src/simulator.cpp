#include "msys/sim/simulator.hpp"

#include <algorithm>
#include <memory>
#include <memory_resource>
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

namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

/// A timed op plus the timestamps the timing pass assigned.
struct TimedOp {
  const Op* op;
  Cycles start{};
  Cycles end{};
};

/// Functional-pass event phases: at equal timestamps removals apply first,
/// then insertions, then checks.
enum Phase : std::uint8_t { kRemove = 0, kInsert = 1, kCheck = 2 };

/// What an event does; each op kind has its own, in its own phase.
enum class Effect : std::uint8_t {
  kLoadCheck,      // kCheck: a produced object was stored this round
  kLoadPlace,      // kInsert: the FB words become occupied
  kExecCheck,      // kCheck: inputs FB-resident, contexts CM-resident
  kExecPlace,      // kInsert: outputs appear in the FB
  kStoreCheck,     // kCheck: the instance is resident
  kStoreExternal,  // kInsert: it reaches external memory
  kStoreFree,      // kRemove: release-after-store frees its words
  kRelease,        // kRemove
  kContextLoad,    // kInsert: the CM holds the kernel's contexts
};

struct Event {  // 16 bytes: the largest transient buffer of a run
  Cycles time;
  std::uint32_t seq;  // index of the op's TimedOp; stable order within a phase
  Phase phase;
  Effect effect;
};

/// The total event order: (time, phase, seq).
inline bool before(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.phase != b.phase) return a.phase < b.phase;
  return a.seq < b.seq;
}

/// Appends `ev` to the stream [first, end), keeping it in event order.  A
/// stream's events arrive in ascending seq and, the DMA channel and the RC
/// array each being serial, in nondecreasing time, so `ev` moves back only
/// past events of its own time and a later phase.  An earlier time than
/// the last event's sets `disordered`: the run faults once timing ends.
inline void emit(const Event* first, Event*& end, const Event& ev, bool& disordered) {
  Event* at = end++;
  if (at != first && ev.time < at[-1].time) disordered = true;
  for (; at != first && at[-1].time == ev.time && ev.phase < at[-1].phase; --at) {
    *at = at[-1];
  }
  *at = ev;
}

/// Events of the RC-array kinds (executions and releases) form one stream,
/// every other kind the DMA stream.
bool rc_kind(OpKind kind) { return kind == OpKind::kExec || kind == OpKind::kRelease; }

/// A slot's dependency state in the timing pass.  Its IN batch (context
/// and data loads) is complete, at `in_done`, once `in_remaining` is zero;
/// its executions likewise at `exec_done`.
struct SlotState {
  Cycles in_done{};
  Cycles exec_done{};
  std::uint32_t in_remaining{0};
  std::uint32_t exec_remaining{0};
  /// The previous slot on the same FB set, or kNone.
  std::uint32_t prev_same_set{kNone};
  std::uint8_t set{0};
  std::uint8_t first_load_done{0};
};

/// What an op of a kernel costs, per kernel.
struct KernelCosts {
  Cycles exec;
  Cycles context;
  std::uint32_t context_words;
};

/// What a transfer of a data object costs, per object; `produced` marks
/// results of the application (not external inputs).
struct DataCosts {
  Cycles dma;
  std::uint64_t words;
  bool produced;
};

/// The buffers a run needs in proportion to its program or application.
/// Callers build a fresh Simulator per check, so the buffers live per
/// thread, not per Simulator: a run takes the thread's spare set and hands
/// it back when it returns, so back-to-back runs on a thread reuse their
/// capacity.  A run started inside another (from a trace callback) finds
/// no spare and allocates its own; a run that throws frees its set.
struct RunBuffers {
  /// Grown, never shrunk: a run uses a prefix, so reuse writes no filler.
  std::vector<TimedOp> timed;
  std::vector<Event> events;
  /// The rest are filled afresh by each run.
  std::vector<SlotState> slots;
  std::vector<KernelCosts> kernels;
  std::vector<DataCosts> data;
  /// Dense placement index: (cluster, data, iter) -> the schedule's record
  /// or kNone.
  std::vector<std::uint32_t> placement_index;
  /// Results in external memory by (round, data, iter).
  std::vector<std::uint8_t> in_external;
  /// Per FB set: the occupied-word bitset and each instance's record.
  std::vector<std::uint64_t> fb_words[2];
  std::vector<const dsched::PlacementRecord*> fb_resident[2];
  /// The Context Memory map's nodes and buckets: a run's map gives them
  /// back when it ends, so later runs on the thread reuse them.
  std::unique_ptr<std::pmr::unsynchronized_pool_resource> cm_pool;
};
thread_local RunBuffers spare_buffers;

/// Grows `v` to at least `n` elements; returns its storage.
template <class T>
T* at_least(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

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

/// Functional FB-set state: a word bitset of occupied words, checked and
/// marked with 64-bit masks, plus the placement record each resident
/// instance holds, indexed densely by instance.  Both tables are the
/// run's buffers; records name their extents in the schedule's extent
/// array.
class FbState {
 public:
  FbState(SizeWords capacity, std::size_t instances, const Extent* extents,
          std::vector<std::uint64_t>& words,
          std::vector<const dsched::PlacementRecord*>& resident)
      : capacity_(capacity.value()), instances_(instances), extents_(extents) {
    words.assign((capacity_ + 63) / 64, 0);
    resident.assign(instances, nullptr);
    words_ = words.data();
    resident_ = resident.data();
  }

  /// Every extent is checked before any is marked, so an instance's own
  /// extents are never compared with each other.  The failure description
  /// names `op`; it is built only on failure.
  void insert(std::size_t inst, const dsched::PlacementRecord& p,
              const model::Application& app, const Op& op) {
    MSYS_REQUIRE(resident_[inst] == nullptr, "instance already resident: " + describe(app, op));
    const Extent* const first = extents_ + p.extent_begin;
    const Extent* const last = first + p.extent_count;
    for (const Extent* e = first; e != last; ++e) {
      MSYS_REQUIRE(e->begin() <= e->end() && e->end() <= capacity_,
                   "placement out of range: " + describe(app, op));
      MSYS_REQUIRE(!collides(*e), "FB words doubly occupied: " + describe(app, op));
    }
    for (const Extent* e = first; e != last; ++e) {
      if (e->empty()) {
        ++empty_extents_;
      } else {
        mark(*e, true);
      }
      used_ += e->size.value();
    }
    peak_ = std::max(peak_, used_);
    resident_[inst] = &p;
  }

  void remove(std::size_t inst, const model::Application& app, const Op& op) {
    const dsched::PlacementRecord* p = resident_[inst];
    MSYS_REQUIRE(p != nullptr, "releasing a non-resident instance: " + describe(app, op));
    const Extent* const first = extents_ + p->extent_begin;
    const Extent* const last = first + p->extent_count;
    for (const Extent* e = first; e != last; ++e) {
      if (e->empty()) {
        --empty_extents_;
      } else {
        mark(*e, false);
      }
      used_ -= e->size.value();
    }
    resident_[inst] = nullptr;
  }

  [[nodiscard]] bool resident(std::size_t inst) const { return resident_[inst] != nullptr; }
  /// The lowest resident instance, or the instance count when none is.
  [[nodiscard]] std::size_t first_resident() const {
    return static_cast<std::size_t>(
        std::find_if(resident_, resident_ + instances_, [](const auto* p) { return p; }) -
        resident_);
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
      for (std::size_t i = 0; i < instances_; ++i) {
        const dsched::PlacementRecord* other = resident_[i];
        if (other == nullptr) continue;
        for (std::uint32_t k = 0; k < other->extent_count; ++k) {
          if (e.overlaps(extents_[other->extent_begin + k])) return true;
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

  std::uint64_t capacity_;
  std::size_t instances_;
  const Extent* extents_;
  std::uint64_t* words_;
  const dsched::PlacementRecord** resident_;
  std::size_t empty_extents_{0};
  std::uint64_t used_{0};
  std::uint64_t peak_{0};
};

/// Functional Context Memory state.  The resident map draws its nodes from
/// `pool`, so a context load or eviction does not reach the global heap.
class CmState {
 public:
  CmState(std::uint32_t capacity, bool persistent, std::size_t kernels,
          std::pmr::memory_resource* pool)
      : capacity_(capacity), persistent_(persistent), resident_(pool), is_resident_(kernels, 0) {}

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
    is_resident_[kernel.index()] = 1;
    used_ += words;
    peak_ = std::max(peak_, used_);
  }

  [[nodiscard]] bool resident(KernelId kernel) const {
    return kernel.index() < is_resident_.size() && is_resident_[kernel.index()] != 0;
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
        is_resident_[it->first.index()] = 0;
        it = resident_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::uint32_t capacity_;
  bool persistent_;
  /// Resident kernels and their words.  Only eviction walks it, and its
  /// iteration order decides which kernels go (and so max_cm_words); the
  /// allocator does not enter that order, only the hash, the bucket count
  /// and the insertion history do.
  std::pmr::unordered_map<KernelId, std::uint32_t> resident_;
  /// resident_ as a per-kernel flag, for the per-execution check.
  std::vector<std::uint8_t> is_resident_;
  std::uint32_t used_{0};
  std::uint32_t peak_{0};
};

/// Dense instance numbering: (data, iter) -> data * iterations + iter.
struct InstanceIndex {
  std::size_t data;
  std::uint64_t iterations;

  [[nodiscard]] std::size_t of(DataId d, std::uint32_t iter) const {
    MSYS_REQUIRE(d.index() < data && iter < iterations, "object instance outside the program");
    return static_cast<std::size_t>(d.index()) * iterations + iter;
  }
};

/// The schedule's placement records, indexed in place densely by
/// (cluster, data, iter < RF).
class PlacementIndex {
 public:
  PlacementIndex(const DataSchedule& schedule, std::size_t clusters, std::size_t data,
                 RunBuffers& buffers)
      : clusters_(clusters), data_(data), rf_(schedule.rf), records_(schedule.placements.data()) {
    buffers.placement_index.assign(clusters_ * data_ * rf_, kNone);
    index_ = buffers.placement_index.data();
    for (std::size_t r = 0; r < schedule.placements.size(); ++r) {
      const dsched::PlacementRecord& p = schedule.placements[r];
      const auto [cluster, instance] = DataSchedule::unkey(p.key);
      const std::size_t at = slot_of(cluster, instance.data, instance.iter);
      if (at == kNoEntry || index_[at] != kNone) continue;
      (void)schedule.extents_of(p);  // throws when its range overruns the extent array
      index_[at] = static_cast<std::uint32_t>(r);
    }
  }

  /// The placement of `data`'s iteration `iter` planned by `cluster`.
  [[nodiscard]] const dsched::PlacementRecord& at(ClusterId cluster, DataId data,
                                                  std::uint32_t iter) const {
    const std::size_t at = slot_of(cluster, data, iter);
    const std::uint32_t record = at == kNoEntry ? kNone : index_[at];
    MSYS_REQUIRE(record != kNone, "no placement for object instance");
    return records_[record];
  }

 private:
  static constexpr std::size_t kNoEntry = SIZE_MAX;

  [[nodiscard]] std::size_t slot_of(ClusterId cluster, DataId data, std::uint32_t iter) const {
    if (cluster.index() >= clusters_ || data.index() >= data_ || iter >= rf_) return kNoEntry;
    return (cluster.index() * data_ + data.index()) * rf_ + iter;
  }

  std::size_t clusters_;
  std::size_t data_;
  std::size_t rf_;
  const dsched::PlacementRecord* records_;
  std::uint32_t* index_;
};

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
  const std::size_t n_dma = program.dma_ops.size();
  const std::size_t n_rc = program.rc_ops.size();
  MSYS_REQUIRE(n_dma + n_rc <= UINT32_MAX, "program too large to simulate");
  const Op* const dma_ops = program.dma_ops.data();
  const Op* const rc_ops = program.rc_ops.data();

  RunBuffers buffers = std::exchange(spare_buffers, {});

  // ---- Set-up: per-slot state, per-kernel and per-data costs. ----
  std::vector<SlotState>& slot_states = buffers.slots;
  slot_states.assign(n_slots, SlotState{});
  SlotState* const slots = slot_states.data();
  {
    std::uint32_t last_on_set[2] = {kNone, kNone};
    for (std::size_t s = 0; s < n_slots; ++s) {
      const auto set = static_cast<std::uint8_t>(sched.cluster(program.slots[s].cluster).set);
      slots[s].set = set;
      slots[s].prev_same_set = last_on_set[set];
      last_on_set[set] = static_cast<std::uint32_t>(s);
    }
  }
  // Functional-pass events per stream, and the largest iteration an op
  // names (checked against the application once timing ends).
  std::size_t n_dma_events = 0;
  std::size_t n_rc_events = 0;
  std::uint32_t max_iter = 0;
  for (const Op* op = dma_ops; op != dma_ops + n_dma; ++op) {
    MSYS_REQUIRE(op->slot < n_slots, "op slot outside the program");
    MSYS_REQUIRE(!rc_kind(op->kind), "not a DMA op on the DMA stream: " + describe(app, *op));
    if (op->kind == OpKind::kStoreData) {
      n_dma_events += op->release_after_store ? 3 : 2;
    } else {
      ++slots[op->slot].in_remaining;
      n_dma_events += op->kind == OpKind::kLoadData ? 2 : 1;
    }
    max_iter = std::max(max_iter, op->iter);
  }
  for (const Op* op = rc_ops; op != rc_ops + n_rc; ++op) {
    MSYS_REQUIRE(op->slot < n_slots, "op slot outside the program");
    MSYS_REQUIRE(rc_kind(op->kind), "not an RC op on the RC stream: " + describe(app, *op));
    if (op->kind == OpKind::kExec) {
      ++slots[op->slot].exec_remaining;
      n_rc_events += 2;
    } else {
      ++n_rc_events;
    }
    max_iter = std::max(max_iter, op->iter);
  }
  for (std::size_t s = 0; s < n_slots; ++s) {
    MSYS_REQUIRE(slots[s].exec_remaining > 0, "slot with no executions");
  }

  const std::size_t n_kernels = app.kernel_count();
  const std::size_t n_data = app.data_count();
  std::vector<KernelCosts>& kernel_costs = buffers.kernels;
  kernel_costs.clear();
  for (const model::Kernel& k : app.kernels()) {
    kernel_costs.push_back(
        {k.exec_cycles, cfg_->dma.context_cycles(k.context_words), k.context_words});
  }
  std::vector<DataCosts>& data_costs = buffers.data;
  data_costs.clear();
  for (const model::DataObject& d : app.data_objects()) {
    data_costs.push_back({cfg_->dma.data_cycles(d.size), d.size.value(), d.producer.valid()});
  }
  const KernelCosts* const kernel_cost = kernel_costs.data();
  const DataCosts* const data_cost = data_costs.data();

  // ---- Timing pass: two cursors over the FIFO streams, advancing
  // whichever head op has all of its dependencies resolved.  Each timed op
  // writes its TimedOp and its events, the DMA stream's to
  // [0, n_dma_events) and the RC stream's after them, each part in event
  // order. ----
  TimedOp* const timed = at_least(buffers.timed, n_dma + n_rc);
  Event* const events = at_least(buffers.events, n_dma_events + n_rc_events);
  Event* const rc_first = events + n_dma_events;
  Event* dma_out = events;
  Event* rc_out = rc_first;
  bool disordered = false;

  const bool ctx_serial = !ctx_plan_->overlaps_compute();
  const bool ctx_persistent =
      ctx_plan_->regime() == csched::ContextRegime::kPersistent;

  Cycles dma_t = Cycles::zero();
  Cycles rc_t = Cycles::zero();
  Cycles compute = Cycles::zero();
  Cycles dma_busy = Cycles::zero();
  std::uint64_t words_loaded = 0;
  std::uint64_t words_stored = 0;
  std::uint64_t context_words = 0;
  std::uint64_t execs = 0;
  std::uint32_t seq = 0;
  std::size_t di = 0;
  std::size_t ri = 0;
  while (di < n_dma || ri < n_rc) {
    const std::size_t di_before = di;
    const std::size_t ri_before = ri;

    // RC head.
    for (; ri < n_rc; ++ri, ++seq) {
      const Op& op = rc_ops[ri];
      SlotState& slot = slots[op.slot];
      if (op.kind == OpKind::kExec) {
        if (slot.in_remaining != 0) break;
        MSYS_REQUIRE(op.kernel.index() < n_kernels, "kernel id out of range");
        const Cycles start = std::max(rc_t, slot.in_done);
        const Cycles duration = kernel_cost[op.kernel.index()].exec;
        const Cycles end = start + duration;
        timed[seq] = {&op, start, end};
        emit(rc_first, rc_out, {start, seq, kInsert, Effect::kExecPlace}, disordered);
        emit(rc_first, rc_out, {start, seq, kCheck, Effect::kExecCheck}, disordered);
        rc_t = end;
        compute += duration;
        ++execs;
        if (--slot.exec_remaining == 0) slot.exec_done = end;
      } else {  // kRelease: bookkeeping at the current RC time
        timed[seq] = {&op, rc_t, rc_t};
        emit(rc_first, rc_out, {rc_t, seq, kRemove, Effect::kRelease}, disordered);
      }
    }

    // DMA head.
    for (; di < n_dma; ++di, ++seq) {
      const Op& op = dma_ops[di];
      SlotState& slot = slots[op.slot];
      Cycles start = dma_t;
      Cycles end;
      if (op.kind == OpKind::kLoadData) {
        if (!slot.first_load_done) {
          if (slot.prev_same_set != kNone) {
            const SlotState& prev = slots[slot.prev_same_set];
            if (prev.exec_remaining != 0) break;
            start = std::max(start, prev.exec_done);
          }
          slot.first_load_done = 1;
        }
        MSYS_REQUIRE(op.data.index() < n_data, "data id out of range");
        const DataCosts& d = data_cost[op.data.index()];
        end = start + d.dma;
        emit(events, dma_out, {start, seq, kInsert, Effect::kLoadPlace}, disordered);
        emit(events, dma_out, {start, seq, kCheck, Effect::kLoadCheck}, disordered);
        dma_busy += d.dma;
        words_loaded += d.words;
        if (--slot.in_remaining == 0) slot.in_done = end;
      } else if (op.kind == OpKind::kLoadContext) {
        if (ctx_serial && op.slot > 0) {
          const SlotState& prev = slots[op.slot - 1];
          if (prev.exec_remaining != 0) break;
          start = std::max(start, prev.exec_done);
        } else if (!ctx_persistent && op.slot >= 2) {
          // CM prefetch depth is one slot: see dsched::predict_cost.
          const SlotState& prev = slots[op.slot - 2];
          if (prev.exec_remaining != 0) break;
          start = std::max(start, prev.exec_done);
        }
        MSYS_REQUIRE(op.kernel.index() < n_kernels, "kernel id out of range");
        const KernelCosts& k = kernel_cost[op.kernel.index()];
        end = start + k.context;
        emit(events, dma_out, {end, seq, kInsert, Effect::kContextLoad}, disordered);
        dma_busy += k.context;
        context_words += k.context_words;
        if (--slot.in_remaining == 0) slot.in_done = end;
      } else {  // kStoreData
        if (slot.exec_remaining != 0) break;
        start = std::max(start, slot.exec_done);
        MSYS_REQUIRE(op.data.index() < n_data, "data id out of range");
        const DataCosts& d = data_cost[op.data.index()];
        end = start + d.dma;
        emit(events, dma_out, {start, seq, kCheck, Effect::kStoreCheck}, disordered);
        emit(events, dma_out, {end, seq, kInsert, Effect::kStoreExternal}, disordered);
        if (op.release_after_store) {
          emit(events, dma_out, {end, seq, kRemove, Effect::kStoreFree}, disordered);
        }
        dma_busy += d.dma;
        words_stored += d.words;
      }
      timed[seq] = {&op, start, end};
      dma_t = end;
    }

    MSYS_REQUIRE(di != di_before || ri != ri_before,
                 "scheduling deadlock: circular dependency between DMA and RC streams");
  }

  SimReport report;
  report.total = std::max(dma_t, rc_t);
  report.compute = compute;
  report.stall = report.total - compute;
  report.dma_busy = dma_busy;
  report.data_words_loaded = words_loaded;
  report.data_words_stored = words_stored;
  report.context_words = context_words;
  report.dma_requests = n_dma;
  report.exec_count = execs;
  report.release_count = n_rc - execs;

  // ---- Functional pass: apply effects in simulated-time order. ----
  // The total order is (time, phase, seq).  Each stream's part is in that
  // order already; the two parts merge with two cursors below.
  MSYS_REQUIRE(!disordered, "simulator stream emitted events out of time order");

  // Dense residency tables, sized from the program itself: FB instances by
  // (data, iter), and results present in external memory by (round, data,
  // iter) — each round produces fresh instances, so a load of a produced
  // object must follow this round's store.  Every round runs at least one
  // of the application's iterations, which bounds both dimensions.
  const std::uint64_t n_iters = std::uint64_t{max_iter} + 1;
  MSYS_REQUIRE(n_iters <= app.total_iterations(), "op iteration outside the application");
  std::uint64_t n_rounds = 1;
  for (const codegen::Slot& slot : program.slots) {
    n_rounds = std::max(n_rounds, std::uint64_t{slot.round} + 1);
  }
  MSYS_REQUIRE(n_rounds <= app.total_iterations(), "slot round outside the application");

  const std::size_t n_instances = n_data * n_iters;
  const Extent* const extents = schedule.extents.data();
  FbState fb[2] = {FbState(cfg_->fb_set_size, n_instances, extents, buffers.fb_words[0],
                           buffers.fb_resident[0]),
                   FbState(cfg_->fb_set_size, n_instances, extents, buffers.fb_words[1],
                           buffers.fb_resident[1])};
  if (!buffers.cm_pool) {
    buffers.cm_pool = std::make_unique<std::pmr::unsynchronized_pool_resource>();
  }
  CmState cm(cfg_->cm_capacity_words, ctx_persistent, n_kernels, buffers.cm_pool.get());
  buffers.in_external.assign(n_rounds * n_instances, 0);
  std::uint8_t* const in_external = buffers.in_external.data();

  // Placements by (cluster, data, iter < RF), from the schedule's records.
  // A key whose decoded fields fall outside those bounds names no instance
  // of the steady round, so it stays out of the index.
  const PlacementIndex placements(schedule, sched.cluster_count(), n_data, buffers);
  const InstanceIndex inst{n_data, n_iters};

  const model::Kernel* const kernels = app.kernels().data();
  const codegen::Slot* const program_slots = program.slots.data();
  const bool cross_set_reads = cfg_->cross_set_reads;
  const Event* d = events;
  const Event* const dma_last = rc_first;
  const Event* r = rc_first;
  const Event* const rc_last = rc_first + n_rc_events;
  while (d != dma_last || r != rc_last) {
    const Event& ev = r == rc_last || (d != dma_last && before(*d, *r)) ? *d++ : *r++;
    const Op& op = *timed[ev.seq].op;
    switch (ev.effect) {
      case Effect::kLoadCheck:
        // Data produced inside the application exists in external memory
        // only once this round's store has completed.
        MSYS_REQUIRE(!data_cost[op.data.index()].produced ||
                         in_external[program_slots[op.slot].round * n_instances +
                                     inst.of(op.data, op.iter)],
                     "loading a result before its store: " + describe(app, op));
        break;
      case Effect::kLoadPlace: {
        const dsched::PlacementRecord& p = placements.at(op.cluster, op.data, op.iter);
        fb[static_cast<std::size_t>(p.set)].insert(inst.of(op.data, op.iter), p, app, op);
        break;
      }
      case Effect::kExecCheck: {
        MSYS_REQUIRE(cm.resident(op.kernel), "contexts not CM-resident for " + describe(app, op));
        const std::size_t home = slots[op.slot].set;
        for (const DataId in : kernels[op.kernel.index()].inputs) {
          const std::size_t i = inst.of(in, op.iter);
          MSYS_REQUIRE(fb[home].resident(i) || (cross_set_reads && fb[home ^ 1].resident(i)),
                       "input '" + app.data(in).name + "' not resident for " +
                           describe(app, op));
        }
        break;
      }
      case Effect::kExecPlace: {
        const ClusterId cluster = program_slots[op.slot].cluster;
        for (const DataId out : kernels[op.kernel.index()].outputs) {
          const dsched::PlacementRecord& p = placements.at(cluster, out, op.iter);
          fb[static_cast<std::size_t>(p.set)].insert(inst.of(out, op.iter), p, app, op);
        }
        break;
      }
      case Effect::kStoreCheck:
        MSYS_REQUIRE(fb[slots[op.slot].set].resident(inst.of(op.data, op.iter)),
                     "storing a non-resident instance: " + describe(app, op));
        break;
      case Effect::kStoreExternal:
        in_external[program_slots[op.slot].round * n_instances + inst.of(op.data, op.iter)] = 1;
        break;
      case Effect::kStoreFree:
        fb[slots[op.slot].set].remove(inst.of(op.data, op.iter), app, op);
        break;
      case Effect::kRelease: {
        const dsched::PlacementRecord& p = placements.at(op.cluster, op.data, op.iter);
        fb[static_cast<std::size_t>(p.set)].remove(inst.of(op.data, op.iter), app, op);
        break;
      }
      case Effect::kContextLoad: {
        const ClusterId cluster = program_slots[op.slot].cluster;
        const ClusterId prev = op.slot > 0 ? program_slots[op.slot - 1].cluster : cluster;
        cm.load(op.kernel, kernel_cost[op.kernel.index()].context_words, cluster, prev, sched);
        break;
      }
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

  const TimedOp* const timed_end = timed + (n_dma + n_rc);
  if (trace_) {
    for (const TimedOp* t = timed; t != timed_end; ++t) {
      trace_(t->start, t->end, describe(app, *t->op));
    }
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
    static obs::Counter& counter_loaded = obs::counter("sim.words.loaded");
    static obs::Counter& counter_stored = obs::counter("sim.words.stored");
    static obs::Counter& counter_context = obs::counter("sim.words.context");
    runs.add();
    cycles_total.add(report.total.value());
    cycles_compute.add(report.compute.value());
    cycles_dma.add(report.dma_busy.value());
    cycles_stall.add(report.stall.value());
    counter_loaded.add(report.data_words_loaded);
    counter_stored.add(report.data_words_stored);
    counter_context.add(report.context_words);
  }
  if (obs::TraceRecorder* rec = obs::TraceRecorder::active()) {
    for (const TimedOp* t = timed; t != timed_end; ++t) {
      if (t->op->kind == OpKind::kRelease || t->start == t->end) continue;
      const obs::SimLane lane =
          t->op->kind == OpKind::kExec ? obs::SimLane::kRc : obs::SimLane::kDma;
      rec->sim_complete(describe(app, *t->op), "sim", t->start.value(),
                        (t->end - t->start).value(), lane);
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
