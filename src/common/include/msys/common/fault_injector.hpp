// Deterministic, seeded fault injection for the fault-tolerance tests and
// the fuzz campaign.
//
// Production code asks the injector at named *sites* ("store.write.torn",
// "engine.compile.stall", ...) whether this occurrence should fail; the
// decision is a pure function of (seed, site, per-site occurrence count),
// so a campaign replays identically for a given seed and arming spec —
// across threads too, because each site's Nth occurrence always decides
// the same way regardless of which thread draws it.
//
// Disarmed (the default), should_fail() is one relaxed atomic load and
// always false — the injector never costs the hot path anything in
// production.  Arming happens programmatically (tests) or from the
// MSYS_FAULTS environment variable (CLI smoke tests):
//
//   MSYS_FAULTS="seed=42;store.write.torn=1/8;engine.compile.stall=always:50"
//
// Each directive is `site=RATE[:PARAM]` where RATE is `num/den`, `always`
// or `never`, and PARAM is a site-specific integer (stall milliseconds,
// for example).  Unknown sites are fine — a site nobody consults simply
// never fires.
//
// Sites currently consulted:
//   store.write.io_error  — DiskScheduleStore::save attempt fails (transient,
//                           retried with backoff)
//   store.write.torn      — the entry file is durably written with a
//                           truncated payload (simulates a crash / non-atomic
//                           filesystem mid-write; load must quarantine)
//   store.read.io_error   — DiskScheduleStore::load attempt fails (transient)
//   store.read.corrupt    — a payload byte is flipped after the read
//                           (checksum must catch it; entry is quarantined)
//   engine.compile.stall  — compile_job sleeps PARAM milliseconds before
//                           scheduling (turns deadlines deterministic)
//   serve.compile.stall   — the serve loop's prepare pass sleeps PARAM
//                           milliseconds before handing an event to the
//                           compile phase (wall-clock delay only: virtual
//                           outcomes must be byte-identical with/without)
//   serve.store.read      — a serve-level degraded store read for one
//                           event: accounting-only (bumps the run's
//                           store-fault tally so summaries surface it
//                           without a real store); results are unchanged
//   serve.admission.clock_skew — the admission estimate for one arrival is
//                           skewed +PARAM virtual cycles (a pessimistic
//                           clock): deterministically changes admission
//                           decisions, never conservation
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace msys {

class FaultInjector {
 public:
  /// One armed site: fire when hash(seed, site, occurrence) % den < num.
  struct SiteSpec {
    std::uint64_t num{0};
    std::uint64_t den{1};
    /// Site-specific magnitude (e.g. stall milliseconds); 0 when unused.
    std::uint64_t param{0};
  };

  /// Starts a fresh arming epoch: clears every site and occurrence count.
  void arm(std::uint64_t seed);
  void set_site(std::string site, SiteSpec spec);
  /// Back to the disarmed fast path (sites and counts are cleared).
  void disarm();

  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Deterministic per-occurrence decision; advances the site's
  /// occurrence count.  Always false while disarmed or for unarmed sites.
  [[nodiscard]] bool should_fail(std::string_view site);

  /// should_fail() that also reports the site's param (0 when the
  /// occurrence does not fire or the site is unarmed).
  [[nodiscard]] std::uint64_t fire_param(std::string_view site);

  /// Faults actually injected at `site` / across all sites (test
  /// assertions; obs counters are the production-visible mirror, bumped
  /// by the call sites that act on an injected fault).
  [[nodiscard]] std::uint64_t injected_count(std::string_view site) const;
  [[nodiscard]] std::uint64_t total_injected() const;

  /// Parses the MSYS_FAULTS directive syntax documented above and arms
  /// accordingly.  Empty spec => disarm.  On a malformed spec, leaves the
  /// injector disarmed, explains into *error and returns false.
  bool arm_from_spec(std::string_view spec, std::string* error = nullptr);

  /// The process-wide injector the store and engine consult.
  [[nodiscard]] static FaultInjector& global();

  /// Arms global() from $MSYS_FAULTS if set (CLI entry points call this
  /// once).  Returns false on a malformed spec, with the message on
  /// *error.
  static bool arm_global_from_env(std::string* error = nullptr);

 private:
  struct Site {
    SiteSpec spec;
    std::uint64_t occurrences{0};
    std::uint64_t injected{0};
  };

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::uint64_t seed_{0};
  std::map<std::string, Site, std::less<>> sites_;
};

}  // namespace msys
