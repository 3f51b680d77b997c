// Crash-safe persistent schedule store: the disk tier behind the engine's
// in-memory ScheduleCache.
//
// The store is a flat directory of per-entry files addressed by the same
// canonical 64-bit content hash the in-memory cache uses — one entry per
// `<16-hex-key>.msr` file.  The payload is opaque bytes (the engine's
// result codec owns the schema); this layer only guarantees integrity and
// atomicity:
//
//   * Framed records — magic "MSR1", key, payload length and a canonical
//     checksum (Hasher over key + payload), so a torn or bit-flipped entry
//     is always *detected*, never returned.
//   * Atomic publication — writes land in a temp file first and reach the
//     final name via rename(2), so a reader never observes a half-written
//     entry and a crash mid-write leaves at worst a stale `.tmp` that
//     verify_store() sweeps up.
//   * Corruption is data, not death — a bad entry is moved into the
//     `quarantine/` subdirectory (preserved for post-mortems) and reported
//     as a miss; the caller recomputes and overwrites.  The store never
//     throws for bad bytes on disk.
//
// Transient I/O failures are retried with fixed per-class budgets (reads
// 3 attempts at 1-20 ms, writes 4 at 1-50 ms) using exponential backoff
// with deterministic jitter; the `store.*` obs counters expose every
// outcome.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "msys/common/cancel.hpp"

namespace msys::store {

struct StoreConfig {
  /// Directory holding the entries; created (with its quarantine/
  /// subdirectory) by open() when absent.
  std::string dir;
};

/// Instance-level tallies (the `store.*` obs counters are the process-wide
/// mirror).
struct StoreStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t saves{0};
  std::uint64_t save_failures{0};
  std::uint64_t quarantined{0};
  std::uint64_t retry_attempts{0};
};

/// What a verify_store() sweep found and did.
struct FsckReport {
  std::uint64_t scanned{0};
  std::uint64_t valid{0};
  std::uint64_t quarantined{0};
  std::uint64_t removed_tmp{0};
  /// True when every scanned entry validated and nothing needed cleanup.
  [[nodiscard]] bool clean() const {
    return quarantined == 0 && removed_tmp == 0;
  }
};

/// How a load() resolved — the retry-budget outcome a driver needs to
/// tell "the entry is not there" from "the store is misbehaving".
enum class LoadStatus : std::uint8_t {
  /// The payload came back intact.
  kHit,
  /// No entry under this key (definitive absence, no retry burned).
  kMiss,
  /// The entry existed but failed framing/checksum: quarantined.
  kCorrupt,
  /// Every read attempt hit transient I/O errors — the retry budget is
  /// exhausted and the entry's true state is unknown.
  kExhausted,
  /// The caller's CancelToken fired mid-read.
  kCancelled,
};

[[nodiscard]] const char* to_string(LoadStatus status);

class DiskScheduleStore {
 public:
  /// Opens (creating if needed) the store at config.dir.  Returns nullptr
  /// and explains into *error when the directory cannot be created or is
  /// not writable.
  [[nodiscard]] static std::unique_ptr<DiskScheduleStore> open(
      const StoreConfig& config, std::string* error = nullptr);

  /// Persists `payload` under `key`, overwriting any existing entry.
  /// Retries transient I/O per the write budget; false when the budget is
  /// exhausted or `cancel` fired (a failed save is never fatal — the entry
  /// simply stays absent).
  bool save(std::uint64_t key, std::string_view payload,
            const CancelToken& cancel = {});

  /// Loads the payload stored under `key`.  nullopt on miss, on a
  /// corrupt entry (which is quarantined first) or when the read budget /
  /// `cancel` ran out.  Never throws for bad bytes.  `status`, when
  /// given, reports *which* of those happened (see LoadStatus) — the
  /// caller-facing difference between "recompute because absent" and
  /// "recompute because the store is degraded".
  [[nodiscard]] std::optional<std::string> load(std::uint64_t key,
                                                const CancelToken& cancel = {},
                                                LoadStatus* status = nullptr);

  /// Moves `key`'s entry into quarantine/ (no-op when absent).  The engine
  /// calls this when the bytes framed fine but failed *semantic* decoding
  /// — same contract as frame-level corruption: preserve, then recompute.
  void quarantine(std::uint64_t key);

  /// Full-store fsck: validates every entry (quarantining failures) and
  /// removes temp files left by crashed writers.
  FsckReport verify_store();

  /// Number of (non-quarantined) entries currently on disk.
  [[nodiscard]] std::uint64_t entry_count() const;

  [[nodiscard]] StoreStats stats() const;

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

 private:
  explicit DiskScheduleStore(const StoreConfig& config);

  [[nodiscard]] std::filesystem::path entry_path(std::uint64_t key) const;
  /// Moves `path` into quarantine/ under a unique name; best-effort
  /// (falls back to remove if even the rename fails).
  void quarantine_file(const std::filesystem::path& path);
  /// One write attempt: temp file + rename.  False on I/O error.
  bool save_attempt(std::uint64_t key, std::string_view payload);
  /// One read attempt.  False = transient I/O error (retry); true with
  /// nullopt in *out = definitive miss/corrupt (no retry; *corrupt tells
  /// the two apart).
  bool load_attempt(std::uint64_t key, std::optional<std::string>* out,
                    bool* corrupt);

  std::filesystem::path dir_;
  std::filesystem::path quarantine_dir_;
  std::atomic<std::uint64_t> op_counter_{0};

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> saves_{0};
  mutable std::atomic<std::uint64_t> save_failures_{0};
  mutable std::atomic<std::uint64_t> quarantined_{0};
  mutable std::atomic<std::uint64_t> retry_attempts_{0};
};

}  // namespace msys::store
