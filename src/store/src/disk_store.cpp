#include "msys/store/disk_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <system_error>

#include "msys/common/fault_injector.hpp"
#include "msys/common/hash.hpp"
#include "msys/common/retry.hpp"
#include "msys/common/rng.hpp"
#include "msys/obs/metrics.hpp"

namespace msys::store {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'M', 'S', 'R', '1'};
constexpr std::size_t kHeaderSize = 4 + 8 + 8 + 8;  // magic, key, size, checksum
constexpr const char* kEntrySuffix = ".msr";

/// Transient-failure budgets, one per I/O class so a flaky read path
/// cannot exhaust the write budget or vice versa.
constexpr RetryPolicy kReadRetry{.max_attempts = 3,
                                 .base_delay = std::chrono::milliseconds{1},
                                 .max_delay = std::chrono::milliseconds{20}};
constexpr RetryPolicy kWriteRetry{.max_attempts = 4,
                                  .base_delay = std::chrono::milliseconds{1},
                                  .max_delay = std::chrono::milliseconds{50}};
/// Seed for the backoff jitter streams (split per operation, so retries
/// stay deterministic under test yet decorrelated across threads).
constexpr std::uint64_t kRetrySeed = 0x5eed5eedULL;

struct StoreMetrics {
  obs::Counter& hits = obs::counter("store.hits");
  obs::Counter& misses = obs::counter("store.misses");
  obs::Counter& saves = obs::counter("store.saves");
  obs::Counter& save_failures = obs::counter("store.save_failures");
  obs::Counter& quarantined = obs::counter("store.quarantined");
  obs::Counter& retry_attempts = obs::counter("store.retry.attempts");
  obs::Counter& retry_exhausted = obs::counter("store.retry.exhausted");
  obs::Counter& fsck_removed_tmp = obs::counter("store.fsck.removed_tmp");

  static StoreMetrics& get() {
    static StoreMetrics m;
    return m;
  }
};

void put_u64_le(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_u64_le(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::uint64_t record_checksum(std::uint64_t key, std::string_view payload) {
  Hasher h;
  h.update_u64(key);
  h.update_bytes(payload);
  return h.finalize();
}

std::string key_hex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return std::string(buf);
}

/// Validates one framed record against `key` (pass nullptr to take the key
/// from the frame itself, as fsck does) and strips the header in place, so
/// `bytes` is left holding the payload.  False when any frame field fails
/// to check out.
bool parse_record(std::string& bytes, const std::uint64_t* expect_key,
                  std::uint64_t* frame_key = nullptr) {
  if (bytes.size() < kHeaderSize) return false;
  if (std::string_view(bytes.data(), 4) != std::string_view(kMagic, 4)) return false;
  const std::uint64_t key = get_u64_le(bytes.data() + 4);
  const std::uint64_t size = get_u64_le(bytes.data() + 12);
  const std::uint64_t checksum = get_u64_le(bytes.data() + 20);
  if (frame_key != nullptr) *frame_key = key;
  if (expect_key != nullptr && key != *expect_key) return false;
  if (bytes.size() != kHeaderSize + size) return false;
  if (record_checksum(key, std::string_view(bytes).substr(kHeaderSize)) != checksum) {
    return false;
  }
  bytes.erase(0, kHeaderSize);
  return true;
}

enum class ReadOutcome { kRead, kMissing, kFailed };

/// Reads the whole file at `path` into `out` with one open, fstat and read
/// (more only if the kernel returns it in pieces).  kMissing when no file
/// is there, kFailed on any other error.
ReadOutcome read_file(const fs::path& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno == ENOENT || errno == ENOTDIR ? ReadOutcome::kMissing
                                                         : ReadOutcome::kFailed;
  struct stat st {};
  ReadOutcome outcome = ReadOutcome::kFailed;
  if (::fstat(fd, &st) == 0) {
    out->resize(static_cast<std::size_t>(st.st_size));
    std::size_t done = 0;
    bool failed = false;
    while (done < out->size()) {
      const ssize_t n = ::read(fd, out->data() + done, out->size() - done);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
      } else if (n == 0) {
        break;  // the file shrank: the frame check judges what was read
      } else if (errno != EINTR) {
        failed = true;
        break;
      }
    }
    if (!failed) {
      out->resize(done);
      outcome = ReadOutcome::kRead;
    }
  }
  ::close(fd);
  return outcome;
}

}  // namespace

const char* to_string(LoadStatus status) {
  switch (status) {
    case LoadStatus::kHit: return "hit";
    case LoadStatus::kMiss: return "miss";
    case LoadStatus::kCorrupt: return "corrupt";
    case LoadStatus::kExhausted: return "exhausted";
    case LoadStatus::kCancelled: return "cancelled";
  }
  return "?";
}

std::unique_ptr<DiskScheduleStore> DiskScheduleStore::open(const StoreConfig& config,
                                                           std::string* error) {
  auto store =
      std::unique_ptr<DiskScheduleStore>(new DiskScheduleStore(config));
  std::error_code ec;
  fs::create_directories(store->quarantine_dir_, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create store directory " + store->dir_.string() + ": " +
               ec.message();
    }
    return nullptr;
  }
  // Probe writability up front so a read-only mount fails at open, not on
  // the first save deep inside a batch.
  const fs::path probe = store->dir_ / ".probe.tmp";
  {
    std::ofstream out(probe, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error != nullptr) {
        *error = "store directory not writable: " + store->dir_.string();
      }
      return nullptr;
    }
  }
  fs::remove(probe, ec);
  return store;
}

DiskScheduleStore::DiskScheduleStore(const StoreConfig& config)
    : dir_(config.dir), quarantine_dir_(dir_ / "quarantine") {}

fs::path DiskScheduleStore::entry_path(std::uint64_t key) const {
  return dir_ / (key_hex(key) + kEntrySuffix);
}

bool DiskScheduleStore::save_attempt(std::uint64_t key,
                                     std::string_view payload) {
  auto& faults = FaultInjector::global();
  if (faults.armed() && faults.should_fail("store.write.io_error")) {
    return false;
  }

  std::string record;
  record.reserve(kHeaderSize + payload.size());
  record.append(kMagic, 4);
  put_u64_le(&record, key);
  put_u64_le(&record, payload.size());
  put_u64_le(&record, record_checksum(key, payload));
  record.append(payload);

  // A torn write simulates a crash (or a non-atomic filesystem) between
  // write and fsync: the file is *published* with a truncated payload, and
  // the framing must catch it at load time.  The save itself reports
  // success, exactly as the crashed writer would have believed.
  if (faults.armed() && faults.should_fail("store.write.torn")) {
    record.resize(record.size() - payload.size() / 2 - 1);
  }

  const std::uint64_t n =
      op_counter_.fetch_add(1, std::memory_order_relaxed);
  const fs::path tmp = dir_ / (key_hex(key) + "." + std::to_string(n) + ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(record.data(), static_cast<std::streamsize>(record.size()));
    if (!out.good()) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, entry_path(key), ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

bool DiskScheduleStore::save(std::uint64_t key, std::string_view payload,
                             const CancelToken& cancel) {
  const std::uint64_t n = op_counter_.fetch_add(1, std::memory_order_relaxed);
  Rng jitter = Rng(kRetrySeed).split(n);
  RetryStats rs;
  const bool ok = retry_with_backoff(
      kWriteRetry, jitter,
      [&] { return save_attempt(key, payload); }, cancel, &rs);
  auto& m = StoreMetrics::get();
  if (rs.attempts > 1) {
    const auto extra = static_cast<std::uint64_t>(rs.attempts - 1);
    m.retry_attempts.add(extra);
    retry_attempts_.fetch_add(extra, std::memory_order_relaxed);
  }
  if (ok) {
    m.saves.add();
    saves_.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (!rs.cancelled) m.retry_exhausted.add();
    m.save_failures.add();
    save_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  return ok;
}

bool DiskScheduleStore::load_attempt(std::uint64_t key,
                                     std::optional<std::string>* out,
                                     bool* corrupt) {
  auto& faults = FaultInjector::global();
  if (faults.armed() && faults.should_fail("store.read.io_error")) {
    return false;
  }
  const fs::path path = entry_path(key);
  std::string bytes;
  switch (read_file(path, &bytes)) {
    case ReadOutcome::kMissing:
      *out = std::nullopt;  // definitive miss, no retry
      return true;
    case ReadOutcome::kFailed:
      return false;  // transient: retry
    case ReadOutcome::kRead:
      break;
  }

  if (faults.armed() && bytes.size() > kHeaderSize &&
      faults.should_fail("store.read.corrupt")) {
    bytes[kHeaderSize + bytes.size() % (bytes.size() - kHeaderSize)] ^= 0x40;
  }

  if (!parse_record(bytes, &key)) {
    quarantine_file(path);
    *out = std::nullopt;
    *corrupt = true;
    return true;  // definitive corrupt, no retry
  }
  *out = std::move(bytes);
  return true;
}

std::optional<std::string> DiskScheduleStore::load(std::uint64_t key,
                                                   const CancelToken& cancel,
                                                   LoadStatus* status) {
  const std::uint64_t n = op_counter_.fetch_add(1, std::memory_order_relaxed);
  Rng jitter = Rng(kRetrySeed).split(n);
  std::optional<std::string> result;
  bool corrupt = false;
  RetryStats rs;
  const bool completed = retry_with_backoff(
      kReadRetry, jitter,
      [&] { return load_attempt(key, &result, &corrupt); }, cancel, &rs);
  auto& m = StoreMetrics::get();
  if (rs.attempts > 1) {
    const auto extra = static_cast<std::uint64_t>(rs.attempts - 1);
    m.retry_attempts.add(extra);
    retry_attempts_.fetch_add(extra, std::memory_order_relaxed);
  }
  if (!completed && !rs.cancelled) m.retry_exhausted.add();
  if (completed && result.has_value()) {
    m.hits.add();
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    m.misses.add();
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  if (status != nullptr) {
    if (!completed) {
      *status = rs.cancelled ? LoadStatus::kCancelled : LoadStatus::kExhausted;
    } else if (result.has_value()) {
      *status = LoadStatus::kHit;
    } else {
      *status = corrupt ? LoadStatus::kCorrupt : LoadStatus::kMiss;
    }
  }
  return result;
}

void DiskScheduleStore::quarantine(std::uint64_t key) {
  std::error_code ec;
  const fs::path path = entry_path(key);
  if (fs::exists(path, ec) && !ec) quarantine_file(path);
}

void DiskScheduleStore::quarantine_file(const fs::path& path) {
  const std::uint64_t n = op_counter_.fetch_add(1, std::memory_order_relaxed);
  const fs::path dest =
      quarantine_dir_ / (path.filename().string() + "." + std::to_string(n));
  std::error_code ec;
  fs::rename(path, dest, ec);
  if (ec) fs::remove(path, ec);  // preserving failed; at least drop the bad entry
  StoreMetrics::get().quarantined.add();
  quarantined_.fetch_add(1, std::memory_order_relaxed);
}

FsckReport DiskScheduleStore::verify_store() {
  FsckReport report;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const fs::path& path = entry.path();
    if (path.extension() == ".tmp") {
      // A crashed writer's unpublished temp file: safe to discard, the
      // entry it was replacing (if any) is still intact.
      std::error_code rm;
      fs::remove(path, rm);
      ++report.removed_tmp;
      StoreMetrics::get().fsck_removed_tmp.add();
      continue;
    }
    if (path.extension() != kEntrySuffix) continue;
    ++report.scanned;
    std::string bytes;
    std::uint64_t frame_key = 0;
    const bool valid = read_file(path, &bytes) == ReadOutcome::kRead &&
                       parse_record(bytes, nullptr, &frame_key);
    // The filename must agree with the framed key, otherwise a renamed or
    // cross-copied entry would serve the wrong schedule.
    if (valid && path.filename().string() == key_hex(frame_key) + kEntrySuffix) {
      ++report.valid;
    } else {
      quarantine_file(path);
      ++report.quarantined;
    }
  }
  return report;
}

std::uint64_t DiskScheduleStore::entry_count() const {
  std::uint64_t count = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.is_regular_file(ec) && entry.path().extension() == kEntrySuffix) {
      ++count;
    }
  }
  return count;
}

StoreStats DiskScheduleStore::stats() const {
  StoreStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.saves = saves_.load(std::memory_order_relaxed);
  s.save_failures = save_failures_.load(std::memory_order_relaxed);
  s.quarantined = quarantined_.load(std::memory_order_relaxed);
  s.retry_attempts = retry_attempts_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace msys::store
