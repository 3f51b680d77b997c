// DiskScheduleStore contract: round-trips are exact, every corruption
// shape (truncation, bit flips, renamed entries, torn fault-injected
// writes) is detected and quarantined rather than returned, saves are
// atomic, transient I/O errors are retried within budget, and
// verify_store() repairs a damaged directory in one sweep.
#include "msys/store/disk_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "msys/common/fault_injector.hpp"
#include "testing/scratch.hpp"

namespace msys::store {
namespace {

namespace fs = std::filesystem;

class DiskStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::scratch_dir();
    fs::remove_all(dir_);
    StoreConfig config;
    config.dir = dir_.string();
    std::string error;
    store_ = DiskScheduleStore::open(config, &error);
    ASSERT_NE(store_, nullptr) << error;
  }

  void TearDown() override {
    // The store consults the process-wide injector; never leak an arming
    // into other tests in this binary.
    FaultInjector::global().disarm();
    store_.reset();
    fs::remove_all(dir_);
  }

  /// The single entry file in the store root (fails the test when the
  /// count differs from one).
  fs::path sole_entry() {
    fs::path found;
    int count = 0;
    for (const fs::directory_entry& e : fs::directory_iterator(dir_)) {
      if (e.is_regular_file() && e.path().extension() == ".msr") {
        found = e.path();
        ++count;
      }
    }
    EXPECT_EQ(count, 1);
    return found;
  }

  std::uint64_t quarantined_files() {
    const fs::path q = dir_ / "quarantine";
    if (!fs::exists(q)) return 0;
    std::uint64_t n = 0;
    for (const fs::directory_entry& e : fs::directory_iterator(q)) {
      if (e.is_regular_file()) ++n;
    }
    return n;
  }

  fs::path dir_;
  std::unique_ptr<DiskScheduleStore> store_;
};

TEST_F(DiskStoreTest, RoundTripIsExact) {
  const std::string payload = "schedule bytes \0 with embedded nul";
  ASSERT_TRUE(store_->save(0xabcdef0123456789ULL, payload));
  const auto loaded = store_->load(0xabcdef0123456789ULL);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, payload);
  EXPECT_EQ(store_->entry_count(), 1u);
  EXPECT_EQ(store_->stats().hits, 1u);
  EXPECT_EQ(store_->stats().saves, 1u);
}

TEST_F(DiskStoreTest, AbsentKeyIsAMiss) {
  EXPECT_FALSE(store_->load(42).has_value());
  EXPECT_EQ(store_->stats().misses, 1u);
}

TEST_F(DiskStoreTest, SaveOverwritesAtomically) {
  ASSERT_TRUE(store_->save(7, "old"));
  ASSERT_TRUE(store_->save(7, "new"));
  EXPECT_EQ(store_->entry_count(), 1u);
  EXPECT_EQ(store_->load(7).value_or(""), "new");
}

TEST_F(DiskStoreTest, EmptyPayloadRoundTrips) {
  ASSERT_TRUE(store_->save(9, ""));
  const auto loaded = store_->load(9);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
}

TEST_F(DiskStoreTest, TruncatedEntryIsQuarantinedNotReturned) {
  ASSERT_TRUE(store_->save(11, "a payload long enough to truncate meaningfully"));
  const fs::path entry = sole_entry();
  fs::resize_file(entry, fs::file_size(entry) / 2);
  EXPECT_FALSE(store_->load(11).has_value());
  EXPECT_EQ(store_->stats().quarantined, 1u);
  EXPECT_EQ(quarantined_files(), 1u);
  EXPECT_EQ(store_->entry_count(), 0u);  // gone from the serving set
}

TEST_F(DiskStoreTest, BitFlipIsCaughtByTheChecksum) {
  ASSERT_TRUE(store_->save(12, "payload whose checksum must catch a flip"));
  const fs::path entry = sole_entry();
  {
    std::string bytes;
    {
      std::ifstream in(entry, std::ios::binary);
      ASSERT_TRUE(in.good());
      std::ostringstream buf;
      buf << in.rdbuf();
      bytes = buf.str();
    }
    bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x01);
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_FALSE(store_->load(12).has_value());
  EXPECT_EQ(store_->stats().quarantined, 1u);
  // The entry can be recomputed and re-saved afterwards.
  ASSERT_TRUE(store_->save(12, "payload whose checksum must catch a flip"));
  EXPECT_TRUE(store_->load(12).has_value());
}

TEST_F(DiskStoreTest, GarbageFileIsQuarantined) {
  ASSERT_TRUE(store_->save(13, "valid"));
  const fs::path entry = sole_entry();
  {
    std::ofstream f(entry, std::ios::binary | std::ios::trunc);
    f << "not a framed record at all";
  }
  EXPECT_FALSE(store_->load(13).has_value());
  EXPECT_EQ(quarantined_files(), 1u);
}

TEST_F(DiskStoreTest, VerifyStoreSweepsTempFilesAndBadEntries) {
  ASSERT_TRUE(store_->save(1, "good one"));
  ASSERT_TRUE(store_->save(2, "good two"));
  ASSERT_TRUE(store_->save(3, "will be truncated"));
  // A crashed writer's leftovers: a stale temp file and a truncated entry.
  { std::ofstream(dir_ / "dead-writer.tmp") << "partial"; }
  for (const fs::directory_entry& e : fs::directory_iterator(dir_)) {
    if (e.is_regular_file() && e.path().extension() == ".msr" &&
        fs::file_size(e.path()) > 0) {
      // Truncate exactly one entry (the iteration order does not matter —
      // any one of the three keys serves).
      fs::resize_file(e.path(), fs::file_size(e.path()) - 5);
      break;
    }
  }
  const FsckReport report = store_->verify_store();
  EXPECT_EQ(report.scanned, 3u);
  EXPECT_EQ(report.valid, 2u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.removed_tmp, 1u);
  EXPECT_FALSE(report.clean());
  // A second sweep finds a healthy store.
  const FsckReport again = store_->verify_store();
  EXPECT_EQ(again.scanned, 2u);
  EXPECT_EQ(again.valid, 2u);
  EXPECT_TRUE(again.clean());
}

TEST_F(DiskStoreTest, VerifyStoreCatchesAnEntryFiledUnderTheWrongKey) {
  ASSERT_TRUE(store_->save(21, "content addressed"));
  const fs::path entry = sole_entry();
  // A rename (fs corruption, manual tampering) breaks filename==frame-key.
  fs::rename(entry, entry.parent_path() / "00000000000000ff.msr");
  const FsckReport report = store_->verify_store();
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_FALSE(store_->load(0xff).has_value());
  EXPECT_FALSE(store_->load(21).has_value());
}

// ---------------------------------------------------------------------------
// Fault-injected behaviour (the store consults FaultInjector::global()).
// ---------------------------------------------------------------------------

TEST_F(DiskStoreTest, TornWritesReportSuccessButNeverServeBadBytes) {
  // A torn write is a simulated crash: the writer believed it succeeded,
  // so save() returns true — the *reader* must catch it.
  FaultInjector::global().arm(5);
  FaultInjector::global().set_site("store.write.torn", {1, 1, 0});
  ASSERT_TRUE(store_->save(31, "a payload that will be torn in half on disk"));
  FaultInjector::global().disarm();
  EXPECT_FALSE(store_->load(31).has_value());
  EXPECT_EQ(store_->stats().quarantined, 1u);
}

TEST_F(DiskStoreTest, VerifyStoreRepairsAFullyTornStore) {
  FaultInjector::global().arm(6);
  FaultInjector::global().set_site("store.write.torn", {1, 1, 0});
  for (std::uint64_t key = 1; key <= 8; ++key) {
    ASSERT_TRUE(store_->save(key, "torn payload " + std::to_string(key)));
  }
  FaultInjector::global().disarm();
  const FsckReport report = store_->verify_store();
  EXPECT_EQ(report.scanned, 8u);
  EXPECT_EQ(report.valid, 0u);
  EXPECT_EQ(report.quarantined, 8u);
  EXPECT_TRUE(store_->verify_store().clean());
  EXPECT_EQ(store_->entry_count(), 0u);
}

TEST_F(DiskStoreTest, TransientWriteErrorsAreRetriedWithinBudget) {
  // Roughly half the write attempts fail; the 4-attempt budget still
  // lands every save, and the retry counter proves the loop ran.
  FaultInjector::global().arm(7);
  FaultInjector::global().set_site("store.write.io_error", {1, 2, 0});
  int landed = 0;
  for (std::uint64_t key = 1; key <= 16; ++key) {
    if (store_->save(key, "retried payload")) ++landed;
  }
  FaultInjector::global().disarm();
  // A save only fails when all 4 budgeted attempts draw a fault (~1/16);
  // demand a clear majority rather than exact per-key determinism.
  EXPECT_GE(landed, 12);
  EXPECT_EQ(store_->entry_count(), static_cast<std::uint64_t>(landed));
  EXPECT_GT(store_->stats().retry_attempts, 0u);
}

TEST_F(DiskStoreTest, TransientReadErrorsAreRetriedWithinBudget) {
  ASSERT_TRUE(store_->save(55, "read me through the noise"));
  FaultInjector::global().arm(8);
  FaultInjector::global().set_site("store.read.io_error", {1, 2, 0});
  int served = 0;
  for (int i = 0; i < 16; ++i) {
    if (store_->load(55).has_value()) ++served;
  }
  FaultInjector::global().disarm();
  // The 3-attempt read budget absorbs a 1/2 failure rate almost always;
  // demand a clear majority rather than exact determinism here.
  EXPECT_GE(served, 12);
  EXPECT_GT(store_->stats().retry_attempts, 0u);
}

TEST_F(DiskStoreTest, ExhaustedWriteBudgetFailsStructurally) {
  FaultInjector::global().arm(9);
  FaultInjector::global().set_site("store.write.io_error", {1, 1, 0});
  EXPECT_FALSE(store_->save(61, "never lands"));
  FaultInjector::global().disarm();
  EXPECT_EQ(store_->entry_count(), 0u);
  EXPECT_EQ(store_->stats().save_failures, 1u);
}

TEST_F(DiskStoreTest, PreFiredCancelStopsASave) {
  CancelSource source;
  source.request_cancel();
  FaultInjector::global().arm(10);
  FaultInjector::global().set_site("store.write.io_error", {1, 1, 0});
  EXPECT_FALSE(store_->save(62, "cancelled", source.token()));
  FaultInjector::global().disarm();
}

TEST(DiskStoreOpen, UnwritableDirectoryFailsWithAnExplanation) {
  StoreConfig config;
  config.dir = "/proc/definitely-not-writable/store";
  std::string error;
  EXPECT_EQ(DiskScheduleStore::open(config, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace msys::store
