// Process-restart persistence: replicas built over FileBlockStore survive
// being destroyed and reconstructed from their store files — the moral
// equivalent of killing and restarting a site-server daemon. Was-available
// sets, versions, and payloads must all come back from disk, and the
// recovery protocol must run correctly against the reloaded state.
#include <gtest/gtest.h>

#include <filesystem>

#include "reldev/core/available_copy_replica.hpp"
#include "reldev/net/inproc_transport.hpp"
#include "reldev/storage/file_block_store.hpp"
#include "support/temp_dir.hpp"

namespace reldev::core {
namespace {

constexpr std::size_t kBlocks = 8;
constexpr std::size_t kBlockSize = 64;

storage::BlockData payload(std::uint8_t seed) {
  return storage::BlockData(kBlockSize, static_cast<std::byte>(seed));
}

/// A "site process": an AvailableCopyReplica over a file-backed store,
/// restartable in place.
class SiteProcess {
 public:
  SiteProcess(SiteId site, GroupConfig config, std::filesystem::path dir,
              net::InProcTransport& transport)
      : site_(site),
        config_(std::move(config)),
        path_((dir / ("site" + std::to_string(site) + ".rdev")).string()),
        transport_(transport) {
    auto created =
        storage::FileBlockStore::create(path_, kBlocks, kBlockSize);
    RELDEV_ASSERT(created.is_ok());
    store_ = std::move(created).value();
    replica_ = std::make_unique<AvailableCopyReplica>(site_, config_, *store_,
                                                      transport_);
    transport_.bind(site_, replica_.get());
  }

  /// Fail-stop kill: the replica object and its in-memory state vanish;
  /// only the store file remains.
  void kill() {
    replica_->crash();
    transport_.set_up(site_, false);
    replica_.reset();
    store_.reset();
  }

  /// Restart from disk; does NOT run recovery (callers drive that).
  void restart() {
    auto reopened = storage::FileBlockStore::open(path_);
    RELDEV_ASSERT(reopened.is_ok());
    store_ = std::move(reopened).value();
    replica_ = std::make_unique<AvailableCopyReplica>(site_, config_, *store_,
                                                      transport_);
    // A freshly restarted process is not yet recovered.
    replica_->crash();
    transport_.bind(site_, replica_.get());
    transport_.set_up(site_, true);
  }

  AvailableCopyReplica& replica() { return *replica_; }
  storage::FileBlockStore& store() { return *store_; }
  [[nodiscard]] bool alive() const noexcept { return replica_ != nullptr; }

 private:
  SiteId site_;
  GroupConfig config_;
  std::string path_;
  net::InProcTransport& transport_;
  std::unique_ptr<storage::FileBlockStore> store_;
  std::unique_ptr<AvailableCopyReplica> replica_;
};

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = GroupConfig::majority(3, kBlocks, kBlockSize);
    for (SiteId site = 0; site < 3; ++site) {
      sites_.push_back(std::make_unique<SiteProcess>(site, config_,
                                                     dir_.path(), transport_));
    }
  }

  // Declared before sites_, so the directory outlives the sites.
  test::TempDir dir_{"reldev_persist"};
  GroupConfig config_;
  net::InProcTransport transport_;
  std::vector<std::unique_ptr<SiteProcess>> sites_;
};

TEST_F(PersistenceTest, RestartedSiteRecoversMissedWritesFromDisk) {
  ASSERT_TRUE(sites_[0]->replica().write(0, payload(1)).is_ok());
  sites_[2]->kill();
  ASSERT_TRUE(sites_[0]->replica().write(1, payload(2)).is_ok());

  sites_[2]->restart();
  // Data written before the kill is already on site 2's disk.
  EXPECT_EQ(sites_[2]->store().read(0).value().data, payload(1));
  // The missed write is not (yet).
  EXPECT_EQ(sites_[2]->store().version_of(1).value(), 0u);

  ASSERT_TRUE(sites_[2]->replica().recover().is_ok());
  EXPECT_EQ(sites_[2]->replica().state(), SiteState::kAvailable);
  EXPECT_EQ(sites_[2]->store().read(1).value().data, payload(2));
}

TEST_F(PersistenceTest, WasAvailableSetSurvivesRestart) {
  sites_[2]->kill();
  ASSERT_TRUE(sites_[0]->replica().write(0, payload(3)).is_ok());
  EXPECT_EQ(sites_[0]->replica().was_available(), (SiteSet{0, 1}));

  // Restart site 0; its W must come back from the metadata region.
  sites_[0]->kill();
  sites_[0]->restart();
  EXPECT_EQ(sites_[0]->replica().was_available(), (SiteSet{0, 1}));
}

TEST_F(PersistenceTest, FullClusterRestartRespectsFailureOrder) {
  // Failure order 2, 1, 0 with writes in between; then every process is
  // killed and restarted. Only site 0 (failed last, W = {0}) may recover
  // alone; the others must wait for it even after a full restart.
  sites_[2]->kill();
  ASSERT_TRUE(sites_[0]->replica().write(0, payload(4)).is_ok());
  sites_[1]->kill();
  ASSERT_TRUE(sites_[0]->replica().write(1, payload(5)).is_ok());
  sites_[0]->kill();

  sites_[2]->restart();
  EXPECT_EQ(sites_[2]->replica().recover().code(),
            reldev::ErrorCode::kUnavailable);
  sites_[1]->restart();
  EXPECT_EQ(sites_[1]->replica().recover().code(),
            reldev::ErrorCode::kUnavailable);

  sites_[0]->restart();
  ASSERT_TRUE(sites_[0]->replica().recover().is_ok());
  ASSERT_TRUE(sites_[1]->replica().recover().is_ok());
  ASSERT_TRUE(sites_[2]->replica().recover().is_ok());

  for (const auto& site : sites_) {
    EXPECT_EQ(site->replica().read(0).value(), payload(4));
    EXPECT_EQ(site->replica().read(1).value(), payload(5));
  }
}

TEST_F(PersistenceTest, VersionsNeverRegressAcrossRestarts) {
  ASSERT_TRUE(sites_[0]->replica().write(0, payload(6)).is_ok());
  ASSERT_TRUE(sites_[0]->replica().write(0, payload(7)).is_ok());
  const auto before = sites_[1]->store().version_vector();
  sites_[1]->kill();
  sites_[1]->restart();
  const auto after = sites_[1]->store().version_vector();
  EXPECT_TRUE(after.dominates(before));
  EXPECT_TRUE(before.dominates(after));  // exactly equal, in fact
}

}  // namespace
}  // namespace reldev::core
