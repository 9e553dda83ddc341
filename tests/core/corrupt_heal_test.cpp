// Self-healing regression: a block whose LOCAL record rots (CRC mismatch
// at read time) must behave exactly like an out-of-date copy — every
// engine demotes it and refills it from peers, and the damaged bytes are
// never served to a client.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "reldev/core/group.hpp"
#include "support/temp_dir.hpp"

namespace reldev::core {
namespace {

constexpr std::size_t kSites = 3;
constexpr std::size_t kBlocks = 8;
constexpr std::size_t kBlockSize = 64;

storage::BlockData payload(std::uint8_t tag) {
  return storage::BlockData(kBlockSize, static_cast<std::byte>(tag));
}

class CorruptHealTest : public ::testing::TestWithParam<SchemeKind> {
 protected:
  CorruptHealTest() {
    PersistentOptions persist;
    persist.directory = dir_.path().string();
    group_.emplace(GetParam(),
                   GroupConfig::majority(kSites, kBlocks, kBlockSize),
                   persist);
  }

  /// Rot `block`'s payload bytes in site's file behind the store's back:
  /// the record header (version + CRC) stays, so the next read of the
  /// block fails its checksum.
  void rot_block(SiteId site, BlockId block) {
    auto& inner = group_->crash_points(site).inner();
    const storage::BlockData junk(16, std::byte{0xBD});
    ASSERT_TRUE(inner
                    .raw_write_at(inner.block_record_offset(block) +
                                      storage::FileBlockStore::
                                          kBlockRecordHeader,
                                  junk)
                    .is_ok());
  }

  // Declared before group_, so the directory outlives the group.
  test::TempDir dir_{"reldev_heal"};
  std::optional<ReplicaGroup> group_;
};

TEST_P(CorruptHealTest, CorruptLocalReadHealsFromPeers) {
  // Establish a replicated value everybody holds.
  ASSERT_TRUE(group_->write(0, 3, payload(0x11)).is_ok());
  ASSERT_TRUE(group_->write(0, 3, payload(0x22)).is_ok());
  for (SiteId site = 0; site < kSites; ++site) {
    ASSERT_TRUE(group_->sync_site(site).is_ok());
  }
  rot_block(0, 3);
  // Raw store read through site 0 now fails its CRC...
  EXPECT_EQ(group_->store(0).read(3).status().code(), ErrorCode::kCorruption);
  // ...but the protocol read must heal from the peers and serve the data.
  auto healed = group_->read(0, 3);
  ASSERT_TRUE(healed.is_ok()) << healed.status().to_string();
  EXPECT_EQ(healed.value(), payload(0x22));
  // The local copy was repaired in place: version restored, raw read fine.
  auto local = group_->store(0).read(3);
  ASSERT_TRUE(local.is_ok());
  EXPECT_EQ(local.value().version, 2u);
  EXPECT_EQ(local.value().data, payload(0x22));
}

TEST_P(CorruptHealTest, CorruptBlockNeverServedToPeers) {
  ASSERT_TRUE(group_->write(0, 5, payload(0x33)).is_ok());
  rot_block(1, 5);
  // A read through the damaged site must still produce the good bytes
  // (healed locally or served from an intact copy) — never the junk.
  auto via_damaged = group_->read(1, 5);
  ASSERT_TRUE(via_damaged.is_ok()) << via_damaged.status().to_string();
  EXPECT_EQ(via_damaged.value(), payload(0x33));
  // And reads through the intact sites are unaffected.
  auto via_intact = group_->read(2, 5);
  ASSERT_TRUE(via_intact.is_ok());
  EXPECT_EQ(via_intact.value(), payload(0x33));
}

TEST_P(CorruptHealTest, VectoredReadHealsCorruptBlockInRange) {
  const storage::BlockData one = payload(0x44);
  storage::BlockData range;
  for (int i = 0; i < 4; ++i) {
    range.insert(range.end(), one.begin(), one.end());
  }
  ASSERT_TRUE(group_->write_range(0, 2, range).is_ok());
  rot_block(0, 4);  // inside the [2, 6) range
  group_->meter().reset();
  auto data = group_->read_range(0, 2, 4);
  ASSERT_TRUE(data.is_ok()) << data.status().to_string();
  EXPECT_EQ(data.value(), range);
  if (GetParam() == SchemeKind::kVoting) {
    // The heal rides on the range's own votes: one range vote round
    // (1 query + 2 replies) plus one fetch of the corrupt block from its
    // best peer voter (request + reply) — no second vote round.
    EXPECT_EQ(group_->meter().total(), 5u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, CorruptHealTest,
    ::testing::Values(SchemeKind::kVoting, SchemeKind::kAvailableCopy,
                      SchemeKind::kNaiveAvailableCopy),
    [](const auto& param_info) {
      std::string name = scheme_kind_name(param_info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace reldev::core
