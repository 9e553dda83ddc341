#include "reldev/core/site.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "reldev/net/inproc_transport.hpp"
#include "support/temp_dir.hpp"

namespace reldev::core {
namespace {

constexpr std::size_t kBlocks = 8;
constexpr std::size_t kBlockSize = 64;

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// One-site groups on a file store, bound to an in-process transport.
class SiteTest : public ::testing::TestWithParam<bool> {
 protected:
  Result<std::unique_ptr<Site>> open(std::size_t blocks = kBlocks) {
    SiteOptions options;
    options.store_path = path_;
    options.journal = GetParam();
    auto site = Site::open(0, GroupConfig::majority(1, blocks, kBlockSize),
                           transport_, options);
    if (site) transport_.bind(0, site.value().get());
    return site;
  }

  /// Open a fresh store, acknowledge one write, and shut the site down.
  void write_and_close(const storage::BlockData& data) {
    auto site = open();
    ASSERT_TRUE(site.is_ok()) << site.status().to_string();
    EXPECT_FALSE(site.value()->reopened());
    ASSERT_TRUE(site.value()->replica().write(3, data).is_ok());
    ASSERT_TRUE(site.value()->store().sync().is_ok());
    transport_.unbind(0);
  }

  test::TempDir dir_{"reldev_site"};
  const std::string path_ = (dir_.path() / "site0.rdev").string();
  net::InProcTransport transport_;
};

TEST_P(SiteTest, ReopenedSiteRecoversBeforeServing) {
  const storage::BlockData data(kBlockSize, std::byte{0x42});
  write_and_close(data);
  auto site = open();
  ASSERT_TRUE(site.is_ok()) << site.status().to_string();
  EXPECT_TRUE(site.value()->reopened());
  EXPECT_EQ(site.value()->replica().state(), SiteState::kAvailable);
  EXPECT_EQ(site.value()->replica().read(3).value(), data);
}

TEST_P(SiteTest, CorruptHeaderFailsAndLeavesTheFileAlone) {
  write_and_close(storage::BlockData(kBlockSize, std::byte{0x42}));
  {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(0);
    file.put('\0');  // the header magic's first byte
  }
  const std::string before = file_bytes(path_);
  auto site = open();
  EXPECT_EQ(site.status().code(), ErrorCode::kCorruption);
  EXPECT_EQ(file_bytes(path_), before);
}

TEST_P(SiteTest, GeometryMismatchFailsAndKeepsTheStore) {
  const storage::BlockData data(kBlockSize, std::byte{0x42});
  write_and_close(data);
  EXPECT_EQ(open(kBlocks * 2).status().code(), ErrorCode::kInvalidArgument);
  // Not recreated at the other geometry: the right one still finds the
  // acknowledged write.
  auto site = open();
  ASSERT_TRUE(site.is_ok()) << site.status().to_string();
  EXPECT_TRUE(site.value()->reopened());
  EXPECT_EQ(site.value()->replica().read(3).value(), data);
}

INSTANTIATE_TEST_SUITE_P(Stores, SiteTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "journal" : "file";
                         });

TEST(SchemeKindTest, NamesRoundTrip) {
  for (const auto kind : {SchemeKind::kVoting, SchemeKind::kAvailableCopy,
                          SchemeKind::kNaiveAvailableCopy}) {
    EXPECT_EQ(scheme_kind_from_name(scheme_kind_name(kind)).value(), kind);
  }
  EXPECT_EQ(scheme_kind_from_name("quorum").status().code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace reldev::core
