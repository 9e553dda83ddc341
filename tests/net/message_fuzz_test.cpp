// Decoder robustness: Message::decode must never crash, throw, or accept
// garbage silently — whatever bytes arrive. Three generators: pure random
// bytes, random truncations of valid messages, and random single-byte
// mutations of valid messages (which the frame CRC would normally catch;
// the decoder must still be safe on its own).
#include <gtest/gtest.h>

#include "reldev/net/message.hpp"
#include "reldev/util/rng.hpp"

namespace reldev::net {
namespace {

std::vector<Message> sample_messages() {
  storage::VersionVector vv(4);
  vv.set(2, 9);
  BlockData data(64, std::byte{0x7e});
  std::vector<Message> samples;
  samples.push_back({0, RangeVoteRequest{AccessKind::kRead, 1, 1}});
  samples.push_back({1, RangeVoteReply{1000, {7}}});
  samples.push_back({2, BatchFetchReply{{BlockUpdate{3, 3, data}}}});
  samples.push_back(
      {3, BatchWriteRequest{{BlockUpdate{1, 2, data}}, SiteSet{0, 1}}});
  samples.push_back({4, StateInfo{SiteState::kComatose, 42, SiteSet{2}}});
  samples.push_back({5, RepairRequest{vv}});
  samples.push_back(
      {6, RepairReply{vv, {BlockUpdate{0, 1, data}, BlockUpdate{2, 9, data}}}});
  samples.push_back({7, WasAvailableUpdate{SiteSet{0, 1, 2}, true}});
  samples.push_back({8, ClientWriteRequest{3, data}});
  samples.push_back({9, ErrorReply{2, "boom"}});
  samples.push_back({10, MultiBlockReadRequest{4, 3}});
  samples.push_back({11, MultiBlockReadReply{0, data}});
  samples.push_back({12, MultiBlockWriteRequest{2, data}});
  samples.push_back({13, MultiBlockWriteAck{1}});
  samples.push_back({14, RangeVoteRequest{AccessKind::kWrite, 0, 4}});
  samples.push_back({15, RangeVoteReply{1000, {1, 2, 3, 4}}});
  samples.push_back({16, BatchFetchRequest{{0, 2, 5}}});
  samples.push_back(
      {17, BatchFetchReply{{BlockUpdate{0, 1, data}, BlockUpdate{5, 2, data}}}});
  samples.push_back(
      {18, BatchWriteRequest{{BlockUpdate{1, 3, data}}, SiteSet{0, 2}}});
  samples.push_back({19, DigestRequest{8, 32}});
  samples.push_back(
      {20, DigestReply{8, {1, 0, 9}, {0xabad1dea, 0x0, 0x5eedc0de}}});
  return samples;
}

TEST(MessageFuzzTest, RandomBytesNeverCrash) {
  reldev::Rng rng(4242);
  int accepted = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_u64(0, 96));
    std::vector<std::byte> noise(size);
    for (auto& b : noise) {
      b = static_cast<std::byte>(rng.uniform_u64(0, 255));
    }
    auto decoded = Message::decode(noise);  // must not throw
    if (decoded.is_ok()) ++accepted;
  }
  // Random bytes occasionally form a tiny valid message (e.g. a
  // StateInquiry is 5 bytes); what matters is that nothing crashed and
  // acceptance is rare.
  EXPECT_LT(accepted, 600);
}

TEST(MessageFuzzTest, TruncationsAlwaysRejected) {
  for (const auto& message : sample_messages()) {
    const auto encoded = message.encode();
    for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
      std::vector<std::byte> prefix(encoded.begin(),
                                    encoded.begin() +
                                        static_cast<std::ptrdiff_t>(cut));
      auto decoded = Message::decode(prefix);
      EXPECT_FALSE(decoded.is_ok())
          << message.name() << " accepted a " << cut << "-byte prefix of "
          << encoded.size() << " bytes";
    }
  }
}

TEST(MessageFuzzTest, SingleByteMutationsNeverCrash) {
  reldev::Rng rng(777);
  for (const auto& message : sample_messages()) {
    const auto encoded = message.encode();
    for (int trial = 0; trial < 300; ++trial) {
      auto mutated = encoded;
      const auto position =
          static_cast<std::size_t>(rng.uniform_u64(0, mutated.size() - 1));
      mutated[position] ^=
          static_cast<std::byte>(rng.uniform_u64(1, 255));
      (void)Message::decode(mutated);  // outcome may be either; no crash
    }
  }
}

TEST(MessageFuzzTest, AppendedGarbageRejected) {
  reldev::Rng rng(99);
  for (const auto& message : sample_messages()) {
    auto encoded = message.encode();
    encoded.push_back(static_cast<std::byte>(rng.uniform_u64(0, 255)));
    EXPECT_FALSE(Message::decode(encoded).is_ok()) << message.name();
  }
}

TEST(MessageFuzzTest, EncodeDecodeIsStableUnderReencoding) {
  for (const auto& message : sample_messages()) {
    auto decoded = Message::decode(message.encode());
    ASSERT_TRUE(decoded.is_ok()) << message.name();
    EXPECT_EQ(decoded.value().encode(), message.encode()) << message.name();
  }
}

}  // namespace
}  // namespace reldev::net
