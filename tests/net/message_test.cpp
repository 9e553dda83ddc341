#include "reldev/net/message.hpp"

#include <gtest/gtest.h>

namespace reldev::net {
namespace {

BlockData payload(std::size_t size, std::uint8_t seed) {
  BlockData data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::byte>((seed + 3 * i) & 0xff);
  }
  return data;
}

template <typename T>
T round_trip(SiteId from, T value) {
  const Message original{from, std::move(value)};
  const auto encoded = original.encode();
  auto decoded = Message::decode(encoded);
  EXPECT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().from, from);
  EXPECT_TRUE(decoded.value().template holds<T>())
      << "decoded as " << decoded.value().name();
  return decoded.value().template as<T>();
}

TEST(MessageTest, WriteAllRoundTrip) {
  // The write-all ack answers every grouped write push.
  round_trip(4, WriteAllAck{});
  EXPECT_STREQ((Message{4, WriteAllAck{}}).name(), "write-all-ack");
}

TEST(MessageTest, StateMessagesRoundTrip) {
  round_trip(0, StateInquiry{});
  const auto m = round_trip(
      2, StateInfo{SiteState::kComatose, 123, SiteSet{1, 2}});
  EXPECT_EQ(m.state, SiteState::kComatose);
  EXPECT_EQ(m.version_total, 123u);
  EXPECT_EQ(m.was_available, (SiteSet{1, 2}));
}

TEST(MessageTest, RepairMessagesRoundTrip) {
  storage::VersionVector vv(3);
  vv.set(1, 4);
  const auto req = round_trip(1, RepairRequest{vv});
  EXPECT_EQ(req.versions, vv);

  RepairReply reply;
  reply.versions = vv;
  reply.blocks.push_back(BlockUpdate{1, 4, payload(8, 4)});
  reply.blocks.push_back(BlockUpdate{2, 2, payload(8, 5)});
  const auto rep = round_trip(2, std::move(reply));
  EXPECT_EQ(rep.versions, vv);
  ASSERT_EQ(rep.blocks.size(), 2u);
  EXPECT_EQ(rep.blocks[0].block, 1u);
  EXPECT_EQ(rep.blocks[1].data, payload(8, 5));
}

TEST(MessageTest, WasAvailableRoundTrip) {
  const auto m = round_trip(3, WasAvailableUpdate{SiteSet{0, 3}, true});
  EXPECT_EQ(m.was_available, (SiteSet{0, 3}));
  EXPECT_TRUE(m.replace);
  round_trip(3, WasAvailableAck{});
}

TEST(MessageTest, ClientMessagesRoundTrip) {
  EXPECT_EQ(round_trip(9, ClientReadRequest{6}).block, 6u);
  const auto rr = round_trip(1, ClientReadReply{0, payload(16, 6)});
  EXPECT_EQ(rr.error_code, 0);
  EXPECT_EQ(rr.data, payload(16, 6));
  const auto wr = round_trip(9, ClientWriteRequest{2, payload(16, 7)});
  EXPECT_EQ(wr.block, 2u);
  EXPECT_EQ(round_trip(1, ClientWriteReply{1}).error_code, 1);
}

TEST(MessageTest, DeviceInfoRoundTrip) {
  round_trip(9, DeviceInfoRequest{});
  const auto m = round_trip(1, DeviceInfoReply{1024, 512});
  EXPECT_EQ(m.block_count, 1024u);
  EXPECT_EQ(m.block_size, 512u);
}

TEST(MessageTest, ErrorReplyRoundTrip) {
  const auto m = round_trip(1, ErrorReply{3, "bad things"});
  EXPECT_EQ(m.error_code, 3);
  EXPECT_EQ(m.message, "bad things");
}

TEST(MessageTest, MakeErrorCarriesStatus) {
  const Message m = make_error(5, reldev::errors::unavailable("down"));
  ASSERT_TRUE(m.holds<ErrorReply>());
  EXPECT_EQ(m.as<ErrorReply>().error_code,
            static_cast<std::uint8_t>(reldev::ErrorCode::kUnavailable));
  EXPECT_EQ(m.as<ErrorReply>().message, "down");
}

TEST(MessageTest, DecodeRejectsUnknownTag) {
  reldev::BufferWriter writer;
  writer.put_u32(0);   // from
  writer.put_u8(250);  // bogus tag
  EXPECT_EQ(Message::decode(writer.bytes()).status().code(),
            reldev::ErrorCode::kProtocol);
}

TEST(MessageTest, RetiredTagsDecodeAsProtocolError) {
  // Tags 0-5 belonged to the retired single-block messages; they stay
  // reserved, so an old peer's frame is refused rather than misread.
  for (std::uint8_t tag = 0; tag <= 5; ++tag) {
    reldev::BufferWriter writer;
    writer.put_u32(0);  // from
    writer.put_u8(tag);
    writer.put_u64(1);  // a plausible body
    EXPECT_EQ(Message::decode(writer.bytes()).status().code(),
              reldev::ErrorCode::kProtocol)
        << "tag " << static_cast<int>(tag);
  }
}

TEST(MessageTest, DecodeRejectsTrailingBytes) {
  Message m{1, StateInquiry{}};
  auto encoded = m.encode();
  encoded.push_back(std::byte{0});
  EXPECT_EQ(Message::decode(encoded).status().code(),
            reldev::ErrorCode::kProtocol);
}

TEST(MessageTest, DecodeRejectsTruncation) {
  Message m{1, BatchWriteRequest{{BlockUpdate{0, 1, payload(64, 1)}}, {}}};
  auto encoded = m.encode();
  encoded.resize(encoded.size() / 2);
  EXPECT_FALSE(Message::decode(encoded).is_ok());
}

TEST(MessageTest, NamesAreDistinctive) {
  EXPECT_STREQ((Message{0, RangeVoteRequest{AccessKind::kRead, 0, 1}}).name(),
               "range-vote-request");
  EXPECT_STREQ((Message{0, RepairReply{}}).name(), "repair-reply");
  EXPECT_STREQ((Message{0, ErrorReply{0, ""}}).name(), "error-reply");
}

TEST(MessageTest, SiteStateNames) {
  EXPECT_STREQ(site_state_name(SiteState::kFailed), "failed");
  EXPECT_STREQ(site_state_name(SiteState::kComatose), "comatose");
  EXPECT_STREQ(site_state_name(SiteState::kAvailable), "available");
}

TEST(MessageTest, MultiBlockMessagesRoundTrip) {
  const auto req = round_trip(1, MultiBlockReadRequest{9, 4});
  EXPECT_EQ(req.first, 9u);
  EXPECT_EQ(req.count, 4u);

  const auto rep = round_trip(2, MultiBlockReadReply{0, payload(256, 4)});
  EXPECT_EQ(rep.error_code, 0u);
  EXPECT_EQ(rep.data, payload(256, 4));

  const auto wreq = round_trip(3, MultiBlockWriteRequest{5, payload(128, 5)});
  EXPECT_EQ(wreq.first, 5u);
  EXPECT_EQ(wreq.data, payload(128, 5));

  const auto ack = round_trip(4, MultiBlockWriteAck{3});
  EXPECT_EQ(ack.error_code, 3u);
}

TEST(MessageTest, RangeVoteMessagesRoundTrip) {
  const auto req = round_trip(0, RangeVoteRequest{AccessKind::kWrite, 2, 7});
  EXPECT_EQ(req.access, AccessKind::kWrite);
  EXPECT_EQ(req.first, 2u);
  EXPECT_EQ(req.count, 7u);

  const auto rep = round_trip(1, RangeVoteReply{1001, {3, 0, 12}});
  EXPECT_EQ(rep.weight_millivotes, 1001u);
  EXPECT_EQ(rep.versions, (std::vector<VersionNumber>{3, 0, 12}));
}

TEST(MessageTest, BatchFetchMessagesRoundTrip) {
  const auto req = round_trip(2, BatchFetchRequest{{1, 4, 9}});
  EXPECT_EQ(req.blocks, (std::vector<BlockId>{1, 4, 9}));

  BatchFetchReply reply;
  reply.updates.push_back(BlockUpdate{1, 5, payload(32, 6)});
  reply.updates.push_back(BlockUpdate{9, 2, payload(32, 7)});
  const auto rep = round_trip(3, reply);
  ASSERT_EQ(rep.updates.size(), 2u);
  EXPECT_EQ(rep.updates[0].block, 1u);
  EXPECT_EQ(rep.updates[0].version, 5u);
  EXPECT_EQ(rep.updates[1].data, payload(32, 7));
}

TEST(MessageTest, BatchWriteRequestRoundTrip) {
  BatchWriteRequest push;
  push.updates.push_back(BlockUpdate{0, 1, payload(16, 8)});
  push.updates.push_back(BlockUpdate{1, 1, payload(16, 9)});
  push.was_available = SiteSet{0, 2, 3};
  const auto m = round_trip(4, push);
  ASSERT_EQ(m.updates.size(), 2u);
  EXPECT_EQ(m.updates[1].data, payload(16, 9));
  EXPECT_EQ(m.was_available, (SiteSet{0, 2, 3}));
}

TEST(MessageTest, DigestMessagesRoundTrip) {
  const auto req = round_trip(1, DigestRequest{16, 64});
  EXPECT_EQ(req.first, 16u);
  EXPECT_EQ(req.count, 64u);

  DigestReply reply;
  reply.first = 16;
  reply.versions = {3, 0, 12};
  reply.digests = {0xdeadbeef, 0x0, 0xffffffff};
  const auto rep = round_trip(2, reply);
  EXPECT_EQ(rep.first, 16u);
  EXPECT_EQ(rep.versions, (std::vector<VersionNumber>{3, 0, 12}));
  EXPECT_EQ(rep.digests,
            (std::vector<std::uint32_t>{0xdeadbeef, 0x0, 0xffffffff}));
}

TEST(MessageTest, DigestReplyWithUnparallelVectorsIsRejected) {
  // The two vectors must stay parallel; a reply where they diverge in
  // length must be refused as a protocol error, not decoded lopsided.
  DigestReply lopsided;
  lopsided.first = 0;
  lopsided.versions = {1, 2};
  lopsided.digests = {0x1};
  const auto encoded = Message{0, lopsided}.encode();
  auto decoded = Message::decode(encoded);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), reldev::ErrorCode::kProtocol);
}

TEST(MessageTest, BatchMessageNames) {
  EXPECT_STREQ((Message{0, MultiBlockReadRequest{0, 1}}).name(),
               "multi-block-read-request");
  EXPECT_STREQ((Message{0, RangeVoteReply{}}).name(), "range-vote-reply");
  EXPECT_STREQ((Message{0, BatchWriteRequest{}}).name(),
               "batch-write-request");
}

}  // namespace
}  // namespace reldev::net
