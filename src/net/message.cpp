#include "reldev/net/message.hpp"

#include <algorithm>

#include "reldev/util/serial.hpp"

namespace reldev::net {

namespace {

// Wire tags; never renumbered once released (append only). Retired tags
// stay reserved and decode as kProtocol: 0-5 belonged to the single-block
// peer messages (vote request/reply, block fetch request/reply, block
// update, write-all request), 13-16 to the single-block client messages
// (client read request/reply, client write request/reply).
enum class Tag : std::uint8_t {
  kWriteAllAck = 6,
  kStateInquiry,
  kStateInfo,
  kRepairRequest,
  kRepairReply,
  kWasAvailableUpdate,
  kWasAvailableAck,
  kDeviceInfoRequest = 17,
  kDeviceInfoReply,
  kErrorReply,
  kMultiBlockReadRequest,
  kMultiBlockReadReply,
  kMultiBlockWriteRequest,
  kMultiBlockWriteAck,
  kRangeVoteRequest,
  kRangeVoteReply,
  kBatchFetchRequest,
  kBatchFetchReply,
  kBatchWriteRequest,
  kDigestRequest,
  kDigestReply,
};

void put_site_set(BufferWriter& w, const SiteSet& set) {
  std::vector<std::uint64_t> members(set.begin(), set.end());
  w.put_u64_vector(members);
}

Result<SiteSet> get_site_set(BufferReader& r) {
  auto members = r.get_u64_vector();
  if (!members) return members.status();
  SiteSet set;
  for (const auto m : members.value()) set.insert(static_cast<SiteId>(m));
  return set;
}

void put_block_data(BufferWriter& w, const BlockData& data) {
  w.put_bytes(data);
}

Result<BlockData> get_block_data(BufferReader& r) { return r.get_bytes(); }

void put_block_update(BufferWriter& w, const BlockUpdate& u) {
  w.put_u64(u.block);
  w.put_u64(u.version);
  put_block_data(w, u.data);
}

Result<BlockUpdate> get_block_update(BufferReader& r) {
  BlockUpdate u;
  auto block = r.get_u64();
  if (!block) return block.status();
  u.block = block.value();
  auto version = r.get_u64();
  if (!version) return version.status();
  u.version = version.value();
  auto data = get_block_data(r);
  if (!data) return data.status();
  u.data = std::move(data).value();
  return u;
}

struct Encoder {
  BufferWriter& w;

  void operator()(const WriteAllAck&) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kWriteAllAck));
  }
  void operator()(const StateInquiry&) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kStateInquiry));
  }
  void operator()(const StateInfo& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kStateInfo));
    w.put_u8(static_cast<std::uint8_t>(m.state));
    w.put_u64(m.version_total);
    put_site_set(w, m.was_available);
  }
  void operator()(const RepairRequest& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kRepairRequest));
    m.versions.encode(w);
  }
  void operator()(const RepairReply& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kRepairReply));
    m.versions.encode(w);
    w.put_u32(static_cast<std::uint32_t>(m.blocks.size()));
    for (const auto& block : m.blocks) put_block_update(w, block);
  }
  void operator()(const WasAvailableUpdate& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kWasAvailableUpdate));
    put_site_set(w, m.was_available);
    w.put_bool(m.replace);
  }
  void operator()(const WasAvailableAck&) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kWasAvailableAck));
  }
  void operator()(const DeviceInfoRequest&) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kDeviceInfoRequest));
  }
  void operator()(const DeviceInfoReply& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kDeviceInfoReply));
    w.put_u64(m.block_count);
    w.put_u64(m.block_size);
  }
  void operator()(const ErrorReply& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kErrorReply));
    w.put_u8(m.error_code);
    w.put_string(m.message);
  }
  void operator()(const MultiBlockReadRequest& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kMultiBlockReadRequest));
    w.put_u64(m.first);
    w.put_u32(m.count);
  }
  void operator()(const MultiBlockReadReply& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kMultiBlockReadReply));
    w.put_u8(m.error_code);
    put_block_data(w, m.data);
  }
  void operator()(const MultiBlockWriteRequest& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kMultiBlockWriteRequest));
    w.put_u64(m.first);
    put_block_data(w, m.data);
  }
  void operator()(const MultiBlockWriteAck& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kMultiBlockWriteAck));
    w.put_u8(m.error_code);
  }
  void operator()(const RangeVoteRequest& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kRangeVoteRequest));
    w.put_u8(static_cast<std::uint8_t>(m.access));
    w.put_u64(m.first);
    w.put_u32(m.count);
  }
  void operator()(const RangeVoteReply& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kRangeVoteReply));
    w.put_u32(m.weight_millivotes);
    w.put_u64_vector(m.versions);
  }
  void operator()(const BatchFetchRequest& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kBatchFetchRequest));
    w.put_u64_vector(m.blocks);
  }
  void operator()(const BatchFetchReply& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kBatchFetchReply));
    w.put_u32(static_cast<std::uint32_t>(m.updates.size()));
    for (const auto& update : m.updates) put_block_update(w, update);
  }
  void operator()(const BatchWriteRequest& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kBatchWriteRequest));
    w.put_u32(static_cast<std::uint32_t>(m.updates.size()));
    for (const auto& update : m.updates) put_block_update(w, update);
    put_site_set(w, m.was_available);
  }
  void operator()(const DigestRequest& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kDigestRequest));
    w.put_u64(m.first);
    w.put_u32(m.count);
  }
  void operator()(const DigestReply& m) const {
    w.put_u8(static_cast<std::uint8_t>(Tag::kDigestReply));
    w.put_u64(m.first);
    w.put_u64_vector(m.versions);
    w.put_u32(static_cast<std::uint32_t>(m.digests.size()));
    for (const auto digest : m.digests) w.put_u32(digest);
  }
};

Result<Payload> decode_payload(Tag tag, BufferReader& r) {
  switch (tag) {
    case Tag::kWriteAllAck:
      return Payload{WriteAllAck{}};
    case Tag::kStateInquiry:
      return Payload{StateInquiry{}};
    case Tag::kStateInfo: {
      auto state = r.get_u8();
      if (!state) return state.status();
      if (state.value() > 2) return errors::protocol("bad site state");
      auto total = r.get_u64();
      if (!total) return total.status();
      auto set = get_site_set(r);
      if (!set) return set.status();
      return Payload{StateInfo{static_cast<SiteState>(state.value()),
                               total.value(), std::move(set).value()}};
    }
    case Tag::kRepairRequest: {
      auto versions = VersionVector::decode(r);
      if (!versions) return versions.status();
      return Payload{RepairRequest{std::move(versions).value()}};
    }
    case Tag::kRepairReply: {
      RepairReply m;
      auto versions = VersionVector::decode(r);
      if (!versions) return versions.status();
      m.versions = std::move(versions).value();
      auto count = r.get_u32();
      if (!count) return count.status();
      m.blocks.reserve(count.value());
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto block = get_block_update(r);
        if (!block) return block.status();
        m.blocks.push_back(std::move(block).value());
      }
      return Payload{std::move(m)};
    }
    case Tag::kWasAvailableUpdate: {
      auto set = get_site_set(r);
      if (!set) return set.status();
      auto replace = r.get_bool();
      if (!replace) return replace.status();
      return Payload{
          WasAvailableUpdate{std::move(set).value(), replace.value()}};
    }
    case Tag::kWasAvailableAck:
      return Payload{WasAvailableAck{}};
    case Tag::kDeviceInfoRequest:
      return Payload{DeviceInfoRequest{}};
    case Tag::kDeviceInfoReply: {
      auto count = r.get_u64();
      if (!count) return count.status();
      auto size = r.get_u64();
      if (!size) return size.status();
      return Payload{DeviceInfoReply{count.value(), size.value()}};
    }
    case Tag::kErrorReply: {
      auto code = r.get_u8();
      if (!code) return code.status();
      auto text = r.get_string();
      if (!text) return text.status();
      return Payload{ErrorReply{code.value(), std::move(text).value()}};
    }
    case Tag::kMultiBlockReadRequest: {
      auto first = r.get_u64();
      if (!first) return first.status();
      auto count = r.get_u32();
      if (!count) return count.status();
      return Payload{MultiBlockReadRequest{first.value(), count.value()}};
    }
    case Tag::kMultiBlockReadReply: {
      auto code = r.get_u8();
      if (!code) return code.status();
      auto data = get_block_data(r);
      if (!data) return data.status();
      return Payload{
          MultiBlockReadReply{code.value(), std::move(data).value()}};
    }
    case Tag::kMultiBlockWriteRequest: {
      auto first = r.get_u64();
      if (!first) return first.status();
      auto data = get_block_data(r);
      if (!data) return data.status();
      return Payload{
          MultiBlockWriteRequest{first.value(), std::move(data).value()}};
    }
    case Tag::kMultiBlockWriteAck: {
      auto code = r.get_u8();
      if (!code) return code.status();
      return Payload{MultiBlockWriteAck{code.value()}};
    }
    case Tag::kRangeVoteRequest: {
      auto access = r.get_u8();
      if (!access) return access.status();
      if (access.value() > 1) return errors::protocol("bad access kind");
      auto first = r.get_u64();
      if (!first) return first.status();
      auto count = r.get_u32();
      if (!count) return count.status();
      return Payload{RangeVoteRequest{static_cast<AccessKind>(access.value()),
                                      first.value(), count.value()}};
    }
    case Tag::kRangeVoteReply: {
      auto weight = r.get_u32();
      if (!weight) return weight.status();
      auto versions = r.get_u64_vector();
      if (!versions) return versions.status();
      return Payload{
          RangeVoteReply{weight.value(), std::move(versions).value()}};
    }
    case Tag::kBatchFetchRequest: {
      auto blocks = r.get_u64_vector();
      if (!blocks) return blocks.status();
      return Payload{BatchFetchRequest{std::move(blocks).value()}};
    }
    case Tag::kBatchFetchReply: {
      BatchFetchReply m;
      auto count = r.get_u32();
      if (!count) return count.status();
      m.updates.reserve(std::min<std::uint32_t>(count.value(), 1024));
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto update = get_block_update(r);
        if (!update) return update.status();
        m.updates.push_back(std::move(update).value());
      }
      return Payload{std::move(m)};
    }
    case Tag::kBatchWriteRequest: {
      BatchWriteRequest m;
      auto count = r.get_u32();
      if (!count) return count.status();
      m.updates.reserve(std::min<std::uint32_t>(count.value(), 1024));
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto update = get_block_update(r);
        if (!update) return update.status();
        m.updates.push_back(std::move(update).value());
      }
      auto set = get_site_set(r);
      if (!set) return set.status();
      m.was_available = std::move(set).value();
      return Payload{std::move(m)};
    }
    case Tag::kDigestRequest: {
      auto first = r.get_u64();
      if (!first) return first.status();
      auto count = r.get_u32();
      if (!count) return count.status();
      return Payload{DigestRequest{first.value(), count.value()}};
    }
    case Tag::kDigestReply: {
      DigestReply m;
      auto first = r.get_u64();
      if (!first) return first.status();
      m.first = first.value();
      auto versions = r.get_u64_vector();
      if (!versions) return versions.status();
      m.versions = std::move(versions).value();
      auto count = r.get_u32();
      if (!count) return count.status();
      if (count.value() != m.versions.size()) {
        return errors::protocol("digest reply vectors are not parallel");
      }
      m.digests.reserve(std::min<std::uint32_t>(count.value(), 4096));
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto digest = r.get_u32();
        if (!digest) return digest.status();
        m.digests.push_back(digest.value());
      }
      return Payload{std::move(m)};
    }
  }
  return errors::protocol("unknown message tag");
}

}  // namespace

const char* site_state_name(SiteState state) noexcept {
  switch (state) {
    case SiteState::kFailed:
      return "failed";
    case SiteState::kComatose:
      return "comatose";
    case SiteState::kAvailable:
      return "available";
  }
  return "unknown";
}

const char* Message::name() const noexcept {
  struct Namer {
    const char* operator()(const WriteAllAck&) const { return "write-all-ack"; }
    const char* operator()(const StateInquiry&) const { return "state-inquiry"; }
    const char* operator()(const StateInfo&) const { return "state-info"; }
    const char* operator()(const RepairRequest&) const {
      return "repair-request";
    }
    const char* operator()(const RepairReply&) const { return "repair-reply"; }
    const char* operator()(const WasAvailableUpdate&) const {
      return "was-available-update";
    }
    const char* operator()(const WasAvailableAck&) const {
      return "was-available-ack";
    }
    const char* operator()(const DeviceInfoRequest&) const {
      return "device-info-request";
    }
    const char* operator()(const DeviceInfoReply&) const {
      return "device-info-reply";
    }
    const char* operator()(const ErrorReply&) const { return "error-reply"; }
    const char* operator()(const MultiBlockReadRequest&) const {
      return "multi-block-read-request";
    }
    const char* operator()(const MultiBlockReadReply&) const {
      return "multi-block-read-reply";
    }
    const char* operator()(const MultiBlockWriteRequest&) const {
      return "multi-block-write-request";
    }
    const char* operator()(const MultiBlockWriteAck&) const {
      return "multi-block-write-ack";
    }
    const char* operator()(const RangeVoteRequest&) const {
      return "range-vote-request";
    }
    const char* operator()(const RangeVoteReply&) const {
      return "range-vote-reply";
    }
    const char* operator()(const BatchFetchRequest&) const {
      return "batch-fetch-request";
    }
    const char* operator()(const BatchFetchReply&) const {
      return "batch-fetch-reply";
    }
    const char* operator()(const BatchWriteRequest&) const {
      return "batch-write-request";
    }
    const char* operator()(const DigestRequest&) const {
      return "digest-request";
    }
    const char* operator()(const DigestReply&) const { return "digest-reply"; }
  };
  return std::visit(Namer{}, payload);
}

std::vector<std::byte> Message::encode() const {
  BufferWriter writer;
  writer.put_u32(from);
  std::visit(Encoder{writer}, payload);
  return std::move(writer).take();
}

Result<Message> Message::decode(std::span<const std::byte> raw) {
  BufferReader reader(raw);
  auto from = reader.get_u32();
  if (!from) return from.status();
  auto tag = reader.get_u8();
  if (!tag) return tag.status();
  if (tag.value() < static_cast<std::uint8_t>(Tag::kWriteAllAck) ||
      tag.value() > static_cast<std::uint8_t>(Tag::kDigestReply)) {
    return errors::protocol("unknown message tag " +
                            std::to_string(tag.value()));
  }
  auto payload = decode_payload(static_cast<Tag>(tag.value()), reader);
  if (!payload) return payload.status();
  if (!reader.exhausted()) {
    return errors::protocol("trailing bytes after message payload");
  }
  return Message{from.value(), std::move(payload).value()};
}

Message make_error(SiteId from, const Status& status) {
  return Message{from, ErrorReply{static_cast<std::uint8_t>(status.code()),
                                  status.message()}};
}

}  // namespace reldev::net
