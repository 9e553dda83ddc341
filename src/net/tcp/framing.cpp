#include "reldev/net/tcp/framing.hpp"

#include <algorithm>

#include "reldev/util/crc32.hpp"
#include "reldev/util/serial.hpp"

namespace reldev::net::tcp {

namespace {
constexpr std::uint32_t kFrameMagic = 0x52444d47;  // "RDMG"
}  // namespace

std::array<std::byte, kFramePrefixSize> encode_frame_prefix(
    std::size_t payload_size) {
  BufferWriter writer(kFramePrefixSize);
  writer.put_u32(kFrameMagic);
  writer.put_u32(static_cast<std::uint32_t>(payload_size));
  std::array<std::byte, kFramePrefixSize> prefix{};
  std::copy(writer.bytes().begin(), writer.bytes().end(), prefix.begin());
  return prefix;
}

Result<std::uint32_t> parse_frame_prefix(std::span<const std::byte> prefix) {
  RELDEV_EXPECTS(prefix.size() == kFramePrefixSize);
  BufferReader reader(prefix);
  const std::uint32_t magic = reader.get_u32().value();
  const std::uint32_t length = reader.get_u32().value();
  if (magic != kFrameMagic) return errors::corruption("bad frame magic");
  if (length > kMaxFramePayload) return errors::protocol("oversized frame");
  return length;
}

std::uint32_t frame_crc(std::span<const std::byte> prefix,
                        std::span<const std::byte> payload) {
  // The trailer covers the prefix too, so a garbled length or magic that
  // happens to frame plausibly is still caught before decoding.
  return crc32c(payload, crc32c(prefix));
}

std::uint32_t decode_frame_trailer(std::span<const std::byte> trailer) {
  RELDEV_EXPECTS(trailer.size() == kFrameTrailerSize);
  return BufferReader(trailer).get_u32().value();
}

Result<std::vector<std::byte>> encode_frame(
    std::span<const std::byte> payload) {
  if (payload.size() > kMaxFramePayload) {
    return errors::invalid_argument("frame payload too large");
  }
  const auto prefix = encode_frame_prefix(payload.size());
  BufferWriter writer(kFramePrefixSize + payload.size() + kFrameTrailerSize);
  writer.put_raw(prefix);
  writer.put_raw(payload);
  writer.put_u32(frame_crc(prefix, payload));
  return std::move(writer).take();
}

Status write_frame(Socket& socket, std::span<const std::byte> payload) {
  auto frame = encode_frame(payload);
  if (!frame) return frame.status();
  return socket.write_all(frame.value());
}

Result<std::vector<std::byte>> read_frame(Socket& socket) {
  std::array<std::byte, kFramePrefixSize> prefix;
  if (auto status = socket.read_exact(prefix); !status.is_ok()) return status;
  auto length = parse_frame_prefix(prefix);
  if (!length) return length.status();
  std::vector<std::byte> rest(length.value() + kFrameTrailerSize);
  if (auto status = socket.read_exact(rest); !status.is_ok()) {
    // Losing the stream mid-frame is an I/O error even if read_exact saw a
    // clean EOF at byte 0 of the payload.
    if (status.code() == ErrorCode::kUnavailable) {
      return errors::io_error("connection closed mid-frame");
    }
    return status;
  }
  const std::span<const std::byte> payload(rest.data(), length.value());
  const std::uint32_t crc = decode_frame_trailer(
      std::span<const std::byte>(rest.data() + length.value(),
                                 kFrameTrailerSize));
  if (frame_crc(prefix, payload) != crc) {
    return errors::corruption("frame CRC mismatch");
  }
  rest.resize(length.value());  // drop the trailer; no payload copy
  return rest;
}

}  // namespace reldev::net::tcp
