// Message framing on a stream socket: [magic u32][length u32][payload]
// [crc u32]. The CRC-32C trailer covers the prefix AND the payload, so
// corruption anywhere in the frame — including a garbled length — is
// rejected as kCorruption before any decoding happens, instead of being
// decoded into garbage.
//
// Two consumption styles share the same layout helpers: the blocking
// read_frame/write_frame pair (client side) and the incremental
// prefix/payload helpers the server's workers drive on readiness (prefix
// parsed as soon as its 8 bytes are in, CRC verified in place on the
// arena buffer the payload landed in).
#pragma once

#include <array>
#include <vector>

#include "reldev/net/tcp/socket.hpp"
#include "reldev/util/result.hpp"

namespace reldev::net::tcp {

/// Upper bound on a frame payload; far above any block size we ship but
/// small enough to stop a corrupt length field from allocating gigabytes.
inline constexpr std::size_t kMaxFramePayload = 16u << 20;  // 16 MiB

inline constexpr std::size_t kFramePrefixSize = 8;   // magic + length
inline constexpr std::size_t kFrameTrailerSize = 4;  // CRC-32C

/// Serialized [magic][length] prefix for a payload of `payload_size` bytes.
[[nodiscard]] std::array<std::byte, kFramePrefixSize> encode_frame_prefix(
    std::size_t payload_size);

/// Validates a received prefix and returns the declared payload length.
/// kCorruption on bad magic; kProtocol on a length above kMaxFramePayload.
[[nodiscard]] Result<std::uint32_t> parse_frame_prefix(
    std::span<const std::byte> prefix);

/// The CRC-32C trailer value for a frame with this prefix and payload.
[[nodiscard]] std::uint32_t frame_crc(std::span<const std::byte> prefix,
                                      std::span<const std::byte> payload);

/// Decodes the little-endian CRC trailer (exactly kFrameTrailerSize bytes).
[[nodiscard]] std::uint32_t decode_frame_trailer(
    std::span<const std::byte> trailer);

[[nodiscard]] Status write_frame(Socket& socket, std::span<const std::byte> payload);

/// Reads one frame. kUnavailable on orderly EOF at a frame boundary;
/// kCorruption on bad magic/CRC; kProtocol on oversized length.
[[nodiscard]] Result<std::vector<std::byte>> read_frame(Socket& socket);

}  // namespace reldev::net::tcp
