// Protocol messages: the "high-level transmissions" whose counts §5 of the
// paper analyzes. Every message exchanged by the consistency algorithms —
// vote collection, block transfer, write propagation, recovery — and by the
// client/server pair (driver stub <-> site server) is one of these payloads.
// Encoding is centralized here so the in-process and TCP transports carry
// identical bits.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "reldev/storage/block.hpp"
#include "reldev/storage/site_metadata.hpp"
#include "reldev/storage/version.hpp"
#include "reldev/util/result.hpp"

namespace reldev::net {

using storage::BlockData;
using storage::BlockId;
using storage::SiteId;
using storage::SiteSet;
using storage::VersionNumber;
using storage::VersionVector;

/// The three states of §3.2: failed sites do not answer at all; comatose
/// sites answer state inquiries but hold possibly stale data; available
/// sites hold the most recent version.
enum class SiteState : std::uint8_t { kFailed = 0, kComatose = 1, kAvailable = 2 };

const char* site_state_name(SiteState state) noexcept;

/// Whether a quorum is being collected for a read or a write (voting).
enum class AccessKind : std::uint8_t { kRead = 0, kWrite = 1 };

// --- block access (Figures 3-6) ---------------------------------------------
// Every engine reads and writes block ranges; a single-block operation is a
// range of one. §5's cost metric counts high-level transmissions, and a
// grouped message is still a single transmission.

/// One block's payload at a version: the element of every grouped block
/// transfer (write pushes, fetch replies, repair replies).
struct BlockUpdate {
  BlockId block;
  VersionNumber version;
  BlockData data;
};

/// Voting: broadcast by the coordinator to collect votes for an access to
/// blocks [first, first + count).
struct RangeVoteRequest {
  AccessKind access;
  BlockId first;
  std::uint32_t count;
};
/// One site's vote: its assigned weight (fixed-point millivotes so ties
/// can be broken by a small perturbation, as §4.1 prescribes) and its
/// version of every block in the range, parallel to the range.
struct RangeVoteReply {
  std::uint32_t weight_millivotes;
  std::vector<VersionNumber> versions;
};

/// Fetch several (not necessarily consecutive) blocks from one site in one
/// round trip: voting's refresh of stale or corrupt local copies, and the
/// scrubber's heal of stale ones.
struct BatchFetchRequest {
  std::vector<BlockId> blocks;
};
struct BatchFetchReply {
  std::vector<BlockUpdate> updates;
};

/// Grouped write push: every update in one message, applied together by
/// the recipient (a site receives the whole batch or none of it — no torn
/// multi-block writes). Voting sends it to the write quorum (repairing
/// operational stale copies en passant), the available-copy schemes to
/// every peer. `was_available` carries AC's W so recipients can adopt it;
/// voting and NAC send it empty.
struct BatchWriteRequest {
  std::vector<BlockUpdate> updates;
  SiteSet was_available;
};
/// Acknowledges a BatchWriteRequest once applied. Under AC the ack set is the
/// coordinator's new was-available set; voting's range write counts acked
/// weight. One-way pushes (voting's write(), NAC) get one only when a
/// request/reply-only transport such as TCP carries them as calls.
struct WriteAllAck {};

// --- recovery (Figures 5 and 6) --------------------------------------------

/// Recovery step 1: a repairing site asks everyone who is out there.
struct StateInquiry {};
struct StateInfo {
  SiteState state;
  /// Scalar "version(t)" of Figures 5/6: the sum of the site's per-block
  /// versions. Within a closure set after a total failure the last-failed
  /// site dominates every other member block-wise, so the larger total
  /// always identifies it.
  std::uint64_t version_total;
  /// The responder's W (the full site set under the naive scheme).
  SiteSet was_available;
};

/// Recovery step 2 (Figure 5): send my version vector; receive the correct
/// vector plus every block that changed while I was down.
struct RepairRequest {
  VersionVector versions;
};
struct RepairReply {
  VersionVector versions;
  /// Blocks the requester must replace, parallel to stale entries.
  std::vector<BlockUpdate> blocks;
};

/// Was-available set maintenance (AC only). With `replace` false the
/// recipient unions the set into its own (recovery step 3 of Figure 5:
/// the repair source learns its W now includes the repaired site). With
/// `replace` true the recipient adopts the set outright — the "atomic
/// broadcast" variant of §3.2, where every write's exact acknowledgement
/// set is pushed to all recipients.
struct WasAvailableUpdate {
  SiteSet was_available;
  bool replace;
};
struct WasAvailableAck {};

// --- client <-> server (the device interface of §2) ------------------------

struct DeviceInfoRequest {};
struct DeviceInfoReply {
  std::uint64_t block_count;
  std::uint64_t block_size;
};

/// Generic error reply (protocol violations, unbound sites).
struct ErrorReply {
  std::uint8_t error_code;
  std::string message;
};

// --- client block I/O --------------------------------------------------------
// One request/reply pair per direction. A client reads or writes a block
// range, and a single block is a range of one, so a k-block file read or
// write costs one client round trip and one quorum round.

/// Client read of blocks [first, first + count).
struct MultiBlockReadRequest {
  BlockId first;
  std::uint32_t count;
};
/// Flat payload of count * block_size bytes (empty on error).
struct MultiBlockReadReply {
  std::uint8_t error_code;
  BlockData data;
};

/// Client write of data.size() / block_size consecutive blocks at `first`.
struct MultiBlockWriteRequest {
  BlockId first;
  BlockData data;
};
struct MultiBlockWriteAck {
  std::uint8_t error_code;
};

// Used only by perfbench/src/trace.cpp; the next benchmark change drops them.
using ClientReadRequest = MultiBlockReadRequest;
using ClientWriteRequest = MultiBlockWriteRequest;

// --- anti-entropy digest exchange (background scrubber) --------------------
// A scrub batch compares replicas by cheap CRC-32C digests instead of
// shipping payloads: one DigestRequest covers a whole run of blocks (the
// batched style of the vectored ops above), and only blocks whose digests
// disagree cost a payload transfer via the existing fetch/repair machinery.

/// Ask a peer for the (version, digest) of every block in
/// [first, first + count).
struct DigestRequest {
  BlockId first;
  std::uint32_t count;
};

/// Parallel vectors over the requested range. A locally unreadable
/// (latently corrupt) block is reported as version 0 with a zero-block
/// digest — the responder demotes it rather than vouching for damage.
struct DigestReply {
  BlockId first;
  std::vector<VersionNumber> versions;
  std::vector<std::uint32_t> digests;
};

using Payload =
    std::variant<WriteAllAck, StateInquiry, StateInfo, RepairRequest,
                 RepairReply, WasAvailableUpdate, WasAvailableAck,
                 DeviceInfoRequest, DeviceInfoReply, ErrorReply, MultiBlockReadRequest,
                 MultiBlockReadReply, MultiBlockWriteRequest, MultiBlockWriteAck,
                 RangeVoteRequest, RangeVoteReply, BatchFetchRequest,
                 BatchFetchReply, BatchWriteRequest, DigestRequest,
                 DigestReply>;

/// A routed message: who sent it plus its payload.
struct Message {
  SiteId from = 0;
  Payload payload;

  /// Human-readable payload name for logs ("range-vote-request", ...).
  [[nodiscard]] const char* name() const noexcept;

  /// Convenience accessors; contract violation if the payload is another
  /// alternative (callers must check with holds() first when unsure).
  template <typename T>
  [[nodiscard]] bool holds() const noexcept {
    return std::holds_alternative<T>(payload);
  }
  template <typename T>
  [[nodiscard]] const T& as() const {
    return std::get<T>(payload);
  }

  [[nodiscard]] std::vector<std::byte> encode() const;
  static Result<Message> decode(std::span<const std::byte> raw);
};

/// Builds an ErrorReply message from a Status.
Message make_error(SiteId from, const Status& status);

}  // namespace reldev::net
