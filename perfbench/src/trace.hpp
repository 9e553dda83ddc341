// Spans and timing decorators for the traced run of e2e_device.
//
// The decorators sit at the layer boundaries the benchmark can reach from
// outside the library: the client's transport (stub -> wire), the handler a
// TcpServer dispatches to (wire -> engine), each site's peer transport
// (engine -> fan-out) and each site's block store (engine -> storage).
// A span records its start, end and the span that was open on the same
// thread when it began, so nested work (a peer round inside a coordinator
// handler) is attributed to its parent. Store calls are too numerous on
// 16-block ranges to keep one span each; their time and count are folded
// into the enclosing span instead, and totalled per call kind.
//
// Spans stay in memory while recording is on and are collected once the
// group is quiet. Pairs that cross a thread or a socket (client call and
// the server handler it reached, peer call and peer handler) are matched
// per layer as means per operation, not per request.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "reldev/net/transport.hpp"
#include "reldev/storage/block_store.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kOp = 0,          ///< one client operation, timed by the load generator
  kClientCall = 1,  ///< DriverStub -> client transport call
  kHandler = 2,     ///< TcpServer -> replica handler
  kPeerRound = 3,   ///< replica -> its peer transport (call/send/multicast)
};

enum class StoreCall : std::uint8_t {
  kRead = 0,
  kWrite = 1,
  kVersion = 2,   ///< version_of / version_vector
  kMetadata = 3,  ///< get_metadata / put_metadata
  kFlush = 4,     ///< sync / wait_durable
  kOther = 5,     ///< demote
};
inline constexpr std::size_t kStoreCallKinds = 6;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no enclosing span on this thread
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t store_ns = 0;  ///< store calls made directly under this span
  std::uint32_t store_calls = 0;
  SpanKind kind = SpanKind::kOp;
  /// kOp: 0 read / 1 write. Every other kind: the message variant index.
  std::uint8_t detail = 0;
  /// kHandler: the request came from a driver stub (this site coordinates).
  bool client_request = false;

  [[nodiscard]] std::int64_t duration_ns() const noexcept {
    return end_ns - start_ns;
  }
};

struct StoreTotals {
  std::array<std::uint64_t, kStoreCallKinds> calls{};
  std::array<std::int64_t, kStoreCallKinds> ns{};
  std::uint64_t bytes_written = 0;
};

/// What one recording window produced.
struct TraceSnapshot {
  std::vector<Span> spans;
  StoreTotals store;
};

/// Turn span recording on or off. Toggle only while the group is quiet:
/// a span is kept only if recording was on when it began.
void set_recording(bool on);

/// Move every recorded span and store total out of the per-thread buffers.
/// Call only while recording is off and the group is quiet.
TraceSnapshot collect_trace();

/// Payload name of message variant `index` ("vote-request", ...), as seen
/// by a decorator; "?" for an index no decorator has seen.
const char* message_name(std::uint8_t index);

/// Opens a span on this thread for its lifetime (a no-op while recording
/// is off). Nested scopes on the same thread become its children.
class SpanScope {
 public:
  SpanScope(SpanKind kind, std::uint8_t detail, bool client_request = false);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Charge a store call to the innermost open span on this thread.
  static void add_store_time(std::int64_t ns);

 private:
  Span span_;
  SpanScope* outer_ = nullptr;
  bool active_ = false;
};

/// Wraps a site's block store.
class TracedStore final : public reldev::storage::BlockStore {
 public:
  explicit TracedStore(reldev::storage::BlockStore& inner) : inner_(inner) {}

  [[nodiscard]] std::size_t block_count() const noexcept override {
    return inner_.block_count();
  }
  [[nodiscard]] std::size_t block_size() const noexcept override {
    return inner_.block_size();
  }
  [[nodiscard]] reldev::Result<reldev::storage::VersionedBlock> read(
      reldev::storage::BlockId block) const override;
  [[nodiscard]] reldev::Status write(
      reldev::storage::BlockId block, std::span<const std::byte> data,
      reldev::storage::VersionNumber version) override;
  [[nodiscard]] reldev::Result<reldev::storage::VersionNumber> version_of(
      reldev::storage::BlockId block) const override;
  [[nodiscard]] reldev::storage::VersionVector version_vector() const override;
  [[nodiscard]] reldev::Status put_metadata(
      std::span<const std::byte> blob) override;
  [[nodiscard]] reldev::Result<std::vector<std::byte>> get_metadata()
      const override;
  [[nodiscard]] reldev::Status sync() override;
  [[nodiscard]] reldev::storage::CommitSequence last_sequence()
      const noexcept override {
    return inner_.last_sequence();
  }
  [[nodiscard]] reldev::storage::CommitSequence durable_sequence()
      const noexcept override {
    return inner_.durable_sequence();
  }
  [[nodiscard]] reldev::Status wait_durable(
      reldev::storage::CommitSequence sequence) override;
  [[nodiscard]] reldev::Status demote(reldev::storage::BlockId block) override;

 private:
  reldev::storage::BlockStore& inner_;
};

/// Wraps a transport: a site's peer transport (kPeerRound) or a client's
/// transport under its DriverStub (kClientCall).
class TracedTransport final : public reldev::net::Transport {
 public:
  TracedTransport(reldev::net::Transport& inner, SpanKind kind)
      : inner_(inner), kind_(kind) {}

  using Transport::multicast_call;

  [[nodiscard]] reldev::Result<reldev::net::Message> call(
      reldev::storage::SiteId from, reldev::storage::SiteId to,
      const reldev::net::Message& request) override;
  [[nodiscard]] reldev::Status send(
      reldev::storage::SiteId from, reldev::storage::SiteId to,
      const reldev::net::Message& message) override;
  [[nodiscard]] reldev::Status multicast(
      reldev::storage::SiteId from, const reldev::storage::SiteSet& to,
      const reldev::net::Message& message) override;
  std::vector<reldev::net::GatherReply> multicast_call(
      reldev::storage::SiteId from, const reldev::storage::SiteSet& to,
      const reldev::net::Message& request,
      const reldev::net::EarlyStop& early_stop) override;

 private:
  reldev::net::Transport& inner_;
  SpanKind kind_;
};

/// Wraps the handler a site's TcpServer dispatches to.
class TracedHandler final : public reldev::net::MessageHandler {
 public:
  explicit TracedHandler(reldev::net::MessageHandler& inner) : inner_(inner) {}

  reldev::net::Message handle(const reldev::net::Message& request) override;
  void handle_oneway(const reldev::net::Message& message) override;

 private:
  reldev::net::MessageHandler& inner_;
};

}  // namespace perfbench
