#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "reldev/util/thread_annotations.hpp"

namespace perfbench {

namespace net = reldev::net;
namespace storage = reldev::storage;
using reldev::Mutex;
using reldev::MutexLock;
using reldev::Result;
using reldev::Status;

namespace {

std::atomic<bool> g_recording{false};
std::array<std::atomic<const char*>, 64> g_message_names{};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spans and store totals of one thread. Owned by the registry, not by the
// thread, so a server thread that exits before collection keeps its data.
struct ThreadBuffer {
  Mutex mutex{"perfbench.ThreadBuffer.mutex"};
  std::vector<Span> spans RELDEV_GUARDED_BY(mutex);
  StoreTotals store RELDEV_GUARDED_BY(mutex);
  std::uint64_t thread_index = 0;  // set once, at registration
  std::uint64_t next_id = 0;       // touched only by the owning thread
};

struct Registry {
  Mutex mutex{"perfbench.Registry.mutex"};
  std::vector<std::unique_ptr<ThreadBuffer>> buffers RELDEV_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry instance;
  return instance;
}

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local SpanScope* t_open = nullptr;

ThreadBuffer& this_thread_buffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    Registry& r = registry();
    const MutexLock lock(r.mutex);
    buffer->thread_index = r.buffers.size() + 1;
    t_buffer = buffer.get();
    r.buffers.push_back(std::move(buffer));
  }
  return *t_buffer;
}

std::uint8_t message_index(const net::Message& message) {
  const std::size_t index = message.payload.index();
  auto& name = g_message_names[index % g_message_names.size()];
  if (name.load(std::memory_order_relaxed) == nullptr) {
    name.store(message.name(), std::memory_order_relaxed);
  }
  return static_cast<std::uint8_t>(index);
}

bool from_client(const net::Message& message) {
  return message.holds<net::ClientReadRequest>() ||
         message.holds<net::ClientWriteRequest>() ||
         message.holds<net::MultiBlockReadRequest>() ||
         message.holds<net::MultiBlockWriteRequest>() ||
         message.holds<net::DeviceInfoRequest>();
}

// Runs one store call, timing it while recording is on.
template <typename Call>
auto timed(StoreCall kind, std::uint64_t bytes_written, Call&& call) {
  if (!g_recording.load(std::memory_order_relaxed)) return call();
  const std::int64_t start = now_ns();
  auto result = call();
  const std::int64_t elapsed = now_ns() - start;
  ThreadBuffer& buffer = this_thread_buffer();
  {
    const MutexLock lock(buffer.mutex);
    const auto k = static_cast<std::size_t>(kind);
    ++buffer.store.calls[k];
    buffer.store.ns[k] += elapsed;
    buffer.store.bytes_written += bytes_written;
  }
  SpanScope::add_store_time(elapsed);
  return result;
}

}  // namespace

void set_recording(bool on) { g_recording.store(on); }

TraceSnapshot collect_trace() {
  TraceSnapshot snapshot;
  Registry& r = registry();
  const MutexLock lock(r.mutex);
  for (const auto& buffer : r.buffers) {
    const MutexLock inner(buffer->mutex);
    snapshot.spans.insert(snapshot.spans.end(), buffer->spans.begin(),
                          buffer->spans.end());
    buffer->spans = {};
    for (std::size_t k = 0; k < kStoreCallKinds; ++k) {
      snapshot.store.calls[k] += buffer->store.calls[k];
      snapshot.store.ns[k] += buffer->store.ns[k];
    }
    snapshot.store.bytes_written += buffer->store.bytes_written;
    buffer->store = StoreTotals{};
  }
  return snapshot;
}

const char* message_name(std::uint8_t index) {
  const char* name = g_message_names[index % g_message_names.size()].load(
      std::memory_order_relaxed);
  return name != nullptr ? name : "?";
}

SpanScope::SpanScope(SpanKind kind, std::uint8_t detail, bool client_request) {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  ThreadBuffer& buffer = this_thread_buffer();
  active_ = true;
  outer_ = t_open;
  span_.id = (buffer.thread_index << 40) | ++buffer.next_id;
  span_.parent = outer_ != nullptr ? outer_->span_.id : 0;
  span_.kind = kind;
  span_.detail = detail;
  span_.client_request = client_request;
  t_open = this;
  span_.start_ns = now_ns();
}

SpanScope::~SpanScope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_open = outer_;
  ThreadBuffer& buffer = *t_buffer;
  const MutexLock lock(buffer.mutex);
  buffer.spans.push_back(span_);
}

void SpanScope::add_store_time(std::int64_t ns) {
  if (t_open == nullptr) return;
  t_open->span_.store_ns += ns;
  ++t_open->span_.store_calls;
}

Result<storage::VersionedBlock> TracedStore::read(storage::BlockId block) const {
  return timed(StoreCall::kRead, 0, [&] { return inner_.read(block); });
}

Status TracedStore::write(storage::BlockId block,
                          std::span<const std::byte> data,
                          storage::VersionNumber version) {
  return timed(StoreCall::kWrite, data.size(),
               [&] { return inner_.write(block, data, version); });
}

Result<storage::VersionNumber> TracedStore::version_of(
    storage::BlockId block) const {
  return timed(StoreCall::kVersion, 0,
               [&] { return inner_.version_of(block); });
}

storage::VersionVector TracedStore::version_vector() const {
  return timed(StoreCall::kVersion, 0, [&] { return inner_.version_vector(); });
}

Status TracedStore::put_metadata(std::span<const std::byte> blob) {
  return timed(StoreCall::kMetadata, 0,
               [&] { return inner_.put_metadata(blob); });
}

Result<std::vector<std::byte>> TracedStore::get_metadata() const {
  return timed(StoreCall::kMetadata, 0, [&] { return inner_.get_metadata(); });
}

Status TracedStore::sync() {
  return timed(StoreCall::kFlush, 0, [&] { return inner_.sync(); });
}

Status TracedStore::wait_durable(storage::CommitSequence sequence) {
  return timed(StoreCall::kFlush, 0,
               [&] { return inner_.wait_durable(sequence); });
}

Status TracedStore::demote(storage::BlockId block) {
  return timed(StoreCall::kOther, 0, [&] { return inner_.demote(block); });
}

Result<net::Message> TracedTransport::call(storage::SiteId from,
                                           storage::SiteId to,
                                           const net::Message& request) {
  const SpanScope span(kind_, message_index(request));
  return inner_.call(from, to, request);
}

Status TracedTransport::send(storage::SiteId from, storage::SiteId to,
                             const net::Message& message) {
  const SpanScope span(kind_, message_index(message));
  return inner_.send(from, to, message);
}

Status TracedTransport::multicast(storage::SiteId from,
                                  const storage::SiteSet& to,
                                  const net::Message& message) {
  const SpanScope span(kind_, message_index(message));
  return inner_.multicast(from, to, message);
}

std::vector<net::GatherReply> TracedTransport::multicast_call(
    storage::SiteId from, const storage::SiteSet& to,
    const net::Message& request, const net::EarlyStop& early_stop) {
  const SpanScope span(kind_, message_index(request));
  return inner_.multicast_call(from, to, request, early_stop);
}

net::Message TracedHandler::handle(const net::Message& request) {
  const SpanScope span(SpanKind::kHandler, message_index(request),
                       from_client(request));
  return inner_.handle(request);
}

void TracedHandler::handle_oneway(const net::Message& message) {
  const SpanScope span(SpanKind::kHandler, message_index(message));
  inner_.handle_oneway(message);
}

}  // namespace perfbench
