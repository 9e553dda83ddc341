// BufferArena: a thread-safe pool of reusable byte buffers for the network
// hot path. Frame payloads are short-lived and highly size-repetitive (one
// allocation per request at steady state), so the TCP server recycles them
// through size-classed free lists instead of hitting the allocator — and,
// more importantly, the buffer a frame lands in is the buffer the decoder
// reads from, so payload bytes are never copied between the wire and
// Message::decode.
//
// Ownership: acquire() returns an ArenaBuffer whose destructor gives the
// storage back to the arena (or frees it outright once the arena holds its
// retention cap). An ArenaBuffer may outlive any particular user, but must
// not outlive the arena itself; the process-wide shared() arena lives until
// process exit, so buffers tied to it are safe everywhere.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "reldev/util/thread_annotations.hpp"

namespace reldev::util {

class BufferArena;

/// A pooled byte buffer: `size()` bytes usable, capacity rounded up to the
/// arena's size class. Move-only; returns its storage to the arena on
/// destruction. A default-constructed ArenaBuffer is empty and unpooled.
class ArenaBuffer {
 public:
  ArenaBuffer() = default;
  ~ArenaBuffer();
  ArenaBuffer(ArenaBuffer&& other) noexcept
      : arena_(other.arena_), storage_(std::move(other.storage_)),
        size_(other.size_) {
    other.arena_ = nullptr;
    other.size_ = 0;
  }
  ArenaBuffer& operator=(ArenaBuffer&& other) noexcept;
  ArenaBuffer(const ArenaBuffer&) = delete;
  ArenaBuffer& operator=(const ArenaBuffer&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::byte* data() noexcept { return storage_.data(); }
  [[nodiscard]] const std::byte* data() const noexcept {
    return storage_.data();
  }
  [[nodiscard]] std::span<std::byte> bytes() noexcept {
    return {storage_.data(), size_};
  }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {storage_.data(), size_};
  }

  /// Shrink the usable size (never grows past the acquired size).
  void truncate(std::size_t size) noexcept {
    if (size < size_) size_ = size;
  }

  /// Hand the storage back to the arena now instead of at destruction.
  void release();

 private:
  friend class BufferArena;
  ArenaBuffer(BufferArena* arena, std::vector<std::byte> storage,
              std::size_t size)
      : arena_(arena), storage_(std::move(storage)), size_(size) {}

  BufferArena* arena_ = nullptr;
  std::vector<std::byte> storage_;
  std::size_t size_ = 0;
};

/// Size-classed buffer pool. Classes are powers of two from 512 B up to
/// 1 MiB; larger requests are served by plain allocation and freed on
/// release (pooling multi-megabyte one-offs would just hoard memory).
class BufferArena {
 public:
  struct Stats {
    std::uint64_t hits = 0;        // acquire served from a free list
    std::uint64_t misses = 0;      // acquire had to allocate
    std::uint64_t unpooled = 0;    // acquire larger than the biggest class
    std::size_t pooled_bytes = 0;  // bytes currently parked in free lists
  };

  /// `max_pooled_bytes` caps the total bytes parked across all free lists;
  /// releases beyond the cap free their storage instead of pooling it.
  explicit BufferArena(std::size_t max_pooled_bytes = 8u << 20);
  ~BufferArena() = default;
  BufferArena(const BufferArena&) = delete;
  BufferArena& operator=(const BufferArena&) = delete;

  /// Process-wide arena shared by every server worker. Constructed on first
  /// use; lives until process exit.
  static BufferArena& shared();

  /// A buffer with size() == `size` and capacity of the covering class.
  [[nodiscard]] ArenaBuffer acquire(std::size_t size) RELDEV_EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const RELDEV_EXCLUDES(mutex_);

  /// Free every pooled buffer (the arena stays usable).
  void trim() RELDEV_EXCLUDES(mutex_);

  /// The capacity class covering `size` (testing/introspection); `size`
  /// itself when it exceeds the largest pooled class.
  [[nodiscard]] static std::size_t class_capacity(std::size_t size) noexcept;

 private:
  static constexpr std::size_t kMinClass = 512;
  static constexpr std::size_t kClassCount = 12;  // 512 << 11 == 1 MiB

  /// Index of the smallest class covering `size`; kClassCount when the
  /// request is bigger than the largest pooled class.
  [[nodiscard]] static std::size_t class_index(std::size_t size) noexcept;

  void give_back(std::vector<std::byte> storage) RELDEV_EXCLUDES(mutex_);
  friend class ArenaBuffer;

  const std::size_t max_pooled_bytes_;
  mutable Mutex mutex_{"BufferArena.mutex"};
  std::array<std::vector<std::vector<std::byte>>, kClassCount> free_lists_
      RELDEV_GUARDED_BY(mutex_);
  std::size_t pooled_bytes_ RELDEV_GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ RELDEV_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ RELDEV_GUARDED_BY(mutex_) = 0;
  std::uint64_t unpooled_ RELDEV_GUARDED_BY(mutex_) = 0;
};

}  // namespace reldev::util
