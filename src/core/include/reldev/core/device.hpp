// The block-device interface of §2: what the file system sees. A reliable
// (replicated) device and a plain local disk implement the same interface,
// which is the paper's headline property — everything above the device
// needs no modification to gain replication.
#pragma once

#include <span>

#include "reldev/storage/block_store.hpp"
#include "reldev/util/result.hpp"

namespace reldev::core {

/// Validation shared by every range operation on a device of `block_count`
/// blocks: count > 0 and the whole range inside the device.
[[nodiscard]] inline Status check_range(storage::BlockId first,
                                        std::size_t count,
                                        std::size_t block_count) {
  if (count == 0) {
    return errors::invalid_argument("vectored operation on empty range");
  }
  if (first >= block_count || count > block_count - first) {
    return errors::invalid_argument("block range out of bounds");
  }
  return Status::ok();
}

/// check_range for a write payload, which must also be a non-empty
/// multiple of `block_size`. Returns the block count.
[[nodiscard]] inline Result<std::size_t> check_write_range(
    storage::BlockId first, std::span<const std::byte> data,
    std::size_t block_count, std::size_t block_size) {
  if (data.empty() || data.size() % block_size != 0) {
    return errors::invalid_argument(
        "vectored write payload must be a non-empty multiple of the block "
        "size");
  }
  const std::size_t count = data.size() / block_size;
  if (auto status = check_range(first, count, block_count); !status.is_ok()) {
    return status;
  }
  return count;
}

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  [[nodiscard]] virtual std::size_t block_count() const noexcept = 0;
  [[nodiscard]] virtual std::size_t block_size() const noexcept = 0;

  /// Vectored read of blocks [first, first + count): one flat buffer of
  /// count * block_size bytes. kUnavailable when the device cannot serve
  /// (no quorum / no available copy); the file system treats that like any
  /// transient device error.
  [[nodiscard]] virtual Result<storage::BlockData> read_blocks(
      storage::BlockId first, std::size_t count) = 0;

  /// Vectored write of data.size() / block_size consecutive blocks starting
  /// at `first`. `data` must be a non-empty multiple of block_size.
  [[nodiscard]] virtual Status write_blocks(storage::BlockId first,
                                            std::span<const std::byte> data) = 0;

  /// One block is a range of one.
  [[nodiscard]] Result<storage::BlockData> read_block(storage::BlockId block) {
    return read_blocks(block, 1);
  }
  /// kInvalidArgument unless `data` is exactly one block.
  [[nodiscard]] Status write_block(storage::BlockId block,
                                   std::span<const std::byte> data) {
    if (data.size() != block_size()) {
      return errors::invalid_argument("payload size != block size");
    }
    return write_blocks(block, data);
  }
};

/// An ordinary single-disk device: a BlockStore with no replication. The
/// baseline every scheme is compared against.
class LocalBlockDevice final : public BlockDevice {
 public:
  explicit LocalBlockDevice(storage::BlockStore& store) : store_(store) {}

  [[nodiscard]] std::size_t block_count() const noexcept override {
    return store_.block_count();
  }
  [[nodiscard]] std::size_t block_size() const noexcept override {
    return store_.block_size();
  }

  [[nodiscard]] Result<storage::BlockData> read_blocks(
      storage::BlockId first, std::size_t count) override {
    if (auto status = check_range(first, count, block_count());
        !status.is_ok()) {
      return status;
    }
    storage::BlockData out;
    out.reserve(count * block_size());
    for (std::size_t i = 0; i < count; ++i) {
      auto stored = store_.read(first + i);
      if (!stored) return stored.status();
      out.insert(out.end(), stored.value().data.begin(),
                 stored.value().data.end());
    }
    return out;
  }

  [[nodiscard]] Status write_blocks(storage::BlockId first,
                                    std::span<const std::byte> data) override {
    auto count = check_write_range(first, data, block_count(), block_size());
    if (!count) return count.status();
    for (std::size_t i = 0; i < count.value(); ++i) {
      auto current = store_.version_of(first + i);
      if (!current) return current.status();
      if (auto status = store_.write(
              first + i, data.subspan(i * block_size(), block_size()),
              current.value() + 1);
          !status.is_ok()) {
        return status;
      }
    }
    return Status::ok();
  }

 private:
  storage::BlockStore& store_;
};

}  // namespace reldev::core
