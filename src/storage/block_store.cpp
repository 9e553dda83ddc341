#include "reldev/storage/block_store.hpp"

namespace reldev::storage {

Status BlockStore::check_block(BlockId block) const {
  if (block >= block_count()) {
    return errors::invalid_argument("block " + std::to_string(block) +
                                    " out of range (device has " +
                                    std::to_string(block_count()) + " blocks)");
  }
  return Status::ok();
}

Status BlockStore::check_range(BlockId first, std::size_t count) const {
  if (count == 0) return Status::ok();
  if (auto status = check_block(first); !status.is_ok()) return status;
  if (count > block_count() - first) {
    return errors::invalid_argument(
        std::to_string(count) + " blocks from block " + std::to_string(first) +
        " out of range (device has " + std::to_string(block_count()) +
        " blocks)");
  }
  return Status::ok();
}

Status BlockStore::check_batch(std::span<const BlockWrite> writes) const {
  for (const BlockWrite& write : writes) {
    if (auto status = check_write(write.block, write.data); !status.is_ok()) {
      return status;
    }
  }
  return Status::ok();
}

Status BlockStore::write_batch(std::span<const BlockWrite> writes) {
  if (auto status = check_batch(writes); !status.is_ok()) return status;
  for (const BlockWrite& entry : writes) {
    if (auto status = write(entry.block, entry.data, entry.version);
        !status.is_ok()) {
      return status;
    }
  }
  return Status::ok();
}

Result<RangeRead> BlockStore::read_range(BlockId first,
                                         std::size_t count) const {
  if (auto status = check_range(first, count); !status.is_ok()) return status;
  RangeRead range;
  range.versions.reserve(count);
  for (BlockId block = first; block < first + count; ++block) {
    auto stored = read(block);
    if (!stored) {
      if (stored.status().code() != ErrorCode::kCorruption) {
        return stored.status();
      }
      stored = VersionedBlock{BlockData(block_size(), std::byte{0}), 0};
      range.corrupt.push_back(block);
    }
    range.versions.push_back(stored.value().version);
    BlockData& data = stored.value().data;
    if (block == first) {
      // The first block's buffer becomes the range's: a one-block read
      // is not copied.
      range.data = std::move(data);
      range.data.reserve(count * block_size());
    } else {
      range.data.insert(range.data.end(), data.begin(), data.end());
    }
  }
  return range;
}

Status BlockStore::wait_durable(CommitSequence sequence) {
  (void)sequence;  // stores without sequence tracking drain everything
  return sync();
}

Status BlockStore::demote(BlockId block) {
  if (auto status = check_block(block); !status.is_ok()) return status;
  const std::vector<std::byte> zeros(block_size(), std::byte{0});
  return write(block, zeros, 0);
}

Status BlockStore::check_write(BlockId block,
                               std::span<const std::byte> data) const {
  if (auto status = check_block(block); !status.is_ok()) return status;
  if (data.size() != block_size()) {
    return errors::invalid_argument(
        "payload size " + std::to_string(data.size()) + " != block size " +
        std::to_string(block_size()));
  }
  return Status::ok();
}

}  // namespace reldev::storage
