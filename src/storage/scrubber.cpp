#include "reldev/storage/scrubber.hpp"

#include <algorithm>

#include "reldev/storage/site_metadata.hpp"
#include "reldev/util/crc32.hpp"

namespace reldev::storage {

std::uint32_t scrub_digest(std::span<const std::byte> payload) {
  return crc32c(payload);
}

Result<DigestScan> scan_digests(BlockStore& store, BlockId first,
                                std::size_t count) {
  const std::size_t blocks = store.block_count();
  if (first > blocks) {
    return errors::invalid_argument("digest scan starts past device end");
  }
  const std::size_t end = std::min<std::size_t>(blocks, first + count);
  DigestScan scan;
  scan.first = first;
  scan.versions.reserve(end - first);
  scan.digests.reserve(end - first);
  const std::vector<std::byte> zero(store.block_size(), std::byte{0});
  const std::uint32_t zero_digest = scrub_digest(zero);
  // Unreadable payload: demote so the engines treat it as an out-of-date
  // copy, and report the demoted identity.
  const auto unreadable = [&](BlockId block) -> Status {
    if (auto status = store.demote(block); !status.is_ok()) return status;
    scan.versions.push_back(0);
    scan.digests.push_back(zero_digest);
    scan.demoted.push_back(block);
    return Status::ok();
  };
  auto range = store.read_range(first, end - first);
  if (!range) {
    // Some record cannot be read at all: find which, block by block.
    for (BlockId block = first; block < end; ++block) {
      auto copy = store.read(block);
      if (!copy) {
        if (auto status = unreadable(block); !status.is_ok()) return status;
        continue;
      }
      scan.versions.push_back(copy.value().version);
      scan.digests.push_back(scrub_digest(copy.value().data));
    }
    return scan;
  }
  const std::size_t block_size = store.block_size();
  auto corrupt = range.value().corrupt.begin();
  for (BlockId block = first; block < end; ++block) {
    if (corrupt != range.value().corrupt.end() && *corrupt == block) {
      ++corrupt;
      if (auto status = unreadable(block); !status.is_ok()) return status;
      continue;
    }
    const std::size_t i = block - first;
    scan.versions.push_back(range.value().versions[i]);
    scan.digests.push_back(scrub_digest(
        std::span<const std::byte>(range.value().data)
            .subspan(i * block_size, block_size)));
  }
  return scan;
}

std::uint64_t load_scrub_cursor(const BlockStore& store) {
  auto blob = store.get_metadata();
  if (!blob || blob.value().empty()) return 0;
  auto meta = SiteMetadata::decode(blob.value());
  if (!meta) return 0;
  return meta.value().scrub_cursor.value_or(0);
}

Status save_scrub_cursor(BlockStore& store, std::uint64_t cursor) {
  SiteMetadata meta;
  if (auto blob = store.get_metadata(); blob && !blob.value().empty()) {
    if (auto decoded = SiteMetadata::decode(blob.value()); decoded) {
      meta = std::move(decoded).value();
    }
  }
  meta.scrub_cursor = cursor;
  return store.put_metadata(meta.encode());
}

}  // namespace reldev::storage
