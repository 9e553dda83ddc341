#include "reldev/storage/file_block_store.hpp"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <filesystem>
#include <optional>
#include <utility>

#include "fd_io.hpp"
#include "reldev/util/assert.hpp"
#include "reldev/util/crc32.hpp"
#include "reldev/util/logging.hpp"
#include "reldev/util/serial.hpp"

namespace reldev::storage {

using detail::errno_text;
using detail::read_at;
using detail::ReadOutcome;
using detail::write_at;

namespace {

// File layout (format v2):
//   [header: kHeaderSize bytes]
//   [metadata slot 0: kSlotHeader + kMetadataCapacity bytes]
//   [metadata slot 1: kSlotHeader + kMetadataCapacity bytes]
//   [block records: block_count x (u64 version + u32 crc + block_size data)]
constexpr std::uint32_t kMagic = 0x52444256;  // "RDBV"
constexpr std::uint32_t kFormatVersion = 2;

struct Header {
  std::uint64_t block_count;
  std::uint64_t block_size;
};

std::vector<std::byte> encode_header(const Header& header) {
  BufferWriter writer(FileBlockStore::kHeaderSize);
  writer.put_u32(kMagic);
  writer.put_u32(kFormatVersion);
  writer.put_u64(header.block_count);
  writer.put_u64(header.block_size);
  writer.put_u64(0);  // reserved
  writer.put_u32(0);  // reserved; pads the pre-CRC header to 36 bytes
  // CRC over everything above.
  writer.put_u32(crc32c(writer.bytes()));
  RELDEV_ENSURES(writer.size() == FileBlockStore::kHeaderSize);
  return std::move(writer).take();
}

Result<Header> decode_header(std::span<const std::byte> raw) {
  if (raw.size() != FileBlockStore::kHeaderSize) {
    return errors::corruption("short store header");
  }
  const std::uint32_t expected =
      crc32c(raw.first(FileBlockStore::kHeaderSize - 4));
  BufferReader reader(raw);
  auto magic = reader.get_u32();
  auto format = reader.get_u32();
  auto block_count = reader.get_u64();
  auto block_size = reader.get_u64();
  auto reserved = reader.get_u64();
  auto reserved2 = reader.get_u32();
  auto crc = reader.get_u32();
  if (!magic || !format || !block_count || !block_size || !reserved ||
      !reserved2 || !crc) {
    return errors::corruption("unreadable store header");
  }
  if (magic.value() != kMagic) return errors::corruption("bad store magic");
  if (format.value() != kFormatVersion) {
    return errors::corruption("unsupported store format " +
                              std::to_string(format.value()) + " (want " +
                              std::to_string(kFormatVersion) + ")");
  }
  if (crc.value() != expected) return errors::corruption("store header CRC");
  return Header{block_count.value(), block_size.value()};
}

// A run of consecutive records is one pwritev/preadv of two iovecs per
// record (its header, then its payload in the caller's buffer). Its
// header and iovec arrays live on the stack, and keeping them under one
// 4 KiB page matters: at IOV_MAX / 2 records (a 22 KiB frame), four
// threads writing single 4 KiB records to one store took about twice as
// long per write as at 64 records. 64 records is a whole 16-block range
// of 4 KiB blocks in one call.
constexpr std::size_t kMaxRunRecords = 64;
static_assert(2 * kMaxRunRecords <= IOV_MAX);

// The opening scrub reads about this many bytes of records per range.
constexpr std::size_t kScrubReadBytes = std::size_t{1} << 20;

// Record header: u64 version, then u32 CRC-32C of the payload, both
// little-endian (the BufferWriter encoding).
using RecordHeader = std::array<std::byte, FileBlockStore::kBlockRecordHeader>;

void put_le(std::byte* out, std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    out[i] = static_cast<std::byte>(value >> (8 * i));
  }
}

/// How many leading entries of `writes` name consecutive blocks, capped
/// at one run.
std::size_t run_length(std::span<const BlockWrite> writes) {
  std::size_t run = 1;
  while (run < writes.size() && run < kMaxRunRecords &&
         writes[run].block == writes[run - 1].block + 1) {
    ++run;
  }
  return run;
}

std::uint64_t first_block_offset() {
  return FileBlockStore::metadata_slot_offset(1) +
         FileBlockStore::kSlotHeader + FileBlockStore::kMetadataCapacity;
}

std::vector<std::byte> encode_slot(std::uint64_t sequence,
                                   std::span<const std::byte> blob) {
  BufferWriter writer(FileBlockStore::kSlotHeader +
                      FileBlockStore::kMetadataCapacity);
  writer.put_u64(sequence);
  writer.put_u32(static_cast<std::uint32_t>(blob.size()));
  writer.put_u32(crc32c(blob));
  writer.put_raw(blob);
  const std::vector<std::byte> pad(
      FileBlockStore::kMetadataCapacity - blob.size(), std::byte{0});
  writer.put_raw(pad);
  return std::move(writer).take();
}

struct SlotContents {
  std::uint64_t sequence = 0;
  std::vector<std::byte> blob;
};

/// Decode one metadata slot; nullopt when the slot is torn or garbage.
std::optional<SlotContents> decode_slot(std::span<const std::byte> raw) {
  BufferReader reader(raw);
  auto sequence = reader.get_u64();
  auto size = reader.get_u32();
  auto crc = reader.get_u32();
  if (!sequence || !size || !crc) return std::nullopt;
  if (size.value() > FileBlockStore::kMetadataCapacity) return std::nullopt;
  auto blob = reader.get_raw(size.value());
  if (!blob) return std::nullopt;
  if (crc32c(std::span<const std::byte>(blob.value())) != crc.value()) {
    return std::nullopt;
  }
  return SlotContents{sequence.value(), std::move(blob).value()};
}

/// Read and elect the live metadata slot: the CRC-valid slot with the
/// highest sequence (ties go to the slot the sequence designates).
Result<SlotContents> elect_slot(int fd) {
  std::optional<SlotContents> slots[2];
  for (unsigned i = 0; i < 2; ++i) {
    std::vector<std::byte> raw(FileBlockStore::kSlotHeader +
                               FileBlockStore::kMetadataCapacity);
    auto outcome = read_at(fd, FileBlockStore::metadata_slot_offset(i),
                           raw.data(), raw.size());
    if (!outcome) return outcome.status();
    if (outcome.value() == ReadOutcome::kShort) continue;  // truncated: torn
    slots[i] = decode_slot(raw);
  }
  if (!slots[0] && !slots[1]) {
    return errors::corruption("both metadata slots torn or corrupt");
  }
  if (slots[0] && slots[1]) {
    if (slots[0]->sequence == slots[1]->sequence) {
      return std::move(*slots[slots[0]->sequence % 2]);
    }
    return std::move(
        *slots[slots[0]->sequence > slots[1]->sequence ? 0 : 1]);
  }
  return std::move(*slots[slots[0] ? 0 : 1]);
}

}  // namespace

std::uint64_t FileBlockStore::metadata_slot_offset(unsigned slot) noexcept {
  return kHeaderSize +
         static_cast<std::uint64_t>(slot % 2) *
             (kSlotHeader + kMetadataCapacity);
}

std::uint64_t FileBlockStore::block_record_offset(
    BlockId block) const noexcept {
  return first_block_offset() +
         block * static_cast<std::uint64_t>(kBlockRecordHeader + block_size_);
}

FileBlockStore::FileBlockStore(std::string path, int fd,
                               std::size_t block_count, std::size_t block_size)
    : path_(std::move(path)),
      fd_(fd),
      block_count_(block_count),
      block_size_(block_size),
      versions_(block_count, 0) {}

FileBlockStore::~FileBlockStore() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<FileBlockStore>> FileBlockStore::create(
    const std::string& path, std::size_t block_count, std::size_t block_size) {
  if (block_count == 0 || block_size == 0) {
    return errors::invalid_argument("block_count and block_size must be > 0");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return errors::io_error("cannot create " + path + ": " + errno_text());
  }
  auto store = std::unique_ptr<FileBlockStore>(
      new FileBlockStore(path, fd, block_count, block_size));

  const auto header = encode_header(Header{block_count, block_size});
  if (auto status = write_at(fd, 0, header.data(), header.size());
      !status.is_ok()) {
    return status;
  }
  // Both slots start identical at sequence 0 with an empty blob; the first
  // put_metadata then writes sequence 1 into slot 1.
  const auto slot = encode_slot(0, {});
  for (unsigned i = 0; i < 2; ++i) {
    if (auto status =
            write_at(fd, metadata_slot_offset(i), slot.data(), slot.size());
        !status.is_ok()) {
      return status;
    }
  }
  // Zero-fill every block with version 0, one run of records at a time.
  const std::vector<std::byte> zeros(block_size, std::byte{0});
  std::vector<BlockWrite> run;
  for (BlockId first = 0; first < block_count; first += kMaxRunRecords) {
    const BlockId end = std::min<BlockId>(block_count, first + kMaxRunRecords);
    run.clear();
    for (BlockId block = first; block < end; ++block) {
      run.push_back(BlockWrite{block, zeros, 0});
    }
    if (auto status = store->write_batch(run); !status.is_ok()) return status;
  }
  // The new store must be durable before anyone relies on it: fsync the
  // file, then the directory entry that names it. A directory fsync the
  // filesystem refuses (EINVAL/ENOTSUP-class) stays best-effort; a real
  // I/O failure surfaces — see sync_parent_dir.
  if (auto status = store->sync(); !status.is_ok()) return status;
  if (auto status = detail::sync_parent_dir(path); !status.is_ok()) {
    return status;
  }
  return store;
}

Result<std::unique_ptr<FileBlockStore>> FileBlockStore::open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    // A missing file is the one failure a caller may answer with create();
    // every other error must not be mistaken for "no store yet".
    if (errno == ENOENT) return errors::not_found("no store at " + path);
    return errors::io_error("cannot open " + path + ": " + errno_text());
  }
  std::vector<std::byte> raw(kHeaderSize);
  auto outcome = read_at(fd, 0, raw.data(), raw.size());
  if (!outcome) {
    ::close(fd);
    return outcome.status();
  }
  if (outcome.value() == ReadOutcome::kShort) {
    ::close(fd);
    return errors::corruption("short store header");
  }
  auto header = decode_header(raw);
  if (!header) {
    ::close(fd);
    return header.status();
  }
  auto store = std::unique_ptr<FileBlockStore>(
      new FileBlockStore(path, fd, header.value().block_count,
                         header.value().block_size));
  if (auto status = store->load_metadata_slots(); !status.is_ok()) {
    return status;
  }
  if (auto status = store->scrub_records(); !status.is_ok()) return status;
  return store;
}

Status FileBlockStore::load_metadata_slots() {
  auto slot = elect_slot(fd_);
  if (!slot) return slot.status();
  meta_sequence_ = slot.value().sequence;
  return Status::ok();
}

Status FileBlockStore::scrub_records() {
  const std::size_t per_read = std::clamp<std::size_t>(
      kScrubReadBytes / (kBlockRecordHeader + block_size_), 1, kMaxRunRecords);
  for (BlockId first = 0; first < block_count_; first += per_read) {
    const std::size_t count =
        std::min<std::size_t>(per_read, block_count_ - first);
    auto range = read_range(first, count);
    if (!range) {
      // A record whose bytes cannot be read at all is not a torn write —
      // find and name the block, and refuse to open.
      BlockId failed = first;
      while (failed + 1 < first + count && read_range(failed, 1).is_ok()) {
        ++failed;
      }
      return errors::io_error("block " + std::to_string(failed) + ": " +
                              range.status().message());
    }
    std::copy(range.value().versions.begin(), range.value().versions.end(),
              versions_.begin() + static_cast<std::ptrdiff_t>(first));
    for (const BlockId block : range.value().corrupt) {
      // Demote: version 0, zeroed payload, valid CRC. The block now looks
      // out-of-date to every engine and heals lazily from peers.
      const std::vector<std::byte> zeros(block_size_, std::byte{0});
      if (auto status = write(block, zeros, 0); !status.is_ok()) {
        return errors::io_error("block " + std::to_string(block) +
                                ": demotion rewrite failed: " +
                                status.message());
      }
      scrub_demoted_.push_back(block);
    }
  }
  if (!scrub_demoted_.empty()) {
    RELDEV_WARN("file-store")
        << path_ << ": opening scrub demoted " << scrub_demoted_.size()
        << " torn block record(s)";
    if (auto status = sync(); !status.is_ok()) return status;
  }
  return Status::ok();
}

Result<VersionedBlock> FileBlockStore::read(BlockId block) const {
  auto range = read_range(block, 1);
  if (!range) return range.status();
  if (!range.value().corrupt.empty()) {
    return errors::corruption("block " + std::to_string(block) +
                              " record torn or CRC mismatch");
  }
  return VersionedBlock{std::move(range.value().data),
                        range.value().versions.front()};
}

Status FileBlockStore::write(BlockId block, std::span<const std::byte> data,
                             VersionNumber version) {
  const BlockWrite entry{block, data, version};
  return write_batch(std::span<const BlockWrite>(&entry, 1));
}

Result<RangeRead> FileBlockStore::read_range(BlockId first,
                                             std::size_t count) const {
  if (auto status = check_range(first, count); !status.is_ok()) return status;
  RangeRead range;
  range.data.resize(count * block_size_);
  range.versions.resize(count);
  // Each record lands in place: its header in `headers`, its payload
  // straight in the caller's flat buffer.
  std::array<RecordHeader, kMaxRunRecords> headers{};
  std::array<::iovec, 2 * kMaxRunRecords> iov{};
  for (std::size_t done = 0; done < count;) {
    const std::size_t run = std::min(count - done, kMaxRunRecords);
    std::byte* const payloads = range.data.data() + done * block_size_;
    for (std::size_t i = 0; i < run; ++i) {
      iov[2 * i] = ::iovec{headers[i].data(), kBlockRecordHeader};
      iov[2 * i + 1] = ::iovec{payloads + i * block_size_, block_size_};
    }
    auto got = detail::readv_at(fd_, block_record_offset(first + done),
                                std::span<::iovec>(iov.data(), 2 * run));
    if (!got) return got.status();
    for (std::size_t i = 0; i < run; ++i) {
      const std::span<std::byte> payload(payloads + i * block_size_,
                                         block_size_);
      if (got.value() >= (i + 1) * (kBlockRecordHeader + block_size_)) {
        BufferReader header(headers[i]);
        const std::uint64_t version = header.get_u64().value();
        if (crc32c(payload) == header.get_u32().value()) {
          range.versions[done + i] = version;
          continue;
        }
      }
      std::fill(payload.begin(), payload.end(), std::byte{0});
      range.versions[done + i] = 0;
      range.corrupt.push_back(first + done + i);
    }
    done += run;
  }
  return range;
}

Status FileBlockStore::write_batch(std::span<const BlockWrite> writes) {
  if (auto status = check_batch(writes); !status.is_ok()) return status;
  // One pwritev per run of consecutive blocks: the headers come from
  // `headers`, the payloads straight from the caller's buffers.
  std::array<RecordHeader, kMaxRunRecords> headers{};
  std::array<::iovec, 2 * kMaxRunRecords> iov{};
  while (!writes.empty()) {
    const std::size_t run = run_length(writes);
    for (std::size_t i = 0; i < run; ++i) {
      const BlockWrite& entry = writes[i];
      put_le(headers[i].data(), entry.version, 8);
      put_le(headers[i].data() + 8, crc32c(entry.data), 4);
      iov[2 * i] = ::iovec{headers[i].data(), kBlockRecordHeader};
      iov[2 * i + 1] = ::iovec{const_cast<std::byte*>(entry.data.data()),
                               entry.data.size()};
    }
    if (auto status =
            detail::writev_at(fd_, block_record_offset(writes.front().block),
                              std::span<::iovec>(iov.data(), 2 * run));
        !status.is_ok()) {
      return status;
    }
    for (std::size_t i = 0; i < run; ++i) {
      versions_[writes[i].block] = writes[i].version;
    }
    writes = writes.subspan(run);
  }
  return Status::ok();
}

Result<VersionNumber> FileBlockStore::version_of(BlockId block) const {
  if (auto status = check_block(block); !status.is_ok()) return status;
  return versions_[block];
}

VersionVector FileBlockStore::version_vector() const {
  return VersionVector(versions_);
}

Status FileBlockStore::put_metadata(std::span<const std::byte> blob) {
  if (blob.size() > kMetadataCapacity) {
    return errors::invalid_argument("metadata blob exceeds capacity");
  }
  // Write the NOT-currently-active slot with the next sequence number; the
  // live slot is untouched, so a crash tearing this write loses nothing.
  const std::uint64_t next = meta_sequence_ + 1;
  const auto slot = encode_slot(next, blob);
  if (auto status =
          write_at(fd_, metadata_slot_offset(static_cast<unsigned>(next % 2)),
                   slot.data(), slot.size());
      !status.is_ok()) {
    return status;
  }
  meta_sequence_ = next;
  return Status::ok();
}

Result<std::vector<std::byte>> FileBlockStore::get_metadata() const {
  // Re-run the slot election on every call so runtime corruption of the
  // live slot (bit rot, mutilation) falls back to the surviving slot
  // instead of serving garbage.
  auto slot = elect_slot(fd_);
  if (!slot) return slot.status();
  return std::move(slot).value().blob;
}

Status FileBlockStore::sync() { return detail::sync_fd(fd_); }

Status FileBlockStore::raw_write_at(std::uint64_t offset,
                                    std::span<const std::byte> bytes) {
  return write_at(fd_, offset, bytes.data(), bytes.size());
}

}  // namespace reldev::storage
