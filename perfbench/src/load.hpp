// Seeded, self-checking load for one closed-loop client.
//
// A client owns a disjoint range of blocks (the engines do not serialize
// concurrent writes to one block), so it alone knows what each of its
// blocks must hold: the stamp of its last acknowledged write. Every write
// fills every 8-byte word of every block with a value derived from a
// (client, sequence, block) stamp no other write uses, and every read is
// checked word for word against the last acknowledged stamp. The op
// stream depends only on the stream seed, which the benchmark derives
// from (workload, seed, client, phase).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "reldev/storage/block.hpp"

namespace perfbench {

/// The SplitMix64 output function.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::uint64_t stream_seed(std::string_view workload, std::uint64_t seed,
                                 std::uint64_t client, std::uint64_t phase) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a of the name
  for (const char c : workload) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return mix64(hash ^ mix64(seed + mix64(client + mix64(phase + 1))));
}

struct Op {
  bool read = true;
  reldev::storage::BlockId first = 0;  ///< the op covers `range` blocks
};

class ClientLoad {
 public:
  ClientLoad(std::uint32_t client, reldev::storage::BlockId base,
             std::size_t blocks, std::size_t range, double read_fraction,
             std::size_t block_size)
      : client_(client),
        base_(base),
        slots_(blocks / range),
        range_(range),
        read_fraction_(read_fraction),
        block_size_(block_size),
        acked_(blocks, kUnknown) {}

  void start_stream(std::uint64_t seed) { state_ = seed; }

  /// Next op of the stream: a read or write of one aligned range, uniform
  /// over the client's blocks.
  Op next() {
    const bool read = unit() < read_fraction_;
    return slot_op(read, next_u64() % slots_);
  }

  [[nodiscard]] std::size_t slots() const { return slots_; }
  [[nodiscard]] Op slot_op(bool read, std::size_t slot) const {
    return Op{read, base_ + slot * range_};
  }

  /// Fill `payload` with a fresh stamp for every block `op` writes.
  void stamp(const Op& op, std::span<std::byte> payload) {
    pending_ = next_sequence_++;
    for (std::size_t i = 0; i < range_; ++i) {
      fill(payload.subspan(i * block_size_, block_size_), op.first + i,
           pending_);
    }
  }
  /// The write of `op` was acknowledged: its blocks hold the last stamp.
  void acknowledge(const Op& op) {
    for (std::size_t i = 0; i < range_; ++i) acked_[index(op, i)] = pending_;
  }
  /// The write of `op` failed: its blocks may hold either stamp, so they
  /// are no longer checked.
  void forget(const Op& op) {
    for (std::size_t i = 0; i < range_; ++i) acked_[index(op, i)] = kUnknown;
  }

  /// True when every block of `data` holds its last acknowledged stamp.
  [[nodiscard]] bool check(const Op& op, std::span<const std::byte> data) {
    if (data.size() != range_ * block_size_) return false;
    for (std::size_t i = 0; i < range_; ++i) {
      std::uint64_t expected = acked_[index(op, i)];
      if (expected == kUnknown) continue;
      if (wrong_once_) {
        wrong_once_ = false;
        ++expected;
      }
      if (!matches(data.subspan(i * block_size_, block_size_), op.first + i,
                   expected)) {
        return false;
      }
    }
    return true;
  }

  /// Self-test: the next checked block expects a stamp no write used, so
  /// the run must report a mismatch.
  void expect_wrong_stamp_once() { wrong_once_ = true; }

 private:
  static constexpr std::uint64_t kUnknown = 0;  // sequences start at 1

  [[nodiscard]] std::size_t index(const Op& op, std::size_t i) const {
    return static_cast<std::size_t>(op.first - base_) + i;
  }

  [[nodiscard]] std::uint64_t stamp_base(reldev::storage::BlockId block,
                                         std::uint64_t sequence) const {
    return mix64((std::uint64_t{client_} << 40) ^ sequence ^
                 mix64(block + 0x9e3779b97f4a7c15ULL));
  }

  void fill(std::span<std::byte> out, reldev::storage::BlockId block,
            std::uint64_t sequence) const {
    const std::uint64_t base = stamp_base(block, sequence);
    for (std::size_t w = 0; w < out.size() / 8; ++w) {
      const std::uint64_t word = base + w;
      std::memcpy(out.data() + w * 8, &word, sizeof word);
    }
  }

  [[nodiscard]] bool matches(std::span<const std::byte> in,
                             reldev::storage::BlockId block,
                             std::uint64_t sequence) const {
    const std::uint64_t base = stamp_base(block, sequence);
    for (std::size_t w = 0; w < in.size() / 8; ++w) {
      std::uint64_t word = 0;
      std::memcpy(&word, in.data() + w * 8, sizeof word);
      if (word != base + w) return false;
    }
    return true;
  }

  std::uint64_t next_u64() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }
  double unit() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  std::uint32_t client_;
  reldev::storage::BlockId base_;
  std::size_t slots_;
  std::size_t range_;
  double read_fraction_;
  std::size_t block_size_;
  std::vector<std::uint64_t> acked_;  // per owned block; kUnknown = unchecked
  std::uint64_t state_ = 0;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t pending_ = kUnknown;
  bool wrong_once_ = false;
};

}  // namespace perfbench
