// Traffic accounting at the paper's granularity (§5): high-level
// transmissions, classified by the logical operation that caused them. In a
// multicast network one broadcast is a single transmission however many
// sites hear it; with unique addressing each destination costs one.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace reldev::net {

enum class AddressingMode : std::uint8_t {
  kMulticast = 0,  // §5.1: one transmission reaches any number of sites
  kUnique = 1,     // §5.2: one transmission per destination
};

/// The logical operations §5 decomposes traffic by.
enum class OpKind : std::uint8_t { kRead = 0, kWrite = 1, kRecovery = 2, kOther = 3 };

const char* op_kind_name(OpKind kind) noexcept;

/// Counts transmissions per OpKind. The protocol engines set the current
/// operation before doing work; the transport reports transmissions here.
/// Counters are atomic: concurrent operations report at once, and
/// stragglers past an early-stop quorum report *after* the operation
/// returned, from the transport's reaper thread — under the OpKind captured
/// when the round was sent (add_for), so late replies land in the right
/// bucket.
class TrafficMeter {
 public:
  void set_current_op(OpKind kind) noexcept {
    current_.store(kind, std::memory_order_relaxed);
  }
  [[nodiscard]] OpKind current_op() const noexcept {
    return current_.load(std::memory_order_relaxed);
  }

  void add(std::uint64_t transmissions) noexcept {
    add_for(current_op(), transmissions);
  }

  /// Report transmissions under an explicit operation, regardless of what
  /// the engine thread is doing now.
  void add_for(OpKind kind, std::uint64_t transmissions) noexcept {
    counts_[static_cast<std::size_t>(kind)].fetch_add(
        transmissions, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count(OpKind kind) const noexcept {
    return counts_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& c : counts_) sum += c.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() noexcept {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<OpKind> current_{OpKind::kOther};
  std::array<std::atomic<std::uint64_t>, 4> counts_{};
};

/// RAII helper: sets the meter's operation for a scope, restores on exit.
class OpScope {
 public:
  OpScope(TrafficMeter& meter, OpKind kind) noexcept
      : meter_(meter), previous_(meter.current_op()) {
    meter_.set_current_op(kind);
  }
  ~OpScope() { meter_.set_current_op(previous_); }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  TrafficMeter& meter_;
  OpKind previous_;
};

}  // namespace reldev::net
