// A token bucket for rate limiting background work (the scrubber's
// bytes/s and ops/s budgets). The bucket always grants — callers doing
// background work should not fail, only slow down — and reports the delay
// needed to repay any debt the grant created. Synchronous callers may
// ignore the delay (accounting-only mode); the background scrub loop
// sleeps it off before the next batch.
//
// Time is passed in explicitly so tests drive the bucket with synthetic
// clocks and stay deterministic.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace reldev {

class TokenBucket {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unlimited: acquire() always returns zero delay.
  TokenBucket() = default;

  /// `rate_per_sec` tokens accrue per second up to a cap of `burst`
  /// (a zero rate means unlimited; a zero burst is clamped to the rate so
  /// one second of budget is always available at once).
  TokenBucket(std::uint64_t rate_per_sec, std::uint64_t burst)
      : rate_(static_cast<double>(rate_per_sec)),
        burst_(burst > 0 ? static_cast<double>(burst)
                         : static_cast<double>(rate_per_sec)) {}

  [[nodiscard]] bool unlimited() const noexcept { return rate_ <= 0.0; }

  /// Take `tokens` now (always granted). Returns how long the caller
  /// should wait before issuing more work so the long-run rate holds:
  /// zero while the bucket is in credit, the debt-repayment time once
  /// it has gone negative.
  std::chrono::nanoseconds acquire(std::uint64_t tokens,
                                   Clock::time_point now) {
    if (unlimited()) return std::chrono::nanoseconds::zero();
    refill(now);
    tokens_ -= static_cast<double>(tokens);
    if (tokens_ >= 0.0) return std::chrono::nanoseconds::zero();
    const double seconds = -tokens_ / rate_;
    return std::chrono::nanoseconds(
        static_cast<std::int64_t>(seconds * 1e9));
  }

  /// Current balance (negative = debt). Refills first.
  [[nodiscard]] double available(Clock::time_point now) {
    if (unlimited()) return 0.0;
    refill(now);
    return tokens_;
  }

 private:
  void refill(Clock::time_point now) {
    if (!primed_) {
      primed_ = true;
      last_ = now;
      tokens_ = burst_;
      return;
    }
    const std::chrono::duration<double> dt = now - last_;
    if (dt.count() > 0) {
      tokens_ = std::min(burst_, tokens_ + dt.count() * rate_);
      last_ = now;
    }
  }

  double rate_ = 0.0;
  double burst_ = 0.0;
  double tokens_ = 0.0;
  bool primed_ = false;  // the first refill starts the bucket full
  Clock::time_point last_{};
};

}  // namespace reldev
