// Cooperative cancellation with an optional deadline watchdog.
//
// One CancellationToken is shared by everything a synthesis run spawns: the
// pipeline, the optimizers' parallel_for chunk bodies, and the conditional
// scheduler's per-scenario simulations.  Cancellation has two sources:
//
//   * request_cancel() -- an external caller (a UI, a batch supervisor, a
//     watchdog *thread* in tests) flips the flag directly; and
//   * armed wall-clock budgets -- poll() compares steady_clock against the
//     per-stage and total deadlines and flips the flag itself on expiry.
//     This is the *cooperative* watchdog path: no extra thread exists, the
//     workers polling at their cancellation points are the watchdog.  The
//     cancel latency is therefore bounded by one chunk of work between
//     polls -- one candidate evaluation, one scenario simulation, or the
//     schedule-table stage's full WCSL evaluation.
//
// Tokens chain: a job of the synthesis server (serve/job_server.h) chains
// its run's token to the server-wide token with set_parent(), so the
// job observes the server's *flag* -- cancel_all() winds down every
// in-flight job -- while a job cancelled on its own (an expired budget, a
// request) leaves the server and the other jobs alive.  A child
// deliberately does NOT evaluate the parent's armed deadlines: a token's
// budgets are enforced only by the threads polling that token, so one
// job's workers can never flip the shared parent and cancel every other
// job with it.
//
// Determinism: in a run that is never cancelled, poll() only reads relaxed
// atomics (and the clock, whose value it ignores), so polling sites do not
// perturb results; cancelled runs are inherently timing-dependent and only
// promise a well-formed partial result.
#pragma once

#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>

namespace ftes {

/// Thrown by library calls that cannot return a meaningful partial result
/// when cancelled mid-flight (e.g. conditional_schedule: tables built from
/// a scenario subset would be wrong, not partial).  The optimizers never
/// throw it -- they return their incumbent instead.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const char* what) : std::runtime_error(what) {}
};

class CancellationToken {
 public:
  CancellationToken() = default;

  /// Makes this a child token: poll()/cancelled() also observe `parent`,
  /// which must outlive this token; cancelling the child does not touch
  /// the parent.  Used by owners that construct the token themselves (a
  /// SynthesisContext inside a server job chaining to the server-wide
  /// shutdown token).  Must be called before the token is shared with
  /// other threads: parent_ is an unsynchronized pointer, published by
  /// whatever handoff starts those threads.
  void set_parent(CancellationToken* parent) noexcept { parent_ = parent; }

  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Flips the flag from any thread.  Idempotent; the first flip (from any
  /// source) stamps the time that seconds_since_cancel() measures from.
  void request_cancel() noexcept { mark_cancelled(false); }

  /// Fast check: no clock read, never flips the flag.  Use inside tight
  /// serial loops that already passed a poll() recently.
  [[nodiscard]] bool cancelled() const noexcept {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    return parent_ != nullptr && parent_->cancelled();
  }

  /// Cancellation point: checks the flag, the parent's flag, then this
  /// token's own armed deadlines (one clock read), flipping the flag on
  /// expiry.  Safe to call concurrently from every worker.  (The parent's
  /// deadlines are NOT evaluated here -- see the header comment.)
  [[nodiscard]] bool poll() noexcept {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (parent_ != nullptr && parent_->cancelled()) {
      mark_cancelled(false);
      return true;
    }
    const long long stage = stage_deadline_ns_.load(std::memory_order_relaxed);
    const long long total = total_deadline_ns_.load(std::memory_order_relaxed);
    if (stage == kNoDeadline && total == kNoDeadline) return false;
    const long long now = now_ns();
    if ((stage != kNoDeadline && now >= stage) ||
        (total != kNoDeadline && now >= total)) {
      mark_cancelled(true);
      return true;
    }
    return false;
  }

  /// Arms the whole-run watchdog: poll() cancels `ms` from now.
  void arm_total_budget_ms(long long ms) noexcept {
    total_deadline_ns_.store(deadline_from_ms(ms), std::memory_order_relaxed);
  }

  /// Arms the per-stage watchdog: poll() cancels `ms` from now.  Re-armed
  /// by the pipeline at every stage start; cleared at stage end.
  void arm_stage_budget_ms(long long ms) noexcept {
    stage_deadline_ns_.store(deadline_from_ms(ms), std::memory_order_relaxed);
  }

  void clear_stage_deadline() noexcept {
    stage_deadline_ns_.store(kNoDeadline, std::memory_order_relaxed);
  }

  /// True when the cancellation came from an armed deadline (as opposed to
  /// an external request_cancel()).
  [[nodiscard]] bool deadline_expired() const noexcept {
    return deadline_hit_.load(std::memory_order_relaxed);
  }

  /// Seconds elapsed since the flag first flipped; 0 when not cancelled.
  /// Measured at stage end this is the cancel latency: how long the stage
  /// kept working past the cancellation.
  [[nodiscard]] double seconds_since_cancel() const noexcept {
    const long long at = cancel_at_ns_.load(std::memory_order_relaxed);
    if (at == 0) return 0.0;
    const long long delta = now_ns() - at;
    return delta > 0 ? static_cast<double>(delta) * 1e-9 : 0.0;
  }

 private:
  static constexpr long long kNoDeadline = -1;

  [[nodiscard]] static long long now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// now + ms, saturating: an absurdly large budget ("practically
  /// unlimited") must not wrap negative and fire instantly.
  [[nodiscard]] static long long deadline_from_ms(long long ms) noexcept {
    const long long now = now_ns();
    if (ms < 0) return now;  // defensive: callers gate on ms >= 0
    constexpr long long kMax = std::numeric_limits<long long>::max();
    if (ms > (kMax - now) / 1'000'000) return kMax;  // never expires
    return now + ms * 1'000'000;
  }

  void mark_cancelled(bool from_deadline) noexcept {
    // The first flip (CAS winner) stamps the latency clock; later flips
    // from other sources must not move it.
    long long expected = 0;
    cancel_at_ns_.compare_exchange_strong(expected, now_ns(),
                                          std::memory_order_relaxed);
    if (from_deadline) deadline_hit_.store(true, std::memory_order_relaxed);
    cancelled_.store(true, std::memory_order_relaxed);
  }

  CancellationToken* parent_ = nullptr;
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> deadline_hit_{false};
  std::atomic<long long> cancel_at_ns_{0};
  std::atomic<long long> stage_deadline_ns_{kNoDeadline};
  std::atomic<long long> total_deadline_ns_{kNoDeadline};
};

}  // namespace ftes
