#pragma once

// Spin, then park: the shared-memory runtime's wait.
//
// An EventCount is a counter that waiters watch for a change. The waiter
// reads the count while it still holds the lock that guards its condition,
// checks the condition, drops the lock and calls wait(seen). The signaller
// changes the condition under that lock, then calls notify(), which bumps the
// count and wakes every parked waiter. The bump happens after the waiter's
// read, so it is later in the count's modification order and the wait cannot
// miss it; a bump for some other change costs the waiter one rescan.
//
// wait() re-reads the count with a CPU pause for at most kSpinBudget and only
// then parks in std::atomic<std::uint32_t>::wait (a futex in GCC 12's
// libstdc++, whose notify_all makes no system call while nobody is parked).
// A hand-off that lands inside the budget therefore costs neither side a
// sleep or a wake-up; a longer wait costs one budget of CPU and then sleeps
// as a condition variable would.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/aligned.h"

namespace gw2v::runtime {

/// How long a waiter spins before it parks. Each serve round hands off
/// twice, rank 0 -> worker through the broadcast and worker -> rank 0
/// through gatherv, around 7-10 us of one rank's ANN work; 20 us, two to
/// three times that, catches both hand-offs while the receiver is still
/// spinning. A wait that outlasts it (a BSP straggler, an idle worker) parks.
inline constexpr std::chrono::nanoseconds kSpinBudget = std::chrono::microseconds(20);

/// On its own cache line, so spinning waiters do not contend with the data
/// the lock guards.
class alignas(util::kCacheLine) EventCount {
 public:
  /// The count to pass to wait(); read it before checking the condition.
  std::uint32_t read() const noexcept { return count_.load(); }

  /// Bump the count and wake every waiter.
  void notify() noexcept {
    count_.fetch_add(1);
    count_.notify_all();
  }

  /// Return once the count differs from `seen`: spin for at most
  /// kSpinBudget, then park.
  void wait(std::uint32_t seen) const noexcept {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline = Clock::now() + kSpinBudget;
    while (Clock::now() < deadline) {
      if (count_.load() != seen) return;
      cpuRelax();
    }
    count_.wait(seen);
  }

 private:
  /// One pause of the spin: tells the core a spin is running, so its
  /// sibling hyperthread gets the pipeline and the exit is not mispredicted.
  static void cpuRelax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
  }

  std::atomic<std::uint32_t> count_{0};
};

}  // namespace gw2v::runtime
