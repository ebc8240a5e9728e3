/// \file round_barrier.hpp
/// \brief A team barrier for short, frequent rounds inside one
/// omp_region(): the ordered high-degree sweep and the rounds of an
/// asynchronous pass.
///
/// A round takes tens of microseconds and a pass has many of them, so
/// how a thread waits matters. libgomp's barrier (omp_region_barrier)
/// spins for milliseconds before it sleeps; when several multi-threaded
/// processes share the cores, the spinners hold the cores a descheduled
/// team member needs and every round stalls. This barrier spins for at
/// most kSpin, then sleeps on the round counter until the last thread
/// arrives. Its handoffs are release/acquire atomics, which
/// ThreadSanitizer sees directly.
#pragma once

#include <atomic>
#include <chrono>

namespace hsbp::util {

class RoundBarrier {
 public:
  /// Returns once `team` threads have called wait() for this round.
  void wait(int team) noexcept {
    const unsigned round = round_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) == team - 1) {
      arrived_.store(0, std::memory_order_relaxed);
      round_.store(round + 1, std::memory_order_seq_cst);
      if (sleepers_.load(std::memory_order_seq_cst) > 0) round_.notify_all();
      return;
    }
    const auto deadline = std::chrono::steady_clock::now() + kSpin;
    for (unsigned polls = 1; round_.load(std::memory_order_acquire) == round;
         ++polls) {
      if (polls % 64 != 0 || std::chrono::steady_clock::now() < deadline) {
        continue;
      }
      // Pairs with the last arriver's store-then-load above (all
      // seq_cst): either it sees this sleeper and notifies, or this
      // wait() sees the new round and returns at once.
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      round_.wait(round, std::memory_order_seq_cst);
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr std::chrono::microseconds kSpin{200};
  std::atomic<int> arrived_{0};
  std::atomic<unsigned> round_{0};
  std::atomic<int> sleepers_{0};
};

}  // namespace hsbp::util
