/// \file rng.hpp
/// \brief Deterministic, splittable pseudo-random number generation.
///
/// The MCMC phases of SBP draw millions of proposals; std::mt19937 is both
/// slow and awkward to split across OpenMP threads. We use xoshiro256**
/// (Blackman & Vigna) seeded through SplitMix64, which gives:
///   - bit-reproducible runs for a fixed seed,
///   - cheaply derivable independent streams: indexed (RngPool) and
///     keyed on the unit of work they serve (keyed_stream), and
///   - fast unbiased bounded integers via Lemire's multiply-shift trick.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace hsbp::util {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state and
/// to derive independent stream seeds. Passes BigCrush as a generator in
/// its own right; its main role here is seed whitening.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — the workhorse generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// The full generator state (four 64-bit words) — exported into
  /// checkpoints so a resumed run continues the exact same stream.
  using State = std::array<std::uint64_t, 4>;

  /// Seeds the four state words through SplitMix64 so that any 64-bit
  /// seed (including 0) produces a well-mixed state.
  explicit Rng(std::uint64_t seed = 0x9d2c5680u) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
  }

  State state() const noexcept {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void set_state(const State& state) noexcept {
    for (std::size_t i = 0; i < state.size(); ++i) state_[i] = state[i];
  }

  /// UniformRandomBitGenerator interface (usable with <random> adaptors).
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of mantissa entropy.
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). Lemire's nearly-divisionless method;
  /// unbiased. \pre bound > 0.
  std::uint64_t uniform_int(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. \pre lo <= hi.
  std::int64_t uniform_between(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_int(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Index drawn from the discrete distribution proportional to `weights`.
  /// Linear scan; intended for short weight vectors (proposal mixtures).
  /// \pre at least one weight is positive.
  std::size_t discrete(std::span<const double> weights) noexcept;

  /// Fisher–Yates shuffle of an index vector.
  void shuffle(std::vector<std::int32_t>& values) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

/// Counter-based stream derivation: the generator for draw site
/// (a, b) under `key`, e.g. (pass, position) under a phase key. The
/// seed chains each word through a SplitMix64 step, so neighbouring
/// sites get unrelated streams, and re-deriving a site replays its
/// draws exactly — whichever thread asks, and however often.
inline Rng keyed_stream(std::uint64_t key, std::uint64_t a,
                        std::uint64_t b) noexcept {
  const std::uint64_t h = SplitMix64(key).next();
  return Rng(SplitMix64(SplitMix64(h ^ a).next() ^ b).next());
}

/// A pool of independent RNG streams. Stream i is seeded as
/// SplitMix64(seed).next() applied i+1 times, so the pool is
/// deterministic in (seed, stream index) and independent of thread
/// count. Parallel code does not draw from per-thread streams: it draws
/// a key from stream 0 serially and derives keyed_stream()s from it.
class RngPool {
 public:
  /// \param streams number of independent streams (>= requested threads).
  RngPool(std::uint64_t seed, std::size_t streams);

  /// Stream by explicit index. \pre index < size().
  Rng& stream(std::size_t index) noexcept { return streams_[index]; }

  std::size_t size() const noexcept { return streams_.size(); }

  /// All stream states, in index order (checkpoint export).
  std::vector<Rng::State> export_states() const;

  /// Restores a previously exported set of stream states.
  /// \pre states.size() == size() — a resumed run must be configured
  /// with the same number of streams (i.e. the same thread budget).
  void restore_states(std::span<const Rng::State> states);

 private:
  std::vector<Rng> streams_;
};

}  // namespace hsbp::util
