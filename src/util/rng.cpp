#include "util/rng.hpp"

#include <cassert>

namespace hsbp::util {

std::uint64_t Rng::uniform_int(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Lemire 2019: multiply-shift with rejection only in the biased sliver.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::size_t Rng::discrete(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w;
  assert(total > 0.0);
  double draw = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    draw -= weights[i];
    if (draw < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: total rounded down
}

void Rng::shuffle(std::vector<std::int32_t>& values) noexcept {
  for (std::size_t i = values.size(); i > 1; --i) {
    const std::size_t j = uniform_int(i);
    std::swap(values[i - 1], values[j]);
  }
}

RngPool::RngPool(std::uint64_t seed, std::size_t streams) {
  streams_.reserve(streams);
  SplitMix64 sm(seed);
  for (std::size_t i = 0; i < streams; ++i) {
    streams_.emplace_back(sm.next());
  }
}

std::vector<Rng::State> RngPool::export_states() const {
  std::vector<Rng::State> states;
  states.reserve(streams_.size());
  for (const Rng& rng : streams_) states.push_back(rng.state());
  return states;
}

void RngPool::restore_states(std::span<const Rng::State> states) {
  assert(states.size() == streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    streams_[i].set_state(states[i]);
  }
}

}  // namespace hsbp::util
