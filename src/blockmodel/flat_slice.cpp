#include "blockmodel/flat_slice.hpp"

#include <algorithm>

namespace hsbp::blockmodel {

int FlatSlice::spill_and_insert(BlockId key, Count delta) {
  spill_.assign(inline_.data(), inline_.data() + size_);
  rehash(kInitialTableCapacity);
  return insert_indexed(key, delta, find_slot(key));
}

int FlatSlice::insert_indexed(BlockId key, Count delta, std::uint32_t slot) {
  assert(delta > 0 && "creating a slice entry with a negative value");
  // Keep the probe table at most 3/4 full.
  if ((size_ + 1) * 4 > index_.size() * 3) {
    rehash(static_cast<std::uint32_t>(index_.size()) * 2);
    slot = find_slot(key);
  }
  spill_.push_back({key, delta});
  index_[slot] = ++size_;
  return +1;
}

void FlatSlice::rehash(std::uint32_t capacity) {
  assert((capacity & (capacity - 1)) == 0 && capacity > size_);
  index_.assign(capacity, 0);
  shift_ = 32;
  for (std::uint32_t c = capacity; c > 1; c >>= 1) --shift_;
  const std::uint32_t mask = capacity - 1;
  for (std::uint32_t pos = 0; pos < size_; ++pos) {
    std::uint32_t slot = bucket_of(spill_[pos].key);
    while (index_[slot] != 0) slot = (slot + 1) & mask;
    index_[slot] = pos + 1;
  }
}

void FlatSlice::sort_by_key() {
  Entry* first = data();
  std::sort(first, first + size_,
            [](const Entry& x, const Entry& y) { return x.key < y.key; });
  // Entry positions moved: re-point the probe table at them.
  if (indexed()) rehash(static_cast<std::uint32_t>(index_.size()));
}

void FlatSlice::erase_slot(std::uint32_t hole) noexcept {
  // Backward-shift deletion for linear probing: pull every displaced
  // entry after the hole one step back along its probe path so lookups
  // never need tombstones.
  const std::uint32_t mask =
      static_cast<std::uint32_t>(index_.size()) - 1;
  std::uint32_t next = (hole + 1) & mask;
  while (index_[next] != 0) {
    const std::uint32_t home = bucket_of(spill_[index_[next] - 1].key);
    // The entry at `next` may fill `hole` iff `hole` lies on its probe
    // path, i.e. its displacement reaches at least back to the hole.
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
    next = (next + 1) & mask;
  }
  index_[hole] = 0;
}

void FlatSlice::erase_entry(std::uint32_t pos) noexcept {
  const std::uint32_t last = size_ - 1;
  if (pos != last) {
    spill_[pos] = spill_[last];
    // Redirect the moved entry's slot to its new position.
    index_[find_slot(spill_[pos].key)] = pos + 1;
  }
  spill_.pop_back();
  --size_;
}

}  // namespace hsbp::blockmodel
