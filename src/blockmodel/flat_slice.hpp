/// \file flat_slice.hpp
/// \brief Flat sparse map for one row/column of the blockmodel matrix.
///
/// The hot kernels (proposal weighted draws, merge ΔMDL, rebuild degree
/// sums) iterate entire slices; std::unordered_map makes every step a
/// pointer chase into a separately allocated node. FlatSlice stores the
/// live entries as one contiguous (BlockId, Count) span:
///   - below kInlineCapacity entries: an inline array, no heap at all,
///     lookups are a short linear scan (this covers almost every slice
///     early in a run, when C ≈ V and rows hold ~deg(v) entries);
///   - above: a dense entry vector plus an open-addressing probe table
///     (Fibonacci hashing, linear probing, backward-shift deletion)
///     mapping key → entry position, so lookups stay O(1) while
///     iteration remains a linear sweep over contiguous memory.
///
/// Iteration order is deterministic (insertion order, perturbed only by
/// swap-remove on erase; a fresh Blockmodel build sorts every slice by
/// key) but differs from std::unordered_map's — fixed seeds reproduce
/// within a build, not against pre-FlatSlice builds.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace hsbp::blockmodel {

using BlockId = std::int32_t;
using Count = std::int64_t;

class FlatSlice {
 public:
  struct Entry {
    BlockId key;
    Count value;
  };

  FlatSlice() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// The live entries as one contiguous span (no zero-valued entries).
  std::span<const Entry> entries() const noexcept {
    return {data(), static_cast<std::size_t>(size_)};
  }
  const Entry* begin() const noexcept { return data(); }
  const Entry* end() const noexcept { return data() + size_; }

  /// Value for `key`; absent keys are 0.
  Count get(BlockId key) const noexcept {
    const Entry* e = find(key);
    return e ? e->value : 0;
  }

  /// Value for `key`. \throws std::out_of_range if absent.
  Count at(BlockId key) const {
    const Entry* e = find(key);
    if (!e) throw std::out_of_range("FlatSlice::at: key not present");
    return e->value;
  }

  /// Adds `delta` to the entry for `key`, erasing it if it reaches zero.
  /// Returns +1 if an entry was created, -1 if one was erased, else 0;
  /// `new_value` receives the entry's resulting value (0 when erased) so
  /// callers maintaining Σ f(value) aggregates — the Blockmodel's
  /// fixed-point log-likelihood — get it without a second lookup.
  /// \pre the resulting value must be >= 0 (asserted).
  /// Inline so the dominant case — updating an existing entry, what
  /// move_vertex does ~4·deg(v) times per accepted move — compiles down
  /// to a probe and an in-place increment; create/erase/grow are the
  /// out-of-line slow paths.
  int add(BlockId key, Count delta, Count& new_value) {
    if (delta == 0) {
      new_value = get(key);
      return 0;
    }

    if (!indexed()) {
      for (std::uint32_t i = 0; i < size_; ++i) {
        if (inline_[i].key != key) continue;
        inline_[i].value += delta;
        assert(inline_[i].value >= 0 && "slice entry went negative");
        new_value = inline_[i].value;
        if (inline_[i].value != 0) return 0;
        inline_[i] = inline_[--size_];
        return -1;
      }
      assert(delta > 0 && "creating a slice entry with a negative value");
      new_value = delta;
      if (size_ < kInlineCapacity) {
        inline_[size_++] = {key, delta};
        return +1;
      }
      return spill_and_insert(key, delta);
    }

    const std::uint32_t slot = find_slot(key);
    if (index_[slot] != 0) {
      const std::uint32_t pos = index_[slot] - 1;
      spill_[pos].value += delta;
      assert(spill_[pos].value >= 0 && "slice entry went negative");
      new_value = spill_[pos].value;
      if (spill_[pos].value != 0) return 0;
      erase_slot(slot);
      erase_entry(pos);
      return -1;
    }
    new_value = delta;
    return insert_indexed(key, delta, slot);
  }

  /// add() for callers that don't need the resulting value.
  int add(BlockId key, Count delta) {
    Count ignored;
    return add(key, delta, ignored);
  }

  /// Reorders the entries by ascending key — a canonical iteration
  /// order that does not depend on the insertion history.
  void sort_by_key();

  /// True once the slice has left inline mode (observable for tests).
  bool indexed() const noexcept { return !index_.empty(); }

 private:
  static constexpr std::uint32_t kInlineCapacity = 8;
  static constexpr std::uint32_t kInitialTableCapacity = 32;

  const Entry* data() const noexcept {
    return indexed() ? spill_.data() : inline_.data();
  }
  Entry* data() noexcept { return indexed() ? spill_.data() : inline_.data(); }

  const Entry* find(BlockId key) const noexcept {
    if (!indexed()) {
      for (const Entry* e = inline_.data(); e != inline_.data() + size_; ++e) {
        if (e->key == key) return e;
      }
      return nullptr;
    }
    const std::uint32_t slot = find_slot(key);
    return index_[slot] == 0 ? nullptr : &spill_[index_[slot] - 1];
  }

  std::uint32_t bucket_of(BlockId key) const noexcept {
    // Fibonacci hashing: multiply spreads the dense block ids, the
    // shift keeps the high (well-mixed) bits.
    return (static_cast<std::uint32_t>(key) * 2654435769u) >> shift_;
  }

  /// Slot holding `key`, or the empty slot where it would be inserted.
  std::uint32_t find_slot(BlockId key) const noexcept {
    const std::uint32_t mask = static_cast<std::uint32_t>(index_.size()) - 1;
    std::uint32_t slot = bucket_of(key);
    while (index_[slot] != 0 && spill_[index_[slot] - 1].key != key) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  int spill_and_insert(BlockId key, Count delta);
  int insert_indexed(BlockId key, Count delta, std::uint32_t slot);
  void rehash(std::uint32_t capacity);
  void erase_slot(std::uint32_t hole) noexcept;
  void erase_entry(std::uint32_t pos) noexcept;

  std::uint32_t size_ = 0;
  std::uint32_t shift_ = 0;  ///< 32 − log2(table capacity); 0 in inline mode
  std::array<Entry, kInlineCapacity> inline_{};
  std::vector<Entry> spill_;          ///< dense entries (indexed mode)
  std::vector<std::uint32_t> index_;  ///< slot → entry pos + 1; 0 = empty
};

}  // namespace hsbp::blockmodel
