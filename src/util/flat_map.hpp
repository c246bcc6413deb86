// Open-addressing flat hash containers for the aggregation hot path.
//
// FlatMap keeps its entries in one dense vector (iteration = a linear scan
// over contiguous pairs, the property the candidate-tag scan of Algorithm 1
// lives on) plus a power-of-two open-addressing index of entry positions
// probed linearly.  Erase swap-removes from the dense vector and repairs the
// index with backward-shift deletion, so the table never accumulates
// tombstones and probe chains stay short under the install/uninstall churn
// of online path management.
//
// Determinism: given the same sequence of operations, iteration order is
// identical across runs (no pointer-keyed hashing, no allocator-dependent
// bucket layout) -- the runtime's state-fingerprint tests rely on the whole
// control plane being replayable.
//
// The API is the subset of std::unordered_map the codebase uses: find /
// contains / operator[] / at / emplace / try_emplace / erase(key) / size /
// empty / clear / reserve and range-for over std::pair<K, V>.  Iterators are
// plain pointers into the dense vector and are invalidated by any mutation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/lifetime.hpp"

namespace softcell {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = value_type*;
  using const_iterator = const value_type*;

  FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  [[nodiscard]] iterator begin() SC_LIFETIMEBOUND { return entries_.data(); }
  [[nodiscard]] iterator end() SC_LIFETIMEBOUND {
    return entries_.data() + entries_.size();
  }
  [[nodiscard]] const_iterator begin() const SC_LIFETIMEBOUND {
    return entries_.data();
  }
  [[nodiscard]] const_iterator end() const SC_LIFETIMEBOUND {
    return entries_.data() + entries_.size();
  }

  void clear() {
    entries_.clear();
    std::fill(index_.begin(), index_.end(), kEmpty);
  }

  void reserve(std::size_t n) {
    entries_.reserve(n);
    if (index_size_for(n) > index_.size()) rehash(index_size_for(n));
  }

  [[nodiscard]] iterator find(const K& key) SC_LIFETIMEBOUND {
    const std::size_t slot = find_slot(key);
    return slot == kNoSlot ? end() : entries_.data() + index_[slot];
  }
  [[nodiscard]] const_iterator find(const K& key) const SC_LIFETIMEBOUND {
    const std::size_t slot = find_slot(key);
    return slot == kNoSlot ? end() : entries_.data() + index_[slot];
  }
  [[nodiscard]] bool contains(const K& key) const {
    return find_slot(key) != kNoSlot;
  }

  [[nodiscard]] V& at(const K& key) SC_LIFETIMEBOUND {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) throw std::out_of_range("FlatMap::at");
    return entries_[index_[slot]].second;
  }
  [[nodiscard]] const V& at(const K& key) const SC_LIFETIMEBOUND {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) throw std::out_of_range("FlatMap::at");
    return entries_[index_[slot]].second;
  }

  V& operator[](const K& key) SC_LIFETIMEBOUND {
    return try_emplace(key).first->second;
  }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    grow_if_needed();
    std::size_t slot = probe_start(key);
    for (;;) {
      const std::uint32_t idx = index_[slot];
      if (idx == kEmpty) {
        index_[slot] = static_cast<std::uint32_t>(entries_.size());
        entries_.emplace_back(std::piecewise_construct,
                              std::forward_as_tuple(key),
                              std::forward_as_tuple(std::forward<Args>(args)...));
        return {entries_.data() + entries_.size() - 1, true};
      }
      if (entries_[idx].first == key) return {entries_.data() + idx, false};
      slot = (slot + 1) & mask();
    }
  }

  template <typename VV>
  std::pair<iterator, bool> emplace(const K& key, VV&& value) {
    return try_emplace(key, std::forward<VV>(value));
  }

  // Erases by key; returns the number of entries removed (0 or 1).
  std::size_t erase(const K& key) {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) return 0;
    erase_slot(slot);
    return 1;
  }

  // Erases the entry an iterator from find() points at.
  void erase(const_iterator it) {
    const std::size_t slot = find_slot(it->first);
    if (slot == kNoSlot) throw std::logic_error("FlatMap::erase: stale iterator");
    erase_slot(slot);
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t mask() const { return index_.size() - 1; }

  [[nodiscard]] static std::size_t index_size_for(std::size_t n) {
    std::size_t cap = 16;
    // Keep load factor under 3/4.
    while (cap * 3 < n * 4) cap <<= 1;
    return cap;
  }

  [[nodiscard]] std::size_t probe_start(const K& key) const {
    // Finalizer on top of std::hash: identity hashes (ints, ids) are common
    // and dense keys must not alias after the power-of-two mask.
    std::uint64_t h = static_cast<std::uint64_t>(Hash{}(key));
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return static_cast<std::size_t>(h ^ (h >> 31)) & mask();
  }

  [[nodiscard]] std::size_t find_slot(const K& key) const {
    if (index_.empty()) return kNoSlot;
    std::size_t slot = probe_start(key);
    for (;;) {
      const std::uint32_t idx = index_[slot];
      if (idx == kEmpty) return kNoSlot;
      if (entries_[idx].first == key) return slot;
      slot = (slot + 1) & mask();
    }
  }

  void grow_if_needed() {
    if (index_.empty() || (entries_.size() + 1) * 4 > index_.size() * 3)
      rehash(index_.empty() ? 16 : index_.size() * 2);
  }

  void rehash(std::size_t new_size) {
    index_.assign(new_size, kEmpty);
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
      std::size_t slot = probe_start(entries_[i].first);
      while (index_[slot] != kEmpty) slot = (slot + 1) & mask();
      index_[slot] = i;
    }
  }

  void erase_slot(std::size_t slot) {
    const std::uint32_t idx = index_[slot];
    // Swap-remove from the dense vector; re-point the moved entry's slot.
    const std::uint32_t last = static_cast<std::uint32_t>(entries_.size() - 1);
    if (idx != last) {
      entries_[idx] = std::move(entries_[last]);
      // Find the moved entry's slot by stored position, not key equality:
      // the slot being erased still aliases the moved key at this point.
      std::size_t moved_slot = probe_start(entries_[idx].first);
      while (index_[moved_slot] != last) moved_slot = (moved_slot + 1) & mask();
      index_[moved_slot] = idx;
    }
    entries_.pop_back();
    // Backward-shift deletion: pull forward any probe-displaced successors
    // so lookups never need tombstones.
    std::size_t hole = slot;
    std::size_t next = (hole + 1) & mask();
    while (index_[next] != kEmpty) {
      const std::size_t ideal = probe_start(entries_[index_[next]].first);
      // Distance from the ideal slot to `next`; the element may move back
      // into the hole iff the hole lies on its probe path.
      if (((next - ideal) & mask()) >= ((next - hole) & mask())) {
        index_[hole] = index_[next];
        hole = next;
      }
      next = (next + 1) & mask();
    }
    index_[hole] = kEmpty;
  }

  std::vector<value_type> entries_;
  std::vector<std::uint32_t> index_;
};

// Resident footprint of a FlatMap.  It keeps a dense entry vector plus a
// power-of-two u32 index kept under 3/4 load; capacity() is not exposed, so
// charge size * 4/3 for the index and size for the entries (amortized lower
// bound, within a growth factor of truth).
template <typename K, typename V, typename Hash>
[[nodiscard]] std::size_t flat_map_bytes(const FlatMap<K, V, Hash>& m) {
  return m.size() * sizeof(typename FlatMap<K, V, Hash>::value_type) +
         (m.size() * 4 / 3 + 16) * sizeof(std::uint32_t) + sizeof(m);
}

// Set counterpart with the same layout and guarantees.
template <typename K, typename Hash = std::hash<K>>
class FlatSet {
 public:
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }
  [[nodiscard]] bool contains(const K& key) const { return map_.contains(key); }
  std::pair<const K*, bool> insert(const K& key) {
    const auto [it, fresh] = map_.try_emplace(key);
    return {&it->first, fresh};
  }
  std::size_t erase(const K& key) { return map_.erase(key); }
  void clear() { map_.clear(); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [k, v] : map_) fn(k);
  }

 private:
  struct Unit {};
  FlatMap<K, Unit, Hash> map_;
};

}  // namespace softcell
