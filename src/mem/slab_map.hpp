// SlabMap: a dual-layout associative container for per-UE / per-flow
// control-plane state.
//
// In the slab layout (the default) keys live once in an open-addressing
// FlatMap that maps K -> mem::Handle, and values live in a Slab<V> --
// contiguous storage, no per-entry heap node, and value addresses that stay
// stable across unrelated inserts and erases (the property the controller
// relies on when it holds a V* across an engine call, and the property
// std::unordered_map gave us for free).
//
// Under SOFTCELL_SLAB=0 the container falls back to the legacy node-based
// std::unordered_map, so the same binary can replay the whole suite on the
// old layout for differential fingerprint/digest comparison (mirroring the
// fastpath=false hatch of PR 2).  The layout is captured at construction
// and never changes for the lifetime of the map.
//
// Iteration (for_each) is deterministic for a given operation sequence in
// the slab layout, but NOT identical to node-layout iteration order --
// digest-sensitive walks must sort or fold order-insensitively, which is
// the codebase-wide rule state_fingerprint() and recompact() already
// follow.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "mem/slab.hpp"
#include "util/flat_map.hpp"
#include "util/lifetime.hpp"

namespace softcell::mem {

template <typename K, typename V, typename Hash = std::hash<K>>
class SlabMap {
 public:
  explicit SlabMap(bool slab_layout = slab_enabled()) : slab_mode_(slab_layout) {}

  [[nodiscard]] bool slab_layout() const { return slab_mode_; }

  [[nodiscard]] std::size_t size() const {
    return slab_mode_ ? index_.size() : node_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] V* find(const K& key) SC_LIFETIMEBOUND {
    if (slab_mode_) {
      const auto it = index_.find(key);
      return it == index_.end() ? nullptr : slab_.get(it->second);
    }
    const auto it = node_.find(key);
    return it == node_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const V* find(const K& key) const SC_LIFETIMEBOUND {
    return const_cast<SlabMap*>(this)->find(key);
  }
  [[nodiscard]] bool contains(const K& key) const {
    return slab_mode_ ? index_.contains(key) : node_.contains(key);
  }

  [[nodiscard]] V& at(const K& key) SC_LIFETIMEBOUND {
    V* v = find(key);
    if (v == nullptr) throw std::out_of_range("SlabMap::at");
    return *v;
  }
  [[nodiscard]] const V& at(const K& key) const SC_LIFETIMEBOUND {
    const V* v = find(key);
    if (v == nullptr) throw std::out_of_range("SlabMap::at");
    return *v;
  }

  template <typename... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    if (slab_mode_) {
      const auto [it, fresh] = index_.try_emplace(key);
      if (fresh) it->second = slab_.emplace(std::forward<Args>(args)...);
      return {slab_.get(it->second), fresh};
    }
    const auto [it, fresh] = node_.try_emplace(key, std::forward<Args>(args)...);
    return {&it->second, fresh};
  }

  V& operator[](const K& key) SC_LIFETIMEBOUND {
    return *try_emplace(key).first;
  }

  std::size_t erase(const K& key) {
    if (slab_mode_) {
      const auto it = index_.find(key);
      if (it == index_.end()) return 0;
      slab_.erase(it->second);
      index_.erase(it);
      return 1;
    }
    return node_.erase(key);
  }

  void clear() {
    index_.clear();
    slab_.clear();
    node_.clear();
  }

  void reserve(std::size_t n) {
    if (slab_mode_) {
      index_.reserve(n);
      slab_.reserve(n);
    } else {
      node_.reserve(n);
    }
  }

  // fn(const K&, V&) / fn(const K&, const V&).  Mutating the map during
  // iteration is not allowed in either layout.
  template <typename Fn>
  void for_each(Fn&& fn) {
    if (slab_mode_) {
      for (auto& [k, h] : index_) fn(static_cast<const K&>(k), *slab_.get(h));
    } else {
      for (auto& [k, v] : node_) fn(k, v);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (slab_mode_) {
      for (const auto& [k, h] : index_) fn(k, *slab_.get(h));
    } else {
      for (const auto& [k, v] : node_) fn(k, v);
    }
  }

  // Resident footprint.  Exact for the slab layout; for the node layout a
  // documented estimate (per-node header + bucket array) -- good enough for
  // the bytes/UE comparison the bench reports.
  [[nodiscard]] std::size_t bytes_resident() const {
    if (slab_mode_) {
      return slab_.bytes_resident() + flat_map_bytes(index_);
    }
    const std::size_t per_node =
        sizeof(std::pair<const K, V>) + 2 * sizeof(void*);
    return node_.size() * per_node +
           node_.bucket_count() * sizeof(void*) + sizeof(node_);
  }

 private:
  bool slab_mode_;
  FlatMap<K, Handle, Hash> index_;  // slab layout: key -> value handle
  Slab<V> slab_;                    // slab layout: values, stable addresses
  std::unordered_map<K, V, Hash> node_;  // legacy layout (SOFTCELL_SLAB=0)
};

}  // namespace softcell::mem
