// Replicated control-plane state (paper section 5.2).
//
// The controller state has two halves with very different dynamics:
//   * slow state -- subscriber attributes and installed policy paths --
//     replicated with strong consistency (every write is applied to all
//     replicas before it is acknowledged);
//   * fast state -- UE locations -- NOT synchronously replicated.  A UE is
//     attached to exactly one base station, so after a primary failure the
//     new primary rebuilds the locations by querying each base station's
//     local agent.
//
// Storage layout: one key index per table.  The UE table's FlatMap maps a
// UeId to one row handle.  Each replica keeps its copy of the subscriber
// profile in its own mem::Slab, and the primary-local location sits in a
// column of the same row, next to a flag that says whether put_profile()
// ever wrote the row (a location may exist for a UE the store never
// provisioned: a lagged fleet member, or a rebuild from agents).  The path
// table maps (clause, bs) to a row handle the same way, one tag slab per
// replica.  Every replica slab sees the same emplace/erase sequence, so a
// replica's handle equals the row handle; each insert checks this and
// throws std::logic_error on a mismatch.  The fast/slow split lives in what
// survives fail_primary(): the surviving replicas' slabs do, the location
// column does not.
//
// Thread safety: ControlStore is NOT internally synchronized.  It is owned
// by exactly one Controller (one shard of the runtime) and every access
// happens under that controller's mutex -- the capability is expressed at
// the owner: Controller declares `ControlStore store_ SC_GUARDED_BY(mu_)`
// (softcell-verify Part A), so the thread-safety analysis flags any access
// that escapes the controller's lock sections.  profile() returns the
// subscriber record *by value*, so nothing a caller obtains here can be
// invalidated by later writes, a rehash, or fail_primary().  Every write
// reaches every replica before it returns, so a reader that runs strictly
// before or after a (controller-serialized) write always observes
// consistent replicas; replicas_consistent() checks that invariant.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mem/slab.hpp"
#include "policy/policy.hpp"
#include "util/flat_map.hpp"
#include "util/ids.hpp"

namespace softcell {

struct UeLocation {
  std::uint32_t bs = 0;
  LocalUeId local{};

  friend bool operator==(const UeLocation&, const UeLocation&) = default;
};

// Key of an installed policy path: (clause, bs) -> primary tag.
struct PathKey {
  ClauseId clause;
  std::uint32_t bs = 0;
  friend bool operator==(const PathKey&, const PathKey&) = default;
};
struct PathKeyHash {
  size_t operator()(const PathKey& k) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(k.clause.value()) << 32) | k.bs);
  }
};

// A store with `replicas` synchronized copies of the slow state and a
// primary-local copy of the fast (location) state.
class ControlStore {
 public:
  explicit ControlStore(std::size_t replicas = 3);

  // --- slow state: replicated writes --------------------------------------
  void put_profile(UeId ue, const SubscriberProfile& p);
  [[nodiscard]] bool has_profile(UeId ue) const {
    const auto it = ues_.find(ue);
    return it != ues_.end() && rows_[it->second.index].provisioned;
  }
  // Returns a copy: the result stays valid across later writes and
  // fail_primary() (which destroys the primary replica a returned pointer
  // would dangle into).
  [[nodiscard]] std::optional<SubscriberProfile> profile(UeId ue) const;

  void put_path(ClauseId clause, std::uint32_t bs, PolicyTag tag);
  [[nodiscard]] std::optional<PolicyTag> path(ClauseId clause,
                                              std::uint32_t bs) const;
  void erase_path(ClauseId clause, std::uint32_t bs);

  // --- fast state: primary-local ------------------------------------------
  void set_location(UeId ue, UeLocation loc);
  void clear_location(UeId ue);
  [[nodiscard]] std::optional<UeLocation> location(UeId ue) const;
  [[nodiscard]] std::size_t attached_ues() const { return attached_; }
  // Iterates the located UEs (fleet partition audits / rebuilds).  `fn`
  // must not mutate the store; collect first, then write.
  template <typename Fn>
  void for_each_location(Fn&& fn) const {
    for (const auto& [ue, h] : ues_) {
      const UeRow& row = rows_[h.index];
      if (row.located) fn(ue, UeLocation{row.bs, row.local});
    }
  }

  // --- failover -------------------------------------------------------------
  // Kills the primary replica and promotes the next one.  The slow state
  // survives by replication; every location is cleared and must be rebuilt
  // via rebuild_locations().
  void fail_primary();

  // New primary repopulates locations by querying local agents: `query`
  // yields each base station's attached (UE, local id) pairs.
  void rebuild_locations(
      const std::function<void(
          const std::function<void(UeId, UeLocation)>&)>& query);

  [[nodiscard]] std::size_t replica_count() const { return replicas_.size(); }
  [[nodiscard]] std::uint64_t version() const {
    return replicas_.front().version;
  }

  // Verification hook: all replicas hold identical slow state versions and
  // one value per index entry.
  [[nodiscard]] bool replicas_consistent() const;

  // Resident footprint of the whole store / of what one primary actually
  // serves from (the indexes, the location column and one replica's
  // slabs); the bench reports both.
  [[nodiscard]] std::size_t bytes_resident() const;
  [[nodiscard]] std::size_t primary_bytes_resident() const;

 private:
  // One replica's copy of the slow state: the values behind the shared
  // indexes, at the row handles' slots.
  struct Replica {
    mem::Slab<SubscriberProfile> profiles;
    mem::Slab<PolicyTag> paths;
    std::uint64_t version = 0;

    [[nodiscard]] std::size_t bytes_resident() const {
      return profiles.bytes_resident() + paths.bytes_resident();
    }
  };
  // The primary-local column of a UE row, indexed by the row's slot.
  struct UeRow {
    std::uint32_t bs = 0;
    LocalUeId local{};
    bool located = false;
    bool provisioned = false;
  };

  // Emplaces `value` into every replica's `slab`; returns the row handle.
  template <typename T>
  mem::Handle emplace_row(mem::Slab<T> Replica::*slab, const T& value);
  // The row of `ue`, added (unprovisioned, not located) when it has none.
  mem::Handle ue_row(UeId ue);
  void drop_ue_row(UeId ue, mem::Handle h);
  void clear_locations();
  // Ends every slow-state write once it has reached all replicas (strong
  // consistency is affordable because this state changes slowly --
  // section 5.2).
  void bump_versions() {
    for (Replica& r : replicas_) ++r.version;
  }

  FlatMap<UeId, mem::Handle> ues_;  // the UE table's index
  std::vector<UeRow> rows_;         // the UE rows' column, by handle slot
  FlatMap<PathKey, mem::Handle, PathKeyHash> paths_;  // the path table's index
  std::vector<Replica> replicas_;  // front() is the primary
  std::size_t attached_ = 0;       // rows with a location
};

}  // namespace softcell
