#include "ctrl/store.hpp"

#include <stdexcept>

namespace softcell {

ControlStore::ControlStore(std::size_t replicas) : replicas_(replicas) {
  if (replicas == 0)
    throw std::invalid_argument("ControlStore: need at least one replica");
}

template <typename T>
mem::Handle ControlStore::emplace_row(mem::Slab<T> Replica::*slab,
                                      const T& value) {
  const mem::Handle h = (replicas_.front().*slab).emplace(value);
  for (std::size_t i = 1; i < replicas_.size(); ++i)
    if ((replicas_[i].*slab).emplace(value) != h)
      throw std::logic_error("ControlStore: replica handle drifted from row");
  return h;
}

mem::Handle ControlStore::ue_row(UeId ue) {
  const auto [it, fresh] = ues_.try_emplace(ue);
  if (fresh) {
    it->second = emplace_row(&Replica::profiles, SubscriberProfile{});
    if (it->second.index == rows_.size())
      rows_.emplace_back();
    else
      rows_[it->second.index] = UeRow{};
  }
  return it->second;
}

void ControlStore::drop_ue_row(UeId ue, mem::Handle h) {
  for (Replica& r : replicas_) r.profiles.erase(h);
  ues_.erase(ue);
}

// --- slow state ------------------------------------------------------------

void ControlStore::put_profile(UeId ue, const SubscriberProfile& p) {
  const mem::Handle h = ue_row(ue);
  for (Replica& r : replicas_) *r.profiles.get(h) = p;
  rows_[h.index].provisioned = true;
  bump_versions();
}

std::optional<SubscriberProfile> ControlStore::profile(UeId ue) const {
  const auto it = ues_.find(ue);
  if (it == ues_.end() || !rows_[it->second.index].provisioned)
    return std::nullopt;
  return *replicas_.front().profiles.get(it->second);
}

void ControlStore::put_path(ClauseId clause, std::uint32_t bs,
                            PolicyTag tag) {
  const auto [it, fresh] = paths_.try_emplace(PathKey{clause, bs});
  if (fresh) {
    it->second = emplace_row(&Replica::paths, tag);
  } else {
    for (Replica& r : replicas_) *r.paths.get(it->second) = tag;
  }
  bump_versions();
}

std::optional<PolicyTag> ControlStore::path(ClauseId clause,
                                            std::uint32_t bs) const {
  const auto it = paths_.find(PathKey{clause, bs});
  if (it == paths_.end()) return std::nullopt;
  return *replicas_.front().paths.get(it->second);
}

void ControlStore::erase_path(ClauseId clause, std::uint32_t bs) {
  const auto it = paths_.find(PathKey{clause, bs});
  if (it != paths_.end()) {
    for (Replica& r : replicas_) r.paths.erase(it->second);
    paths_.erase(it);
  }
  bump_versions();
}

// --- fast state -------------------------------------------------------------

void ControlStore::set_location(UeId ue, UeLocation loc) {
  UeRow& row = rows_[ue_row(ue).index];
  if (!row.located) ++attached_;
  row.bs = loc.bs;
  row.local = loc.local;
  row.located = true;
}

void ControlStore::clear_location(UeId ue) {
  const auto it = ues_.find(ue);
  if (it == ues_.end()) return;
  UeRow& row = rows_[it->second.index];
  if (row.located) --attached_;
  row.located = false;
  if (!row.provisioned) drop_ue_row(ue, it->second);
}

std::optional<UeLocation> ControlStore::location(UeId ue) const {
  const auto it = ues_.find(ue);
  if (it == ues_.end()) return std::nullopt;
  const UeRow& row = rows_[it->second.index];
  if (!row.located) return std::nullopt;
  return UeLocation{row.bs, row.local};
}

void ControlStore::clear_locations() {
  std::vector<std::pair<UeId, mem::Handle>> location_only;
  for (const auto& [ue, h] : ues_) {
    UeRow& row = rows_[h.index];
    row.located = false;
    if (!row.provisioned) location_only.emplace_back(ue, h);
  }
  for (const auto& [ue, h] : location_only) drop_ue_row(ue, h);
  attached_ = 0;
}

// --- failover ----------------------------------------------------------------

void ControlStore::fail_primary() {
  if (replicas_.size() < 2)
    throw std::logic_error("ControlStore: no replica to promote");
  replicas_.erase(replicas_.begin());
  clear_locations();
}

void ControlStore::rebuild_locations(
    const std::function<void(const std::function<void(UeId, UeLocation)>&)>&
        query) {
  clear_locations();
  query([this](UeId ue, UeLocation loc) { set_location(ue, loc); });
}

bool ControlStore::replicas_consistent() const {
  for (const Replica& r : replicas_)
    if (r.version != replicas_.front().version ||
        r.profiles.size() != ues_.size() || r.paths.size() != paths_.size() ||
        r.profiles.slot_count() != rows_.size())
      return false;
  return true;
}

std::size_t ControlStore::primary_bytes_resident() const {
  return flat_map_bytes(ues_) + rows_.capacity() * sizeof(UeRow) +
         flat_map_bytes(paths_) + replicas_.front().bytes_resident();
}

std::size_t ControlStore::bytes_resident() const {
  std::size_t total = primary_bytes_resident();
  for (std::size_t i = 1; i < replicas_.size(); ++i)
    total += replicas_[i].bytes_resident();
  return total;
}

}  // namespace softcell
