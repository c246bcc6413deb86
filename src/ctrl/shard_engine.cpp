#include "ctrl/shard_engine.hpp"

#include <stdexcept>

namespace softcell {

ShardEngine::ShardEngine(std::shared_ptr<const ServicePolicy> policy,
                         std::size_t store_replicas)
    : policy_(std::move(policy)), store_(store_replicas) {
  if (policy_ == nullptr)
    throw std::invalid_argument("ShardEngine: null policy snapshot");
}

void ShardEngine::provision_subscriber(UeId ue,
                                       const SubscriberProfile& profile) {
  sc::WriteLock lock(mu_);
  store_.put_profile(ue, profile);
}

void ShardEngine::attach_ue(UeId ue, std::uint32_t bs, LocalUeId local) {
  sc::WriteLock lock(mu_);
  if (!store_.has_profile(ue))
    throw std::invalid_argument("attach_ue: unknown subscriber");
  store_.set_location(ue, UeLocation{bs, local});
}

void ShardEngine::detach_ue(UeId ue) {
  sc::WriteLock lock(mu_);
  store_.clear_location(ue);
}

void ShardEngine::update_location(UeId ue, std::uint32_t bs,
                                  LocalUeId local) {
  sc::WriteLock lock(mu_);
  store_.set_location(ue, UeLocation{bs, local});
}

std::optional<UeLocation> ShardEngine::ue_location(UeId ue) const {
  sc::ReadLock lock(mu_);
  return store_.location(ue);
}

std::vector<PacketClassifier> ShardEngine::fetch_classifiers(
    UeId ue, std::uint32_t bs, const TagSlots& tags) const {
  sc::ReadLock lock(mu_);
  const std::optional<SubscriberProfile> profile = store_.profile(ue);
  if (!profile)
    throw std::invalid_argument("fetch_classifiers: unknown subscriber");

  // Byte-for-byte Controller::fetch_classifiers's compilation,
  // except the tag comes from the committer's slots instead of the store's
  // path map -- the two are definitionally equal (both written only by the
  // install/migrate/recompact paths, and the committer stores the slots
  // before completing any of them).
  std::vector<PacketClassifier> out;
  for (AppType app : {AppType::kWeb, AppType::kVideo, AppType::kVoip,
                      AppType::kM2mTelemetry, AppType::kOther}) {
    const PolicyClause* clause = policy_->match(*profile, app);
    if (clause == nullptr) {
      out.push_back(PacketClassifier{app, ClauseId{}, false, std::nullopt});
      continue;
    }
    PacketClassifier c;
    c.app = app;
    c.clause = clause->id;
    c.allow = clause->action.allow;
    out.push_back(c);
  }
  // A bulk re-tag overlapping the loads reruns them: one classifier set
  // never mixes tags from before and after a migrate or recompact.
  tags.read_stable([&] {
    for (PacketClassifier& c : out)
      if (c.allow) c.tag = tags.get(c.clause, bs);
  });
  return out;
}

void ShardEngine::set_policy(std::shared_ptr<const ServicePolicy> policy) {
  if (policy == nullptr)
    throw std::invalid_argument("set_policy: null policy snapshot");
  sc::WriteLock lock(mu_);
  policy_ = std::move(policy);
}

void ShardEngine::fail_primary_replica() {
  sc::WriteLock lock(mu_);
  store_.fail_primary();
}

void ShardEngine::rebuild_locations(
    const std::function<void(const std::function<void(UeId, UeLocation)>&)>&
        query) {
  sc::WriteLock lock(mu_);
  store_.rebuild_locations(query);
}

std::uint64_t ShardEngine::store_writes() const {
  sc::ReadLock lock(mu_);
  return store_.version();
}

std::uint64_t ShardEngine::attached_ues() const {
  sc::ReadLock lock(mu_);
  return store_.attached_ues();
}

std::uint64_t ShardEngine::store_bytes_resident() const {
  sc::ReadLock lock(mu_);
  return store_.bytes_resident();
}

std::uint64_t ShardEngine::store_primary_bytes_resident() const {
  sc::ReadLock lock(mu_);
  return store_.primary_bytes_resident();
}

}  // namespace softcell
