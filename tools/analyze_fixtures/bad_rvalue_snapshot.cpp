// softcell-analyze fixture: MUST trigger rvalue-snapshot-deref (twice).
//
// The warm-hit use-after-free shape of DESIGN.md §12.4 on the RCU snapshot
// src/ still publishes: policy_snapshot() returns the policy by value, so
// the snapshot -- and the clause the returned pointer aims into -- can
// retire mid-statement once a racing update_policy swaps it.
#include <memory>

namespace softcell {

struct PolicyClause {
  unsigned id = 0;
};

struct ServicePolicy {
  PolicyClause clause;
  const PolicyClause* match(unsigned provider, unsigned app) const {
    (void)provider;
    (void)app;
    return &clause;
  }
};

struct Brain {
  std::shared_ptr<const ServicePolicy> policy_;
  std::shared_ptr<const ServicePolicy> policy_snapshot() const {
    return policy_;
  }
};

unsigned clause_for(const Brain& brain, unsigned provider, unsigned app) {
  if (const PolicyClause* c = brain.policy_snapshot()->match(provider, app))  // BAD
    return c->id;
  return 0;
}

const ServicePolicy* escape(const Brain& brain) {
  return brain.policy_snapshot().get();  // BAD: raw pointer escapes
}

}  // namespace softcell
