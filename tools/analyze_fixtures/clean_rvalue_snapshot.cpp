// softcell-analyze fixture: MUST be clean for rvalue-snapshot-deref.
//
// The three sanctioned shapes: pin the snapshot in a named local before
// dereferencing (the PR 8 fix), return it by value, or pass it as a call
// argument (the full-expression keeps the control block alive).
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

unsigned clause_for_pinned(const Brain& brain, unsigned provider,
                           unsigned app) {
  const auto policy = brain.policy_snapshot();  // pinned past the deref
  if (const PolicyClause* c = policy->match(provider, app)) return c->id;
  return 0;
}

std::shared_ptr<const ServicePolicy> forward(const Brain& brain) {
  return brain.policy_snapshot();  // OK: ownership transfers to the caller
}

void consume(std::shared_ptr<const ServicePolicy> policy);

void pass_through(const Brain& brain) {
  consume(brain.policy_snapshot());  // OK: alive for the whole full-expression
}

}  // namespace softcell
