// Fixture: node-map-hotpath must fire.  Per-UE / per-flow resident state
// declared as node-based std:: maps in "agent" code -- exactly the
// regression class that re-grows the million-UE footprint (DESIGN.md
// section 15: per-node allocation overhead dominates at scale).  The rule
// has no exemption marker; the old one below must exempt nothing:
// sc-lint: slab-owner(BadUeDirectory)
// The file never compiles as part of the build; the lint test feeds it to
// softcell_lint.py and asserts the findings.  The rule scopes by path
// segment, so the fixture keeps "agent" in its file name.

struct BadUeDirectory {
  std::unordered_map<UeId, UeRecord> ues_;          // must fire
  std::map<FlowKey, FlowEntry> flows_;              // must fire
  std::unordered_map<LocalUeId, State> by_local_;   // must fire
  std::unordered_map<PublicEndpoint, FlowKey, EndpointHash> nat_in_;  // fires
};

// Control: the slab-layout containers are exactly what the rule wants and
// must NOT fire.
struct GoodUeDirectory {
  mem::SlabMap<UeId, UeRecord> ues_;
  mem::Slab<FlowRec> flow_slab_;
  FlatMap<FlowKey, Handle> flow_index_;
};

// Control: node maps keyed by something other than the per-UE/per-flow hot
// keys (a tag-indexed debug aggregate) are out of scope and must NOT fire.
struct UnrelatedAggregate {
  std::unordered_map<PolicyTag, int> tag_counts_;
};

// Control: prose mentioning std::unordered_map<UeId, X> in a comment and
// the spelling "std::unordered_map<FlowKey, Y>" in a string must NOT fire.
const char* kDoc = "std::unordered_map<FlowKey, Y> is the legacy layout";
