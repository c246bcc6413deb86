// Lint fixture: every file-wide owner marker here is stale -- the file
// carries the exemptions but none of the code they justified remains, so
// each marker must be reported (one stale finding per marker line).
// sc-lint: metrics-owner(AggPerf) -- BAD: no perf counter is mutated here
// sc-lint: commit-owner(Controller) -- BAD: no engine install/remove here

namespace softcell {

int plain_arithmetic(int x) { return x * 2 + 1; }

}  // namespace softcell
