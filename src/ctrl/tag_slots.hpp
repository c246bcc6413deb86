// TagSlots: the read side of the commit stage (DESIGN.md section 16.3).
//
// Shard-side readers resolve a (clause, bs) gateway path to its transit
// tag without touching the core controller's lock.  Both key dimensions
// are dense -- clause ids number the policy's clauses, base stations the
// topology's -- so the map is one preallocated array of atomic 16-bit
// slots indexed clause * num_bs + bs, with PolicyTag::kInvalid (a value
// the engine never allocates) marking an absent path.
//
// One writer at a time -- the CoreCommitter's combiner:
//   * an install stores its one slot before its op completes, so a
//     publish costs O(ops in the batch), not O(installed paths);
//   * a bulk re-tag (migrate, recompact, the out-of-band resync) rewrites
//     slots inside retag(), which holds a version counter odd while it
//     runs.  read_stable() reruns a multi-slot read that overlapped one,
//     so one classifier set never mixes tags from before and after it.
//
// A clause beyond the array (ShardBrain::update_policy appended it) grows
// the array on the writer side: the writer copies the table and publishes
// the copy.  Readers hold no reference, so every superseded table stays
// alive until the TagSlots dies; growth happens once per appended clause
// range, never per install.  A key outside the array reads as absent.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "util/ids.hpp"

namespace softcell {

class TagSlots {
 public:
  struct Path {
    ClauseId clause;
    std::uint32_t bs = 0;
    PolicyTag tag;
  };

  TagSlots(std::size_t clauses, std::uint32_t num_bs);

  TagSlots(const TagSlots&) = delete;
  TagSlots& operator=(const TagSlots&) = delete;

  // --- readers (any thread, lock-free) -------------------------------------
  // The published tag of (clause, bs), or nullopt: no path installed, or
  // the key lies outside the array.  Loads the table pointer and one slot.
  [[nodiscard]] std::optional<PolicyTag> get(ClauseId clause,
                                             std::uint32_t bs) const {
    const Table* t = table_.load(std::memory_order_acquire);
    if (clause.value() >= t->clauses || bs >= num_bs_) return std::nullopt;
    const std::uint16_t v =
        t->slots[index(clause, bs)].load(std::memory_order_acquire);
    if (v == PolicyTag::kInvalid) return std::nullopt;
    return PolicyTag(v);
  }

  // Runs `read` (a sequence of get() calls) until no bulk re-tag overlapped
  // it, so every slot it loaded comes from one version.  Slot stores are
  // release and loads acquire: a read that saw any store of a re-tag also
  // sees the odd version stored before it, and retries.
  template <typename Read>
  void read_stable(Read&& read) const {
    for (;;) {
      const std::uint64_t v = version_.load(std::memory_order_acquire);
      if ((v & 1) == 0) {
        read();
        if (version_.load(std::memory_order_acquire) == v) return;
      } else {
        std::this_thread::yield();  // a re-tag is rewriting slots
      }
    }
  }

  // Even while no bulk re-tag runs; +2 per re-tag.
  [[nodiscard]] std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  // --- the writer (one thread at a time) -------------------------------------
  // Publishes one install's tag; grows the array for a clause beyond it.
  void set(ClauseId clause, std::uint32_t bs, PolicyTag tag);

  // Runs `write` (set() calls) as one bulk re-tag: the version is odd for
  // exactly its duration.
  template <typename Write>
  void retag(Write&& write) {
    struct Bump {
      std::atomic<std::uint64_t>& v;
      explicit Bump(std::atomic<std::uint64_t>& version) : v(version) {
        v.store(v.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
      }
      ~Bump() {
        v.store(v.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
      }
    } bump(version_);
    write();
  }

  // Rewrites every slot to `paths` (absent for every other key) as one bulk
  // re-tag.  A key that keeps its tag is stored again, never cleared in
  // between, so a single-slot get() racing the rewrite sees the old or the
  // new tag but not a transient absence.
  void assign(std::span<const Path> paths);

 private:
  struct Table {
    std::size_t clauses = 0;
    std::unique_ptr<std::atomic<std::uint16_t>[]> slots;
  };

  [[nodiscard]] std::size_t index(ClauseId clause, std::uint32_t bs) const {
    return static_cast<std::size_t>(clause.value()) * num_bs_ + bs;
  }
  // The current table, grown (copied and republished) to cover `clauses`.
  Table& cover(std::size_t clauses);

  const std::uint32_t num_bs_;
  std::atomic<const Table*> table_{nullptr};
  std::atomic<std::uint64_t> version_{0};
  // Writer only.  Every table ever published; the last one is current.
  std::vector<std::unique_ptr<Table>> tables_;
};

}  // namespace softcell
