// CoreCommitter: the single-writer commit stage of the shard-brain split.
//
// Cross-shard installs -- shared core/gateway switch rows, tag allocation,
// path migrations -- are inherently global: they mutate one rule universe
// that every shard's flows traverse.  Instead of letting N shards contend
// on the core controller's writer lock, the committer serializes them
// through a flat-combining queue:
//
//   shard thread: enqueue op -> (wait | become the combiner)
//   combiner:     drain the queue in arrival batches, apply each op to the
//                 core Controller, store the tags it changed in the slot
//                 array, THEN mark the batch's ops done and wake their
//                 waiters
//
// Ordering rules (DESIGN.md section 16):
//   * total order -- ops apply in one global arrival order; ops from one
//     shard (issued sequentially, as the runtime's per-shard FIFO
//     guarantees) therefore apply in issue order;
//   * publish-before-complete -- an op's slots are stored before the op's
//     submitter is released, so a requester that observed its own tag
//     will find it in every slot load made afterwards (no read-your-writes
//     anomaly);
//   * exactly-once install -- the core re-checks its installed map under
//     its own lock, so duplicate (bs, clause) ops arriving from different
//     shards collapse to one install and all return the same tag.
//
// Readers never enter the queue: they load tags from the slot array
// (slots(), ctrl/tag_slots.hpp) with no lock and no refcount.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ctrl/controller.hpp"
#include "ctrl/tag_slots.hpp"
#include "telemetry/registry.hpp"
#include "util/annotations.hpp"

namespace softcell {

class CoreCommitter {
 public:
  CoreCommitter(const CellularTopology& topo,
                std::shared_ptr<const ServicePolicy> policy,
                ControllerOptions options);

  // --- commit API (blocking; any thread) ------------------------------------
  // Each call enqueues one op and returns once it has been applied and the
  // slots it changed stored.  Errors thrown by the core (policy denial,
  // path rejection) re-throw in the submitting thread.
  PolicyTag commit_path(std::size_t shard, std::uint32_t bs, ClauseId clause);
  std::vector<PolicyTag> commit_paths(
      std::size_t shard, std::span<const Controller::PathRequest> requests);
  PolicyTag commit_m2m(std::size_t shard, std::uint32_t src_bs,
                       std::uint32_t dst_bs, ClauseId clause);
  Controller::Migration commit_migrate(std::size_t shard, std::uint32_t bs,
                                       ClauseId clause);
  void commit_drain_old(std::size_t shard, std::uint32_t bs, ClauseId clause,
                        PolicyTag old_tag);
  Controller::RecompactResult commit_recompact(std::size_t shard);

  // --- the read side (lock-free, any thread) --------------------------------
  // (clause, bs) -> tag of every installed gateway path.  m2m half-paths
  // are not published: their warm check reads Controller::m2m_tag.
  [[nodiscard]] const TagSlots& slots() const { return slots_; }
  // Publishes so far: one per commit batch, one per publish_view().
  [[nodiscard]] std::uint64_t publishes() const {
    return publishes_.load(std::memory_order_acquire);
  }

  // Rewrites every slot from the core's installed paths, as one bulk
  // re-tag.  For quiescent out-of-band core mutations (recovery wiring,
  // direct core() use in single-threaded harness code); commits publish
  // on their own.
  void publish_view();

  // The shared core controller (rule universe, tag namespace, installed
  // path maps).  Mutating it directly while commits are in flight bypasses
  // the ordering rules above -- quiescent callers only, same contract as
  // Controller::engine().
  [[nodiscard]] Controller& core() { return core_; }
  [[nodiscard]] const Controller& core() const { return core_; }

  // Test hook: invoked once per applied op, in the global apply order,
  // with the submitting shard and the op's commit sequence number.  Runs
  // on whichever thread is combining; the observer must be thread-safe.
  // Set before concurrent use.
  using CommitObserver =
      std::function<void(std::size_t shard, std::uint64_t seq)>;
  void set_commit_observer(CommitObserver observer) {
    observer_ = std::move(observer);
  }

 private:
  struct Op {
    enum class Kind : std::uint8_t {
      kPath,
      kPathBatch,
      kM2m,
      kMigrate,
      kDrainOld,
      kRecompact,
    };
    Kind kind = Kind::kPath;
    std::size_t shard = 0;
    std::uint32_t bs = 0;
    std::uint32_t bs2 = 0;  // kM2m destination
    ClauseId clause{};
    PolicyTag old_tag{};                                // kDrainOld
    std::span<const Controller::PathRequest> batch{};   // kPathBatch
    // Results (written by the combiner, read by the submitter after done).
    PolicyTag tag{};
    std::vector<PolicyTag> tags;
    Controller::Migration migration{};
    Controller::RecompactResult recompacted{};
    std::exception_ptr error;
    bool done = false;
  };

  // Enqueues, combines or waits, re-throws the op's error.  On return the
  // op has been applied and its slots stored.
  void submit(Op& op) SC_EXCLUDES(mu_);
  // Applies one op to the core (combiner only, no lock held -- the core
  // has its own).
  void apply(Op& op);
  // Stores the slots an applied op changed (combiner only).
  void publish(const Op& op);
  // Rewrites every slot from the core (combiner only).
  void resync();

  Controller core_;
  TagSlots slots_;

  sc::Mutex mu_;
  sc::CondVar cv_;
  std::deque<Op*> queue_ SC_GUARDED_BY(mu_);
  bool combiner_active_ SC_GUARDED_BY(mu_) = false;
  CommitObserver observer_;         // set before concurrent use
  std::uint64_t seq_ = 0;           // combiner thread only
  std::atomic<std::uint64_t> publishes_{0};  // written by the combiner

  // Commit-stage depth/latency series (telemetry registry, see DESIGN.md
  // section 16): refs are stable for the registry's lifetime.
  telemetry::Counter& batches_;
  telemetry::Counter& ops_;
  telemetry::Counter& view_publishes_;
  telemetry::Histogram& batch_depth_;
  telemetry::Histogram& apply_ns_;
  telemetry::Histogram& wait_ns_;
};

}  // namespace softcell
