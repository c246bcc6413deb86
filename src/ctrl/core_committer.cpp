#include "ctrl/core_committer.hpp"

#include <utility>

#include "telemetry/stopwatch.hpp"

namespace softcell {

CoreCommitter::CoreCommitter(const CellularTopology& topo,
                             std::shared_ptr<const ServicePolicy> policy,
                             ControllerOptions options)
    : core_(topo, policy, options),
      slots_(policy->size(), topo.num_base_stations()),
      batches_(telemetry::Registry::global().counter("commit.batches")),
      ops_(telemetry::Registry::global().counter("commit.ops")),
      view_publishes_(
          telemetry::Registry::global().counter("commit.view_publishes")),
      batch_depth_(
          telemetry::Registry::global().histogram("commit.batch_depth")),
      apply_ns_(telemetry::Registry::global().histogram("commit.apply_ns")),
      wait_ns_(telemetry::Registry::global().histogram("commit.wait_ns")) {}

PolicyTag CoreCommitter::commit_path(std::size_t shard, std::uint32_t bs,
                                     ClauseId clause) {
  Op op;
  op.kind = Op::Kind::kPath;
  op.shard = shard;
  op.bs = bs;
  op.clause = clause;
  submit(op);
  return op.tag;
}

std::vector<PolicyTag> CoreCommitter::commit_paths(
    std::size_t shard, std::span<const Controller::PathRequest> requests) {
  Op op;
  op.kind = Op::Kind::kPathBatch;
  op.shard = shard;
  op.batch = requests;
  submit(op);
  return std::move(op.tags);
}

PolicyTag CoreCommitter::commit_m2m(std::size_t shard, std::uint32_t src_bs,
                                    std::uint32_t dst_bs, ClauseId clause) {
  Op op;
  op.kind = Op::Kind::kM2m;
  op.shard = shard;
  op.bs = src_bs;
  op.bs2 = dst_bs;
  op.clause = clause;
  submit(op);
  return op.tag;
}

Controller::Migration CoreCommitter::commit_migrate(std::size_t shard,
                                                    std::uint32_t bs,
                                                    ClauseId clause) {
  Op op;
  op.kind = Op::Kind::kMigrate;
  op.shard = shard;
  op.bs = bs;
  op.clause = clause;
  submit(op);
  return op.migration;
}

void CoreCommitter::commit_drain_old(std::size_t shard, std::uint32_t bs,
                                     ClauseId clause, PolicyTag old_tag) {
  Op op;
  op.kind = Op::Kind::kDrainOld;
  op.shard = shard;
  op.bs = bs;
  op.clause = clause;
  op.old_tag = old_tag;
  submit(op);
}

Controller::RecompactResult CoreCommitter::commit_recompact(
    std::size_t shard) {
  Op op;
  op.kind = Op::Kind::kRecompact;
  op.shard = shard;
  submit(op);
  return op.recompacted;
}

void CoreCommitter::publish_view() {
  // Out-of-band republish (quiescent callers).  Serialize against a live
  // combiner by entering the queue as a no-op would -- cheapest correct
  // form: take the combiner slot ourselves when it is free.
  sc::UniqueLock lock(mu_);
  cv_.wait(lock, [&]() SC_REQUIRES(mu_) { return !combiner_active_; });
  combiner_active_ = true;
  lock.unlock();
  resync();
  publishes_.fetch_add(1, std::memory_order_release);
  view_publishes_.add(1);
  lock.lock();
  combiner_active_ = false;
  cv_.notify_all();
}

void CoreCommitter::resync() {
  std::vector<TagSlots::Path> paths;
  for (const auto& [key, tag] : core_.installed_paths())
    paths.push_back(TagSlots::Path{key.clause, key.bs, tag});
  slots_.assign(paths);
}

void CoreCommitter::publish(const Op& op) {
  switch (op.kind) {
    case Op::Kind::kPath:
      if (!op.error) slots_.set(op.clause, op.bs, op.tag);
      break;
    case Op::Kind::kPathBatch:
      // A failed batch may have installed a prefix of its sorted requests;
      // the slots must never lag what the core applied.
      if (op.error) {
        resync();
        break;
      }
      for (std::size_t i = 0; i < op.batch.size(); ++i)
        slots_.set(op.batch[i].clause, op.batch[i].bs, op.tags[i]);
      break;
    case Op::Kind::kMigrate:
      if (!op.error) {
        slots_.retag([&] {
          slots_.set(op.clause, op.bs, op.migration.new_tag);
        });
      }
      break;
    case Op::Kind::kRecompact:
      resync();  // every tag may change, also when a reinstall failed
      break;
    case Op::Kind::kM2m:
    case Op::Kind::kDrainOld:
      break;  // no gateway path changes its tag
  }
}

void CoreCommitter::apply(Op& op) {
  try {
    switch (op.kind) {
      case Op::Kind::kPath:
        op.tag = core_.request_policy_path(op.bs, op.clause);
        break;
      case Op::Kind::kPathBatch:
        op.tags = core_.request_policy_paths(op.batch);
        break;
      case Op::Kind::kM2m:
        op.tag = core_.request_m2m_path(op.bs, op.bs2, op.clause);
        break;
      case Op::Kind::kMigrate:
        op.migration = core_.migrate_path(op.bs, op.clause);
        break;
      case Op::Kind::kDrainOld:
        core_.drain_old_path(op.bs, op.clause, op.old_tag);
        break;
      case Op::Kind::kRecompact:
        op.recompacted = core_.recompact();
        break;
    }
  } catch (...) {
    op.error = std::current_exception();
  }
}

void CoreCommitter::submit(Op& op) {
  const std::uint64_t enqueued_at = telemetry::steady_now_ns();
  sc::UniqueLock lock(mu_);
  queue_.push_back(&op);
  for (;;) {
    cv_.wait(lock, [&]() SC_REQUIRES(mu_) {
      return op.done || !combiner_active_;
    });
    if (op.done) break;

    // Become the combiner: drain arrival batches until the queue is empty.
    // Our own op is still queued, so at least one iteration runs and we
    // leave this block with op.done == true.
    combiner_active_ = true;
    while (!queue_.empty()) {
      std::vector<Op*> batch(queue_.begin(), queue_.end());
      queue_.clear();
      lock.unlock();

      {
        telemetry::ScopedTimerNs apply_span(apply_ns_);
        // Each op's slots are stored BEFORE any waiter is released
        // (read-your-writes: a submitter that returns with a tag must find
        // it in every slot load made afterwards).
        for (Op* queued : batch) {
          apply(*queued);
          publish(*queued);
          if (observer_) observer_(queued->shard, seq_);
          ++seq_;
        }
      }
      publishes_.fetch_add(1, std::memory_order_release);
      view_publishes_.add(1);
      batches_.add(1);
      ops_.add(batch.size());
      batch_depth_.record(batch.size());

      lock.lock();
      for (Op* queued : batch) queued->done = true;
      cv_.notify_all();
    }
    combiner_active_ = false;
    cv_.notify_all();
  }
  wait_ns_.record(telemetry::steady_now_ns() - enqueued_at);
  if (op.error) std::rethrow_exception(op.error);
}

}  // namespace softcell
