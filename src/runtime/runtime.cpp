#include "runtime/runtime.hpp"

#include <stdexcept>
#include <utility>

#include "telemetry/trace.hpp"

namespace softcell {

ControlPlaneRuntime::ControlPlaneRuntime(ShardBrain& brain,
                                         RuntimeOptions options)
    : brain_(brain), options_(options) {
  pending_.reserve(brain_.shard_count());
  for (std::size_t i = 0; i < brain_.shard_count(); ++i)
    pending_.push_back(std::make_unique<ShardPending>());
  ThreadPoolOptions pool_options;
  pool_options.workers = options_.workers;
  pool_options.ring_capacity = options_.queue_capacity;
  pool_options.shared_capacity = options_.queue_capacity;
  if (options_.overflow_capacity != 0)
    pool_options.overflow_capacity = options_.overflow_capacity;
  pool_options.start_suspended = options_.start_suspended;
  pool_ = std::make_unique<ThreadPool<Job>>(
      pool_options,
      [this](unsigned worker, Job& job) { execute(worker, job); });
}

ControlPlaneRuntime::~ControlPlaneRuntime() {
  // Graceful stop: every accepted job still runs, so in_flight_ drains to
  // zero and no completion is dropped.
  pool_->stop();
}

void ControlPlaneRuntime::start() { pool_->start(); }

bool ControlPlaneRuntime::post(Request request) {
  Job job;
  job.shard = brain_.shard_of(request.ue);
  job.submitted = Clock::now();
  // Inherit the poster's causal chain so the worker-side spans stitch onto
  // the span that crossed the queue (e.g. the LocalAgent classifier miss).
  if (request.trace_id == 0)
    request.trace_id = telemetry::current_trace_id();

  if (request.kind == RequestKind::kPolicyPath &&
      options_.coalesce_path_misses) {
    ShardPending& pending = *pending_[job.shard];
    sc::UniqueLock lock(pending.mu);
    const auto key = path_key(request.bs, request.clause);
    if (const auto it = pending.waiting.find(key);
        it != pending.waiting.end()) {
      // An install for this (bs, clause) is already in flight on this
      // shard: attach instead of enqueueing a duplicate.  The worker will
      // answer us with the same tag it answers the primary request.
      it->second.push_back(Waiter{std::move(request.done), job.submitted});
      in_flight_.fetch_add(1, std::memory_order_acq_rel);
      brain_.metrics(job.shard).count_coalesced();
      return true;
    }
    pending.waiting.emplace(key, std::vector<Waiter>{});
    lock.unlock();
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    job.request = std::move(request);
    if (!pool_->submit_to(worker_of(job.shard), std::move(job))) {
      // Rejected (shutting down): roll the marker back.
      sc::LockGuard relock(pending.mu);
      pending.waiting.erase(key);
      complete_one();
      return false;
    }
    return true;
  }

  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  job.request = std::move(request);
  if (!pool_->submit_to(worker_of(job.shard), std::move(job))) {
    complete_one();
    return false;
  }
  return true;
}

void ControlPlaneRuntime::finish(std::size_t shard,
                                 Clock::time_point submitted,
                                 std::function<void(Response&&)>& done,
                                 Response&& response) {
  const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - submitted)
                         .count();
  auto& metrics = brain_.metrics(shard);
  metrics.record_latency(static_cast<std::uint64_t>(nanos));
  if (!response.ok) metrics.count_error();
  if (done) done(std::move(response));
  complete_one();
}

void ControlPlaneRuntime::complete_one() {
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    sc::LockGuard lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

void ControlPlaneRuntime::execute(unsigned, Job& job) {
  Request& r = job.request;
  telemetry::TraceScope trace_scope(r.trace_id);
  SC_TRACE_SPAN_ARG("runtime.execute", job.shard);
  Response response;
  try {
    switch (r.kind) {
      case RequestKind::kProvision:
        brain_.provision_subscriber(r.ue, r.profile);
        break;
      case RequestKind::kAttach:
        brain_.attach_ue(r.ue, r.bs, r.local);
        break;
      case RequestKind::kDetach:
        brain_.detach_ue(r.ue);
        break;
      case RequestKind::kUpdateLocation:
        brain_.update_location(r.ue, r.bs, r.local);
        break;
      case RequestKind::kFetchClassifiers:
        response.classifiers = brain_.fetch_classifiers(r.ue, r.bs);
        break;
      case RequestKind::kPolicyPath:
        response.tag = brain_.request_policy_path(r.ue, r.bs, r.clause);
        break;
    }
  } catch (const std::exception& e) {
    response.ok = false;
    response.error = e.what();
  }

  if (r.kind == RequestKind::kPolicyPath && options_.coalesce_path_misses) {
    // Detach the waiters that coalesced onto this install and answer them
    // all with the same outcome.
    std::vector<Waiter> waiters;
    {
      ShardPending& pending = *pending_[job.shard];
      sc::LockGuard lock(pending.mu);
      const auto it = pending.waiting.find(path_key(r.bs, r.clause));
      if (it != pending.waiting.end()) {
        waiters = std::move(it->second);
        pending.waiting.erase(it);
      }
    }
    for (auto& waiter : waiters)
      finish(job.shard, waiter.submitted, waiter.done, Response(response));
  }
  finish(job.shard, job.submitted, r.done, std::move(response));
}

Response ControlPlaneRuntime::call(Request request) {
  struct SyncState {
    sc::Mutex mu;
    sc::CondVar cv;
    bool ready SC_GUARDED_BY(mu) = false;
    Response response SC_GUARDED_BY(mu);
  };
  auto state = std::make_shared<SyncState>();
  request.done = [state](Response&& response) {
    sc::LockGuard lock(state->mu);
    state->response = std::move(response);
    state->ready = true;
    state->cv.notify_one();
  };
  if (!post(std::move(request))) {
    Response r;
    r.ok = false;
    r.error = "control-plane runtime is shut down";
    return r;
  }
  sc::UniqueLock lock(state->mu);
  state->cv.wait(lock, [&]() SC_REQUIRES(state->mu) { return state->ready; });
  return std::move(state->response);
}

std::vector<PacketClassifier> ControlPlaneRuntime::fetch_classifiers(
    UeId ue, std::uint32_t bs) {
  Request r;
  r.kind = RequestKind::kFetchClassifiers;
  r.ue = ue;
  r.bs = bs;
  auto response = call(std::move(r));
  if (!response.ok) throw std::runtime_error(response.error);
  return std::move(response.classifiers);
}

PolicyTag ControlPlaneRuntime::request_policy_path(UeId ue, std::uint32_t bs,
                                                   ClauseId clause) {
  Request r;
  r.kind = RequestKind::kPolicyPath;
  r.ue = ue;
  r.bs = bs;
  r.clause = clause;
  auto response = call(std::move(r));
  if (!response.ok) throw std::runtime_error(response.error);
  return response.tag;
}

void ControlPlaneRuntime::drain() {
  sc::UniqueLock lock(drain_mu_);
  drain_cv_.wait(lock, [&] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace softcell
