#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "fault/fault.hpp"
#include "prng/seed_seq.hpp"
#include "state/sections.hpp"
#include "state/snapshot.hpp"
#include "util/check.hpp"

namespace hprng::serve {

namespace {

double seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(d).count();
}

void sleep_seconds(double s) {
  if (s <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// SeedSequence split index of the lease seed domain — distinct from the
/// shard-backend domains (which use split(shard_index), small integers).
constexpr std::uint64_t kLeaseSeedDomain = ~std::uint64_t{0};

/// SeedSequence split index of the retry-jitter stream (distinct from the
/// lease and shard domains above).
constexpr std::uint64_t kBackoffJitterDomain = ~std::uint64_t{0} - 1;

/// Monotonic nanoseconds for the tenant admission clock (token-bucket
/// refill timestamps; docs/QOS.md §3).
std::int64_t to_ns(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// The catalogued counter of each engine event, in RngService::Event
/// order; nullptr where the event has no instrument of its own.
constexpr const char* kEventInstruments[] = {
    "hprng.serve.requests_completed",  // Status::kOk
    "hprng.serve.requests_rejected",   // Status::kRejected
    "hprng.serve.requests_shed",       // Status::kShed
    "hprng.serve.requests_timed_out",  // Status::kTimeout
    nullptr,                           // Status::kClosed
    "hprng.serve.requests_failed",     // Status::kFailed
    nullptr,  // Status::kRejectedQuota: hprng.serve.tenant.rejected_* by cause
    "hprng.serve.requests_submitted",
    "hprng.serve.numbers_served",
    "hprng.serve.batches",
    "hprng.serve.retry.attempts",
    "hprng.serve.retry.failovers",
};

}  // namespace

namespace detail {

SessionState::~SessionState() {
  if (service != nullptr) service->release_lease(lease);
}

}  // namespace detail

RngService::RngService(ServiceOptions opts, obs::MetricsRegistry* metrics)
    : opts_(std::move(opts)),
      metrics_(metrics),
      tenants_(opts_.tenants),
      leases_(opts_.num_shards, opts_.max_leases_per_shard,
              prng::SeedSequence(opts_.seed).split(kLeaseSeedDomain).root()),
      backoff_seq_(
          prng::SeedSequence(opts_.seed).split(kBackoffJitterDomain).root()),
      queue_(
          opts_.queue_capacity, &paused_,
          [](const RequestPtr& r) { return r->tenant; },
          [](const RequestPtr& r) {
            return static_cast<std::uint64_t>(r->out.size());
          },
          // Weights come from the live table (not the construction-time
          // options) so a TENQ restore's policies drive scheduling too.
          [this](std::uint64_t tenant) { return tenants_.weight(tenant); },
          opts_.tenants.drr_quantum_words) {
  HPRNG_CHECK(opts_.queue_capacity > 0, "RngService: queue_capacity >= 1");
  HPRNG_CHECK(opts_.max_coalesce > 0, "RngService: max_coalesce >= 1");
  HPRNG_CHECK(opts_.max_fill_retries >= 0,
              "RngService: max_fill_retries >= 0");
  HPRNG_CHECK(opts_.shard_eject_failures >= 1,
              "RngService: shard_eject_failures >= 1");

  if (metrics_ != nullptr) {
    // Resolve the whole hprng.serve.* catalogue up front so a snapshot is
    // complete (every documented instrument present) even at zero traffic.
    static_assert(std::size(kEventInstruments) == kNumEvents);
    for (std::size_t e = 0; e < kNumEvents; ++e) {
      if (kEventInstruments[e] != nullptr) {
        ins_.events[e] = &metrics_->counter(kEventInstruments[e]);
      }
    }
    ins_.leases_granted = &metrics_->counter("hprng.serve.leases_granted");
    ins_.leases_released = &metrics_->counter("hprng.serve.leases_released");
    ins_.queue_depth = &metrics_->gauge("hprng.serve.queue_depth");
    ins_.active_leases = &metrics_->gauge("hprng.serve.active_leases");
    ins_.batch_requests = &metrics_->histogram("hprng.serve.batch_requests");
    ins_.request_latency_seconds =
        &metrics_->histogram("hprng.serve.request_latency_seconds");
    ins_.queue_wait_seconds =
        &metrics_->histogram("hprng.serve.queue_wait_seconds");
    ins_.fill_sim_seconds =
        &metrics_->histogram("hprng.serve.fill_sim_seconds");
    ins_.fill_wall_seconds =
        &metrics_->histogram("hprng.serve.fill_wall_seconds");
    ins_.retry_backoff_seconds =
        &metrics_->counter("hprng.serve.retry.backoff_seconds");
    ins_.shards_ejected = &metrics_->counter("hprng.serve.shards_ejected");
    ins_.shards_healthy = &metrics_->gauge("hprng.serve.shards_healthy");
    ins_.shards_healthy->set(static_cast<double>(opts_.num_shards));
    // hprng.serve.backend.* — backend slot churn plus the counter-family
    // instruments (docs/BACKENDS.md §6). The counter_* pair is resolved
    // here too — not only by CounterShard::set_metrics — so the catalogue
    // is identical whichever backend the pool runs.
    ins_.backend_attaches =
        &metrics_->counter("hprng.serve.backend.attaches");
    ins_.backend_detaches =
        &metrics_->counter("hprng.serve.backend.detaches");
    metrics_->counter("hprng.serve.backend.counter_blocks");
    metrics_->counter("hprng.serve.backend.counter_jumps");
    // hprng.serve.tenant.* — multi-tenant QoS (docs/QOS.md §7).
    ins_.tenant_rejected_rate =
        &metrics_->counter("hprng.serve.tenant.rejected_rate");
    ins_.tenant_rejected_quota =
        &metrics_->counter("hprng.serve.tenant.rejected_quota");
    ins_.tenant_quota_words_charged =
        &metrics_->counter("hprng.serve.tenant.quota_words_charged");
    ins_.tenant_quota_words_refunded =
        &metrics_->counter("hprng.serve.tenant.quota_words_refunded");
    ins_.tenant_drr_rounds =
        &metrics_->counter("hprng.serve.tenant.drr_rounds");
    ins_.tenant_active = &metrics_->gauge("hprng.serve.tenant.active");
    // Incremented under the queue lock, once per scheduler visit.
    queue_.set_round_listener([this] { ins_.tenant_drr_rounds->add(); });
    // hprng.state.* — checkpoint/restore (docs/STATE.md).
    ins_.state_checkpoints = &metrics_->counter("hprng.state.checkpoints");
    ins_.state_checkpoint_failures =
        &metrics_->counter("hprng.state.checkpoint_failures");
    ins_.state_checkpoint_bytes =
        &metrics_->counter("hprng.state.checkpoint_bytes");
    ins_.state_restores = &metrics_->counter("hprng.state.restores");
    ins_.state_restore_failures =
        &metrics_->counter("hprng.state.restore_failures");
    ins_.state_checkpoint_seconds =
        &metrics_->histogram("hprng.state.checkpoint_seconds");
    // The fault catalogue rides along even when no injector is attached,
    // so snapshots are complete for any instrumented service.
    fault::register_catalogue(*metrics_);
    // Updated under the queue lock, so the gauge is exactly size() at any
    // quiescent fence (the property the accounting tests assert).
    queue_.set_size_listener([this](std::size_t n) {
      ins_.queue_depth->set(static_cast<double>(n));
    });
  }

  health_ = std::make_unique<ShardHealth[]>(
      static_cast<std::size_t>(opts_.num_shards));
  if (opts_.injector != nullptr && metrics_ != nullptr) {
    opts_.injector->set_metrics(metrics_);
  }
  shards_.reserve(static_cast<std::size_t>(opts_.num_shards));
  for (int s = 0; s < opts_.num_shards; ++s) {
    shards_.push_back(make_shard_backend(opts_, s));
    if (opts_.injector != nullptr) {
      shards_.back()->set_fault_injector(opts_.injector, s);
    }
    if (metrics_ != nullptr) {
      // Shards share the service registry, so the backend-pipeline
      // instruments (hprng.core/sim/host for hybrid) aggregate pool-wide.
      shards_.back()->set_metrics(metrics_);
    }
  }

  set_drr_observer(nullptr);  // installs the pop-order stamp
  const int workers = std::max(1, opts_.num_workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

RngService::~RngService() {
  stopping_.store(true, std::memory_order_release);
  // Stopping overrides pause: workers must drain the backlog to exit.
  paused_.store(false, std::memory_order_release);
  queue_.close();
  for (std::thread& t : workers_) t.join();
}

std::optional<Session> RngService::try_open_session() {
  return try_open_session(SessionSpec{});
}

std::optional<Session> RngService::try_open_session(std::uint64_t shard_key) {
  SessionSpec spec;
  spec.shard_key = shard_key;
  return try_open_session(spec);
}

std::optional<Session> RngService::try_open_session(const SessionSpec& spec) {
  if (spec.shard_key.has_value()) {
    const int s = static_cast<int>(
        *spec.shard_key % static_cast<std::uint64_t>(num_shards()));
    if (shard_ejected(s)) return std::nullopt;  // pinned shard is gone
    return open_with(leases_.grant_on(*spec.shard_key), spec.tenant);
  }
  return open_with(
      leases_.grant_if([this](int s) { return !shard_ejected(s); }),
      spec.tenant);
}

Session RngService::open_session() {
  std::optional<Session> session = try_open_session();
  HPRNG_CHECK(session.has_value(),
              "RngService::open_session: lease pool exhausted");
  return *std::move(session);
}

std::optional<Session> RngService::open_with(std::optional<Lease> lease,
                                             std::uint64_t tenant) {
  if (!lease.has_value()) return std::nullopt;
  {
    ShardBackend& shard = *shards_[static_cast<std::size_t>(lease->shard)];
    std::lock_guard<std::mutex> lk(shard.mu);
    shard.attach(lease->slot, lease->seed);
  }
  tenants_.add_lease(tenant, lease->id);
  if (ins_.leases_granted != nullptr) {
    ins_.leases_granted->add();
    ins_.backend_attaches->add();
    ins_.active_leases->set(static_cast<double>(leases_.active()));
    ins_.tenant_active->set(static_cast<double>(tenants_.active()));
  }
  {
    std::lock_guard<std::mutex> lk(live_mu_);
    live_leases_[lease->id] = *lease;
  }
  auto state = std::make_shared<detail::SessionState>();
  state->service = this;
  state->lease = *lease;
  state->tenant = tenant;
  return Session(std::move(state));
}

void RngService::release_lease(const Lease& lease) {
  {
    ShardBackend& shard = *shards_[static_cast<std::size_t>(lease.shard)];
    std::lock_guard<std::mutex> lk(shard.mu);
    shard.detach(lease.slot);
  }
  tenants_.remove_lease(tenants_.tenant_of_lease(lease.id), lease.id);
  leases_.release(lease);
  {
    std::lock_guard<std::mutex> lk(live_mu_);
    live_leases_.erase(lease.id);
    adoptable_.erase(lease.id);
  }
  if (ins_.leases_released != nullptr) {
    ins_.leases_released->add();
    ins_.backend_detaches->add();
    ins_.active_leases->set(static_cast<double>(leases_.active()));
  }
}

RngService::RequestPtr RngService::submit(
    const std::shared_ptr<detail::SessionState>& session,
    std::span<std::uint64_t> out, std::chrono::nanoseconds timeout) {
  auto req = std::make_shared<detail::Request>();
  req->session = session;
  req->out = out;
  // One clock read per request: the submit time, the deadline and the
  // token-bucket refill below all derive from this single sample.
  req->submit_time = std::chrono::steady_clock::now();
  req->deadline =
      req->submit_time + (timeout.count() > 0 ? timeout : opts_.default_timeout);
  req->tenant = session->tenant;
  count(kSubmitted);

  if (stopping_.load(std::memory_order_acquire)) {
    settle(req, Status::kClosed);
    return req;
  }
  if (out.empty()) {  // trivially served; skip the queue
    settle(req, Status::kOk);
    return req;
  }

  // Tenant QoS admission (docs/QOS.md §3): the rate gate and the quota
  // charge run BEFORE the queue — an over-limit tenant is refused without
  // ever occupying queue capacity. The charge uses the same clock sample
  // as the deadline, so bucket refill is a pure function of the trace.
  switch (tenants_.admit(req->tenant, out.size(),
                         to_ns(req->submit_time))) {
    case Admission::kAdmit:
      req->quota_charged = true;
      if (ins_.tenant_quota_words_charged != nullptr) {
        ins_.tenant_quota_words_charged->add(
            static_cast<double>(out.size()));
        ins_.tenant_active->set(static_cast<double>(tenants_.active()));
      }
      break;
    case Admission::kRejectedRate:
      if (ins_.tenant_rejected_rate != nullptr) {
        ins_.tenant_rejected_rate->add();
        ins_.tenant_active->set(static_cast<double>(tenants_.active()));
      }
      settle(req, Status::kRejectedQuota);
      return req;
    case Admission::kRejectedQuota:
      if (ins_.tenant_rejected_quota != nullptr) {
        ins_.tenant_rejected_quota->add();
        ins_.tenant_active->set(static_cast<double>(tenants_.active()));
      }
      settle(req, Status::kRejectedQuota);
      return req;
  }

  // The one overload rule (docs/SERVING.md §4): a full queue rejects at
  // once. Admission never waits, so no caller — least of all the wire
  // front-end's poll loop — can stall here.
  switch (queue_.try_push(req)) {
    case DrrQueue<RequestPtr>::PushResult::kOk:
      break;  // queued; a worker (or the waiter's timeout) settles it
    case DrrQueue<RequestPtr>::PushResult::kFull:
      settle(req, Status::kRejected);
      break;
    case DrrQueue<RequestPtr>::PushResult::kClosed:
      settle(req, Status::kClosed);
      break;
  }
  return req;
}

Status RngService::wait(const RequestPtr& req) {
  {
    std::unique_lock<std::mutex> lk(req->mu);
    if (req->cv.wait_until(lk, req->deadline, [&] { return req->done; })) {
      return req->status;
    }
  }
  // Deadline passed while still queued. Try to abandon the request so no
  // worker ever touches `out` (whose storage the caller may now reclaim).
  int expected = detail::Request::kPending;
  if (req->phase.compare_exchange_strong(expected, detail::Request::kAbandoned,
                                         std::memory_order_acq_rel)) {
    req->session->service->settle(req, Status::kTimeout);
    return Status::kTimeout;
  }
  // A worker claimed it first: it is being served (or settled) right now —
  // wait out the completion.
  std::unique_lock<std::mutex> lk(req->mu);
  req->cv.wait(lk, [&] { return req->done; });
  return req->status;
}

void RngService::settle(const RequestPtr& req, Status status) {
  std::unique_lock<std::mutex> lk(req->mu);
  if (req->done) return;  // exactly-once terminal transition
  req->status = status;

  // Quota conservation (docs/QOS.md §4): any charged request that fails
  // to serve its words returns them, exactly once (the `done` guard above
  // makes this the unique terminal transition). kOk keeps the charge —
  // at a quiescent fence quota_used equals words actually served.
  if (status != Status::kOk && req->quota_charged) {
    const auto words = static_cast<std::uint64_t>(req->out.size());
    tenants_.refund(req->tenant, words);
    if (ins_.tenant_quota_words_refunded != nullptr) {
      ins_.tenant_quota_words_refunded->add(static_cast<double>(words));
    }
  }

  // Account BEFORE publishing `done`: a waiter returning from fill() must
  // observe the terminal status already reflected in stats()/metrics.
  count(static_cast<std::size_t>(status));
  if (status == Status::kOk && ins_.request_latency_seconds != nullptr) {
    ins_.request_latency_seconds->observe(
        seconds(std::chrono::steady_clock::now() - req->submit_time));
  }

  req->done = true;
  lk.unlock();
  req->cv.notify_all();
}

void RngService::count(std::size_t event, std::uint64_t n) {
  counts_[event].fetch_add(n, std::memory_order_relaxed);
  if (ins_.events[event] != nullptr) {
    ins_.events[event]->add(static_cast<double>(n));
  }
}

void RngService::worker_loop() {
  std::vector<RequestPtr> batch;
  while (true) {
    batch.clear();
    const std::size_t n = queue_.pop_batch(&batch, opts_.max_coalesce,
                                           &serving_);
    if (n == 0) break;  // closed and drained
    serve_batch(batch);
    batch.clear();  // drop session refs outside all shard locks
    serving_.fetch_sub(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> lk(state_mu_);
    }
    state_cv_.notify_all();
  }
}

void RngService::serve_batch(std::vector<RequestPtr>& batch) {
  if (opts_.injector != nullptr) {
    // kWorker: a slow worker. Wall-clock perturbation only — a "failed"
    // worker is indistinguishable from a slow one, so kFail is ignored.
    const fault::Outcome o =
        opts_.injector->on_event(fault::Site::kWorker, 0);
    sleep_seconds(o.delay_seconds);
  }

  // Serve order across workers: one session's pipelined requests can sit
  // in two workers' batches at once. Touch none of them until every
  // request of the session popped ahead of this batch has retired. Waits
  // only ever point at earlier batches, so they cannot cycle.
  for (auto it = batch.begin(); it != batch.end(); ++it) {
    detail::SessionState& session = *(*it)->session;
    if (std::any_of(batch.begin(), it, [&](const RequestPtr& r) {
          return r->session.get() == &session;
        })) {
      continue;  // the session's first request in this batch waited
    }
    for (std::uint64_t r = session.retired.load(std::memory_order_acquire);
         r < (*it)->pop_seq;
         r = session.retired.load(std::memory_order_acquire)) {
      session.retired.wait(r, std::memory_order_acquire);
    }
  }
  // Each popped request retires once, as soon as this worker is done with
  // it, so a successor popped by another worker waits no longer.
  const auto retire = [](const RequestPtr& req) {
    req->session->retired.fetch_add(1, std::memory_order_release);
    req->session->retired.notify_all();
  };

  // One clock read for the whole claim sweep: every expiry decision in
  // this batch uses the same sample, so a slow sweep (TSan, a preempted
  // worker) cannot expire requests mid-iteration.
  const auto now = std::chrono::steady_clock::now();

  // Claim what is still live and group it by the owning session's CURRENT
  // shard (the lease is mutable under failover — read under its lock).
  std::vector<std::vector<RequestPtr>> by_shard(shards_.size());
  for (RequestPtr& req : batch) {
    int expected = detail::Request::kPending;
    if (now >= req->deadline) {
      // Expired in the queue: shed it (unless the waiter got there first).
      if (req->phase.compare_exchange_strong(expected,
                                             detail::Request::kAbandoned,
                                             std::memory_order_acq_rel)) {
        settle(req, Status::kShed);
      }
      retire(req);
      continue;
    }
    if (!req->phase.compare_exchange_strong(expected,
                                            detail::Request::kClaimed,
                                            std::memory_order_acq_rel)) {
      retire(req);
      continue;  // abandoned by its waiter — the span is off limits
    }
    int shard = 0;
    {
      std::lock_guard<std::mutex> lk(req->session->mu);
      shard = req->session->lease.shard;
    }
    by_shard[static_cast<std::size_t>(shard)].push_back(req);
  }

  for (std::size_t s = 0; s < by_shard.size(); ++s) {
    serve_shard_group(s, by_shard[s]);
    for (const RequestPtr& req : by_shard[s]) retire(req);
  }
}

void RngService::serve_shard_group(std::size_t s,
                                   std::vector<RequestPtr>& group) {
  if (group.empty()) return;

  // A backend fill takes each slot at most once, so a session with two
  // requests in the batch needs them in separate passes (served in
  // order, preserving its stream sequence).
  struct Pass {
    std::vector<ShardBackend::Fill> fills;
    std::vector<RequestPtr> reqs;
  };
  std::vector<Pass> passes;
  std::vector<RequestPtr> displaced;  ///< claimed but not served here
  for (RequestPtr& req : group) {
    std::uint64_t slot = 0;
    bool moved = false;
    {
      std::lock_guard<std::mutex> lk(req->session->mu);
      moved = req->session->lease.shard != static_cast<int>(s);
      slot = req->session->lease.slot;
    }
    if (moved) {
      // The lease failed over between claim and serve: let the request
      // re-route through the queue to its session's new shard.
      displaced.push_back(req);
      continue;
    }
    Pass* target = nullptr;
    for (Pass& pass : passes) {
      bool duplicate = false;
      for (const ShardBackend::Fill& f : pass.fills) {
        if (f.slot == slot) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        target = &pass;
        break;
      }
    }
    if (target == nullptr) {
      passes.emplace_back();
      target = &passes.back();
    }
    target->fills.push_back({slot, req->out});
    target->reqs.push_back(req);
  }

  {
    ShardBackend& shard = *shards_[s];
    std::lock_guard<std::mutex> lk(shard.mu);
    bool abandon_rest = false;
    for (Pass& pass : passes) {
      if (abandon_rest) {
        // A session whose earlier pass failed may have later requests in
        // this tail: serving them now would reorder its stream, so the
        // whole tail is displaced (requeued in order below).
        displaced.insert(displaced.end(), pass.reqs.begin(), pass.reqs.end());
        continue;
      }

      const auto wall_start = std::chrono::steady_clock::now();
      ShardBackend::FillResult result;
      for (int attempt = 0;; ++attempt) {
        bool dispatch_drop = false;
        if (opts_.injector != nullptr) {
          // kShardFill: the dispatch itself fails or stalls. Consulted
          // under the shard lock, so ordinals are per-shard deterministic.
          const fault::Outcome o = opts_.injector->on_event(
              fault::Site::kShardFill, static_cast<int>(s));
          sleep_seconds(o.delay_seconds);
          dispatch_drop = o.fail();
        }
        result = dispatch_drop ? ShardBackend::FillResult{false, 0.0}
                               : shard.fill(pass.fills);
        if (result.ok || attempt >= opts_.max_fill_retries) break;
        count(kRetries);
        backoff(attempt);
      }
      const auto wall_end = std::chrono::steady_clock::now();

      if (!result.ok) {
        record_shard_failure(s);
        abandon_rest = true;
        displaced.insert(displaced.end(), pass.reqs.begin(), pass.reqs.end());
        continue;
      }
      health_[s].consecutive_failures.store(0, std::memory_order_release);
      std::uint64_t words = 0;
      for (const ShardBackend::Fill& f : pass.fills) words += f.out.size();
      count(kBatches);
      count(kNumbersServed, words);
      if (ins_.batch_requests != nullptr) {
        ins_.batch_requests->observe(static_cast<double>(pass.fills.size()));
        ins_.fill_sim_seconds->observe(result.sim_seconds);
        ins_.fill_wall_seconds->observe(seconds(wall_end - wall_start));
      }
      for (RequestPtr& req : pass.reqs) {
        if (ins_.queue_wait_seconds != nullptr) {
          ins_.queue_wait_seconds->observe(
              seconds(wall_start - req->submit_time));
        }
        settle(req, Status::kOk);
      }
    }
  }  // shard lock released before touching session/lease state

  if (displaced.empty()) return;
  // Re-route the displaced tail: move sessions off an ejected shard, then
  // hand the requests back to the queue head in one step, in their
  // original order, which keeps multi-request sessions' streams
  // sequential.
  std::vector<RequestPtr> requeue;
  requeue.reserve(displaced.size());
  for (RequestPtr& req : displaced) {
    if (!failover_session(req->session)) {
      settle(req, Status::kFailed);
      continue;
    }
    int expected = detail::Request::kClaimed;
    if (req->phase.compare_exchange_strong(expected,
                                           detail::Request::kPending,
                                           std::memory_order_acq_rel)) {
      requeue.push_back(req);
    }
  }
  queue_.requeue_front(std::move(requeue));
}

void RngService::record_shard_failure(std::size_t s) {
  const int fails =
      health_[s].consecutive_failures.fetch_add(1, std::memory_order_acq_rel) +
      1;
  if (fails >= opts_.shard_eject_failures) eject_shard(s);
}

void RngService::eject_shard(std::size_t s) {
  bool expected = false;
  if (!health_[s].ejected.compare_exchange_strong(expected, true,
                                                  std::memory_order_acq_rel)) {
    return;  // someone else ejected it
  }
  const int ejected = ejected_count_.fetch_add(1, std::memory_order_acq_rel)
                      + 1;
  if (ins_.shards_ejected != nullptr) {
    ins_.shards_ejected->add();
    ins_.shards_healthy->set(
        static_cast<double>(num_shards() - ejected));
  }
}

bool RngService::failover_session(
    const std::shared_ptr<detail::SessionState>& state) {
  std::lock_guard<std::mutex> lk(state->mu);
  const Lease old = state->lease;
  if (!shard_ejected(old.shard)) {
    return true;  // transient failure (or already moved): retry in place
  }
  std::optional<Lease> fresh =
      leases_.grant_if([this](int s) { return !shard_ejected(s); });
  if (!fresh.has_value()) return false;  // no healthy capacity anywhere
  {
    ShardBackend& shard = *shards_[static_cast<std::size_t>(fresh->shard)];
    std::lock_guard<std::mutex> slk(shard.mu);
    shard.attach(fresh->slot, fresh->seed);
  }
  {
    // Symmetric detach; the freed slot returns to the EJECTED shard's free
    // list, and grant_if above never hands ejected-shard slots out again,
    // so no live stream can collide with the abandoned walk.
    ShardBackend& shard = *shards_[static_cast<std::size_t>(old.shard)];
    std::lock_guard<std::mutex> slk(shard.mu);
    shard.detach(old.slot);
  }
  leases_.release(old);
  {
    std::lock_guard<std::mutex> llk(live_mu_);
    live_leases_.erase(old.id);
    live_leases_[fresh->id] = *fresh;
  }
  // The tenant keeps billing through the replacement lease id.
  tenants_.remove_lease(state->tenant, old.id);
  tenants_.add_lease(state->tenant, fresh->id);
  state->lease = *fresh;
  count(kFailovers);
  if (ins_.leases_granted != nullptr) {
    ins_.leases_granted->add();
    ins_.leases_released->add();
    ins_.backend_attaches->add();
    ins_.backend_detaches->add();
    ins_.active_leases->set(static_cast<double>(leases_.active()));
  }
  return true;
}

void RngService::backoff(int attempt) {
  const double base = opts_.retry_backoff_base_ms * 1e-3;
  const double cap = opts_.retry_backoff_max_ms * 1e-3;
  double wait = base * std::pow(2.0, attempt);
  if (wait > cap) wait = cap;
  // Jitter in [0.5, 1.5): decorrelates workers retrying the same shard
  // while staying a pure function of (service seed, global retry index).
  const std::uint64_t idx =
      backoff_idx_.fetch_add(1, std::memory_order_relaxed);
  const double jitter =
      0.5 + static_cast<double>(backoff_seq_.derive(idx) >> 11) * 0x1.0p-53;
  wait *= jitter;
  if (ins_.retry_backoff_seconds != nullptr) {
    ins_.retry_backoff_seconds->add(wait);
  }
  sleep_seconds(wait);
}

void RngService::pause() {
  paused_.store(true, std::memory_order_release);
  queue_.wake();
  // Wait until in-flight batches finish; afterwards workers are parked and
  // the queue contents are frozen.
  std::unique_lock<std::mutex> lk(state_mu_);
  state_cv_.wait(lk, [&] {
    return serving_.load(std::memory_order_acquire) == 0;
  });
}

void RngService::resume() {
  paused_.store(false, std::memory_order_release);
  queue_.wake();
}

void RngService::drain() {
  HPRNG_CHECK(!paused_.load(std::memory_order_acquire),
              "RngService::drain: resume() first");
  std::unique_lock<std::mutex> lk(state_mu_);
  // pop_batch increments serving_ under the queue lock, so size() == 0
  // with serving_ == 0 really means nothing is queued OR in flight. The
  // bounded wait keeps this robust against wakeups raced away by a pop.
  while (queue_.size() != 0 ||
         serving_.load(std::memory_order_acquire) != 0) {
    state_cv_.wait_for(lk, std::chrono::milliseconds(2));
  }
}

RngService::Stats RngService::stats() const {
  const auto at = [this](auto event) {
    return counts_[static_cast<std::size_t>(event)].load(
        std::memory_order_relaxed);
  };
  Stats s;
  s.submitted = at(kSubmitted);
  s.completed = at(Status::kOk);
  s.rejected = at(Status::kRejected);
  s.shed = at(Status::kShed);
  s.timed_out = at(Status::kTimeout);
  s.closed = at(Status::kClosed);
  s.failed = at(Status::kFailed);
  s.rejected_quota = at(Status::kRejectedQuota);
  s.numbers_served = at(kNumbersServed);
  s.batches = at(kBatches);
  s.retries = at(kRetries);
  s.failovers = at(kFailovers);
  s.shards_ejected = static_cast<std::uint64_t>(
      ejected_count_.load(std::memory_order_acquire));
  s.queue_depth = queue_.size();
  s.active_leases = leases_.active();
  s.leases_granted = leases_.granted_total();
  s.leases_released = leases_.released_total();
  return s;
}

TenantTable::TenantStats RngService::tenant_stats(
    std::uint64_t tenant) const {
  return tenants_.stats(tenant);
}

std::vector<TenantTable::TenantStats> RngService::tenant_all_stats() const {
  return tenants_.all_stats();
}

std::vector<TenantTable::TenantStats> RngService::top_offenders(
    std::size_t k) const {
  return tenants_.top_offenders(k == 0 ? tenants_.options().top_k : k);
}

void RngService::set_drr_observer(
    std::function<void(std::uint64_t, std::size_t)> fn) {
  // The pop listener also numbers each session's requests in pop order
  // (serve_batch's cross-worker ordering), so it stays installed without
  // an observer too.
  queue_.set_pop_listener(
      [fn = std::move(fn)](std::uint64_t tenant, const RequestPtr& r) {
        r->pop_seq = r->session->popped++;
        if (fn) fn(tenant, r->out.size());
      });
}

int RngService::healthy_shards() const {
  return num_shards() - ejected_count_.load(std::memory_order_acquire);
}

bool RngService::shard_ejected(int shard) const {
  return health_[static_cast<std::size_t>(shard)].ejected.load(
      std::memory_order_acquire);
}

// -- Checkpoint / restore (docs/STATE.md) ------------------------------------

namespace {

using state::kTagHlth;
using state::kTagLeas;
using state::kTagMeta;
using state::kTagOpts;
using state::kTagShrd;
using state::kTagTenq;

/// OPTS once carried a full-queue policy code (0..2) in this u32 slot. The
/// layout keeps it: writers put the old default (0), so snapshots stay
/// byte-compatible both ways, and readers accept 0..2 and ignore it.
constexpr std::uint32_t kOptsOverloadSlot = 0;

/// OPTS once carried the parallel_kernels flag (0/1) in this u32 slot.
/// Writers put 0; readers accept 0 or 1 and ignore it.
constexpr std::uint32_t kOptsParallelKernelsSlot = 0;

void save_options(state::SnapshotWriter& w, const ServiceOptions& o) {
  w.put_str(o.backend);
  w.put_u32(static_cast<std::uint32_t>(o.num_shards));
  w.put_u64(o.max_leases_per_shard);
  w.put_u32(static_cast<std::uint32_t>(o.num_workers));
  w.put_u64(o.queue_capacity);
  w.put_u64(o.max_coalesce);
  w.put_u32(kOptsOverloadSlot);
  w.put_u64(static_cast<std::uint64_t>(o.default_timeout.count()));
  w.put_u64(o.seed);
  w.put_u32(static_cast<std::uint32_t>(o.walk_len));
  w.put_u32(kOptsParallelKernelsSlot);
  w.put_u32(static_cast<std::uint32_t>(o.max_fill_retries));
  w.put_f64(o.retry_backoff_base_ms);
  w.put_f64(o.retry_backoff_max_ms);
  w.put_u32(static_cast<std::uint32_t>(o.shard_eject_failures));
}

bool load_options(state::SectionReader& r, ServiceOptions* o) {
  o->backend = r.get_str();
  o->num_shards = static_cast<int>(r.get_u32());
  o->max_leases_per_shard = r.get_u64();
  o->num_workers = static_cast<int>(r.get_u32());
  o->queue_capacity = static_cast<std::size_t>(r.get_u64());
  o->max_coalesce = static_cast<std::size_t>(r.get_u64());
  const std::uint32_t overload = r.get_u32();  // kOptsOverloadSlot
  o->default_timeout = std::chrono::nanoseconds(
      static_cast<std::int64_t>(r.get_u64()));
  o->seed = r.get_u64();
  o->walk_len = static_cast<int>(r.get_u32());
  const std::uint32_t parallel = r.get_u32();  // kOptsParallelKernelsSlot
  o->max_fill_retries = static_cast<int>(r.get_u32());
  o->retry_backoff_base_ms = r.get_f64();
  o->retry_backoff_max_ms = r.get_f64();
  o->shard_eject_failures = static_cast<int>(r.get_u32());
  if (r.ok() &&
      (o->num_shards < 1 || o->max_leases_per_shard < 1 ||
       o->queue_capacity < 1 || o->max_coalesce < 1 || overload > 2 ||
       parallel > 1 || (o->backend == "hybrid" && o->walk_len < 1) ||
       o->max_fill_retries < 0 || o->shard_eject_failures < 1)) {
    r.fail("implausible service options");
  }
  return r.ok();
}

}  // namespace

bool RngService::checkpoint(const std::string& path, std::string* error) {
  const auto wall_start = std::chrono::steady_clock::now();
  // Sidecar first: the hook's prepare() parks the layered subsystem at a
  // boundary where none of ITS fills are queued — it must run while the
  // workers still drain (after pause() those fills would never complete).
  CheckpointHook hook;
  {
    std::lock_guard<std::mutex> lk(hook_mu_);
    hook = hook_;
  }
  if (hook.prepare) hook.prepare();
  // Quiesce: pause() returns only once every in-flight batch has finished,
  // and each backend fill is synchronous under the shard mutex — so this
  // IS the pass boundary: committed feed cursors everywhere.
  pause();
  state::SnapshotWriter w;

  {
    std::lock_guard<std::mutex> lk(live_mu_);
    std::string meta = "{\"format\":\"hprng-snapshot\",\"format_version\":";
    meta += std::to_string(state::kFormatVersion);
    meta += ",\"writer\":\"hprng::serve::RngService\",\"backend\":\"";
    meta += opts_.backend;
    meta += "\",\"num_shards\":";
    meta += std::to_string(opts_.num_shards);
    meta += ",\"live_leases\":";
    meta += std::to_string(live_leases_.size());
    meta += ",\"spec\":\"docs/STATE.md\"}";
    w.begin_section(kTagMeta);
    w.put_raw(meta);

    w.begin_section(kTagOpts);
    save_options(w, opts_);

    w.begin_section(kTagLeas);
    leases_.save_state(w);
    w.put_u64(live_leases_.size());
    for (const auto& [id, lease] : live_leases_) {
      w.put_u64(id);
      w.put_u32(static_cast<std::uint32_t>(lease.shard));
      w.put_u64(lease.slot);
      w.put_u64(lease.seed);
    }
  }

  w.begin_section(kTagHlth);
  w.put_u64(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    w.put_u32(health_[s].ejected.load(std::memory_order_acquire) ? 1 : 0);
    w.put_u32(static_cast<std::uint32_t>(
        health_[s].consecutive_failures.load(std::memory_order_acquire)));
  }

  // Tenant QoS state (docs/QOS.md §6): every bucket settled to this
  // instant, so the saved level is the complete rate-limit state and a
  // restore resumes refill from its own clock without drift.
  w.begin_section(kTagTenq);
  tenants_.save_state(w, to_ns(std::chrono::steady_clock::now()));

  bool ok = true;
  std::string err;
  for (std::size_t s = 0; s < shards_.size() && ok; ++s) {
    ShardBackend& shard = *shards_[s];
    std::lock_guard<std::mutex> lk(shard.mu);
    w.begin_section(kTagShrd);
    w.put_u32(static_cast<std::uint32_t>(s));
    w.put_str(shard.name());
    ok = shard.save_state(w, &err);
  }
  if (ok && hook.save) hook.save(w);
  const std::string image = ok ? w.finish() : std::string();
  if (ok) ok = w.write_file(path, &err, opts_.injector, /*target=*/0);
  resume();
  if (hook.release) hook.release();

  if (!ok) {
    if (ins_.state_checkpoint_failures != nullptr) {
      ins_.state_checkpoint_failures->add();
    }
    if (error != nullptr) *error = err;
    return false;
  }
  if (ins_.state_checkpoints != nullptr) {
    ins_.state_checkpoints->add();
    ins_.state_checkpoint_bytes->add(static_cast<double>(image.size()));
    ins_.state_checkpoint_seconds->observe(
        seconds(std::chrono::steady_clock::now() - wall_start));
  }
  return true;
}

std::unique_ptr<RngService> RngService::restore(const std::string& path,
                                                const RestoreOptions& ro,
                                                std::string* error) {
  const auto fail = [&](const std::string& why) -> std::unique_ptr<RngService> {
    if (ro.metrics != nullptr) {
      ro.metrics->counter("hprng.state.restore_failures").add();
    }
    if (error != nullptr) *error = why;
    return nullptr;
  };
  std::string err;
  std::optional<state::Snapshot> snap =
      state::Snapshot::read_file(path, &err, ro.injector, /*target=*/0);
  if (!snap.has_value()) return fail(err);

  const state::Section* opts_sec = snap->find(kTagOpts);
  if (opts_sec == nullptr) {
    return fail("snapshot rejected: missing OPTS section");
  }
  ServiceOptions opts;
  state::SectionReader r(*opts_sec);
  if (!load_options(r, &opts)) return fail(r.error());
  opts.injector = ro.injector;
  if (ro.num_workers > 0) opts.num_workers = ro.num_workers;
  if (ro.scrub.has_value()) opts.scrub = *ro.scrub;

  auto svc = std::make_unique<RngService>(std::move(opts), ro.metrics);
  if (!svc->load_snapshot(*snap, &err)) return fail(err);
  if (svc->ins_.state_restores != nullptr) svc->ins_.state_restores->add();
  return svc;
}

bool RngService::load_snapshot(const state::Snapshot& snap,
                               std::string* error) {
  const auto missing = [&](const char* tag) {
    if (error != nullptr) {
      *error = std::string("snapshot rejected: missing ") + tag + " section";
    }
    return false;
  };

  const state::Section* leas = snap.find(kTagLeas);
  if (leas == nullptr) return missing("LEAS");
  {
    state::SectionReader r(*leas);
    if (!leases_.load_state(r, error)) return false;
    const std::uint64_t live_count = r.get_u64();
    if (r.ok() && live_count > leases_.active()) {
      r.fail("more live leases than active slots");
    }
    std::lock_guard<std::mutex> lk(live_mu_);
    for (std::uint64_t i = 0; i < live_count && r.ok(); ++i) {
      Lease lease;
      lease.id = r.get_u64();
      lease.shard = static_cast<int>(r.get_u32());
      lease.slot = r.get_u64();
      lease.seed = r.get_u64();
      if (!r.ok()) break;
      if (lease.id == 0 || lease.shard < 0 || lease.shard >= num_shards() ||
          lease.slot >= opts_.max_leases_per_shard) {
        r.fail("live lease out of range");
        break;
      }
      live_leases_[lease.id] = lease;
      adoptable_[lease.id] = lease;
    }
    if (!r.ok()) {
      if (error != nullptr) *error = r.error();
      return false;
    }
  }

  const state::Section* hlth = snap.find(kTagHlth);
  if (hlth == nullptr) return missing("HLTH");
  {
    state::SectionReader r(*hlth);
    const std::uint64_t count = r.get_u64();
    if (r.ok() && count != shards_.size()) {
      r.fail("shard count mismatch");
    }
    int ejected = 0;
    for (std::size_t s = 0; s < shards_.size() && r.ok(); ++s) {
      const bool is_ejected = r.get_u32() != 0;
      const auto fails = static_cast<int>(r.get_u32());
      health_[s].ejected.store(is_ejected, std::memory_order_release);
      health_[s].consecutive_failures.store(fails, std::memory_order_release);
      if (is_ejected) ++ejected;
    }
    if (!r.ok()) {
      if (error != nullptr) *error = r.error();
      return false;
    }
    ejected_count_.store(ejected, std::memory_order_release);
    if (ins_.shards_healthy != nullptr) {
      ins_.shards_healthy->set(static_cast<double>(num_shards() - ejected));
    }
  }

  // TENQ is optional — snapshots predating the QoS layer restore with the
  // constructor's (default) tenancy; when present it replaces policies,
  // bucket levels, quota charges and the lease→tenant map wholesale.
  if (const state::Section* tenq = snap.find(kTagTenq); tenq != nullptr) {
    state::SectionReader r(*tenq);
    if (!tenants_.load_state(r, to_ns(std::chrono::steady_clock::now()),
                             error)) {
      return false;
    }
    if (ins_.tenant_active != nullptr) {
      ins_.tenant_active->set(static_cast<double>(tenants_.active()));
    }
  }

  const std::vector<const state::Section*> shard_secs =
      snap.find_all(kTagShrd);
  if (shard_secs.size() != shards_.size()) {
    if (error != nullptr) {
      *error = "snapshot rejected: " + std::to_string(shard_secs.size()) +
               " SHRD sections for " + std::to_string(shards_.size()) +
               " shards";
    }
    return false;
  }
  std::vector<char> seen(shards_.size(), 0);
  for (const state::Section* sec : shard_secs) {
    state::SectionReader r(*sec);
    const std::uint32_t index = r.get_u32();
    const std::string name = r.get_str();
    if (r.ok() && (index >= shards_.size() || seen[index] != 0)) {
      r.fail("bad or repeated shard index");
    }
    if (r.ok() && name != shards_[index]->name()) {
      r.fail("backend kind mismatch (snapshot `" + name + "`, pool `" +
             shards_[index]->name() + "`)");
    }
    if (!r.ok()) {
      if (error != nullptr) *error = r.error();
      return false;
    }
    seen[index] = 1;
    ShardBackend& shard = *shards_[index];
    std::lock_guard<std::mutex> lk(shard.mu);
    if (!shard.load_state(r, error)) return false;
  }

  // Stash whatever the service itself did not consume (QUAL and future
  // sidecar tags) so layered subsystems can re-attach after restore. Known
  // tags are excluded — their state already lives in this object.
  for (const state::Section& sec : snap.sections()) {
    if (sec.tag == kTagMeta || sec.tag == kTagOpts || sec.tag == kTagLeas ||
        sec.tag == kTagHlth || sec.tag == kTagShrd || sec.tag == kTagTenq) {
      continue;
    }
    aux_sections_[sec.tag].emplace_back(sec.payload);
  }

  if (ins_.active_leases != nullptr) {
    ins_.active_leases->set(static_cast<double>(leases_.active()));
  }
  return true;
}

void RngService::set_checkpoint_hook(CheckpointHook hook) {
  std::lock_guard<std::mutex> lk(hook_mu_);
  hook_ = std::move(hook);
}

std::vector<std::string> RngService::aux_sections(std::uint32_t tag) const {
  const auto it = aux_sections_.find(tag);
  return it == aux_sections_.end() ? std::vector<std::string>{} : it->second;
}

std::vector<std::uint64_t> RngService::adoptable_lease_ids() const {
  std::lock_guard<std::mutex> lk(live_mu_);
  std::vector<std::uint64_t> ids;
  ids.reserve(adoptable_.size());
  for (const auto& [id, lease] : adoptable_) ids.push_back(id);
  return ids;
}

std::optional<Session> RngService::adopt_session(std::uint64_t lease_id) {
  Lease lease;
  {
    std::lock_guard<std::mutex> lk(live_mu_);
    const auto it = adoptable_.find(lease_id);
    if (it == adoptable_.end()) return std::nullopt;
    lease = it->second;
    adoptable_.erase(it);
  }
  // No attach(): the backend slot was restored mid-stream and an attach
  // would reset it. The SessionState releases the lease normally, so an
  // adopted session's lifecycle is indistinguishable from an opened one.
  // The TENQ lease→tenant map re-binds the adopter to the tenant that
  // opened the lease (0 for pre-QoS snapshots).
  auto state = std::make_shared<detail::SessionState>();
  state->service = this;
  state->lease = lease;
  state->tenant = tenants_.tenant_of_lease(lease.id);
  return Session(std::move(state));
}

// -- Session / Ticket --------------------------------------------------------

Status Session::fill(std::span<std::uint64_t> out,
                     std::chrono::nanoseconds timeout) {
  HPRNG_CHECK(valid(), "Session::fill: empty session");
  RngService* service = state_->service;
  return RngService::wait(service->submit(state_, out, timeout));
}

Ticket Session::fill_async(std::span<std::uint64_t> out,
                           std::chrono::nanoseconds timeout) {
  HPRNG_CHECK(valid(), "Session::fill_async: empty session");
  return Ticket(state_->service->submit(state_, out, timeout));
}

std::vector<std::uint64_t> Session::draw(std::size_t n) {
  std::vector<std::uint64_t> out(n);
  const Status status = fill(out);
  HPRNG_CHECK(status == Status::kOk, "Session::draw: fill failed");
  return out;
}

Lease Session::lease() const {
  HPRNG_CHECK(valid(), "Session::lease: empty session");
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->lease;
}

std::uint64_t Session::tenant() const {
  HPRNG_CHECK(valid(), "Session::tenant: empty session");
  return state_->tenant;
}

Status Ticket::wait() {
  HPRNG_CHECK(req_ != nullptr, "Ticket::wait: empty ticket");
  return RngService::wait(req_);
}

}  // namespace hprng::serve
