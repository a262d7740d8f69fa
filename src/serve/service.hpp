#pragma once

// hprng::serve::RngService — multi-client RNG-as-a-service front-end over
// the paper's generators (docs/SERVING.md).
//
// Architecture: clients open Sessions, each leasing one substream slot on
// one backend shard (LeaseManager + ShardBackend). Session fills become
// Requests on a bounded MPMC queue; a request that finds the queue full
// is rejected at once. Worker threads pop coalescing batches, group
// them by shard and serve each group as ONE batched backend fill — for
// the hybrid backend that is a single FEED/TRANSFER/GENERATE pipeline
// pass (HybridPrng::fill_leased), which is the whole point: many small
// client requests amortise one device round, exactly like the paper's
// batched generation amortises kernel launches. An idle service serves
// a small fill of a session it has served before on the submitting
// thread instead, as a batch of one (docs/SERVING.md §4).
//
// Every request reaches exactly one terminal Status. The request state is
// heap-shared between the waiting client and the serving worker, with an
// atomic claim protocol deciding races (worker claim vs. client timeout),
// so no side ever touches a span the other reclaimed.
//
// Observability: with a MetricsRegistry attached the service maintains
// the `hprng.serve.*` catalogue (docs/OBSERVABILITY.md). Each engine event
// is counted at one call site, which bumps the counter table stats() reads
// and the event's catalogued instrument together, so the two agree at
// quiescent fences.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "prng/seed_seq.hpp"
#include "serve/backend.hpp"
#include "serve/drr_queue.hpp"
#include "serve/lease.hpp"
#include "serve/options.hpp"
#include "serve/tenant.hpp"

namespace hprng::state {
class Snapshot;
class SnapshotWriter;
}  // namespace hprng::state

namespace hprng::serve {

class RngService;
class Session;

namespace detail {

/// One in-flight fill request, shared between the submitting client and
/// the worker serving it — whichever side finishes last keeps it alive.
struct Request {
  /// Claim protocol: exactly one party wins the CAS away from kPending,
  /// and no request ever returns to it. A worker claims kPending ->
  /// kClaimed before touching `out` and keeps the request until it
  /// settles; a timed-out waiter (or a worker finding the deadline already
  /// passed) claims kPending -> kAbandoned, after which no worker may
  /// touch `out` (the caller's buffer may be gone).
  enum Phase : int { kPending = 0, kClaimed, kAbandoned };

  /// Keeps the lease alive while the request is pending. Whoever serves
  /// it drops this reference just before settling it, so a client that
  /// drops its handles once the fill is answered gets the lease back at
  /// once.
  std::shared_ptr<struct SessionState> session;
  std::span<std::uint64_t> out;
  std::chrono::steady_clock::time_point submit_time;
  std::chrono::steady_clock::time_point deadline;
  std::uint64_t pop_seq = 0;  ///< session pop order (set under the queue
                              ///< lock; see SessionState::popped)
  std::uint64_t tenant = 0;   ///< owning tenant (DRR classification)
  bool quota_charged = false; ///< admission charged out.size() words; a
                              ///< non-kOk terminal refunds exactly once

  std::atomic<int> phase{kPending};

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;            ///< guarded by mu; set exactly once
  Status status = Status::kOk;  ///< guarded by mu; valid once done
  /// Settle hook (Session::fill_async): set before the request is
  /// published, run once by settle() after `done` is published.
  std::function<void(Status)> on_settle;
};

/// Shared session state: releasing the last reference returns the lease
/// (slot + backend stream) to the pool. The lease is mutable — failover
/// moves it to a surviving shard when its home shard is ejected — so every
/// read goes through `mu` (lock order: session mu before any shard mu).
struct SessionState {
  RngService* service = nullptr;
  std::mutex mu;
  Lease lease;               ///< guarded by mu
  std::uint64_t tenant = 0;  ///< immutable after open/adopt
  /// Serve order across workers (docs/SERVING.md §4): the queue numbers
  /// this session's requests as it hands them out (`popped`, guarded by
  /// the queue lock), and the serving thread retires each request once
  /// it is done with it. A worker touches a request only once every
  /// request of the session popped before its batch has retired.
  std::uint64_t popped = 0;
  std::atomic<std::uint64_t> retired{0};
  ~SessionState();
};

}  // namespace detail

/// Completion handle for an asynchronous fill. The output span passed to
/// fill_async() must stay valid until the request settles.
class Ticket {
 public:
  Ticket() = default;
  [[nodiscard]] bool valid() const { return req_ != nullptr; }

  /// Block until the request reaches a terminal status and return it.
  /// Idempotent — repeated calls return the same status.
  Status wait();

  /// When the request times out: its submit time plus its timeout.
  [[nodiscard]] std::chrono::steady_clock::time_point deadline() const;

  /// What wait() does at the deadline, without blocking: if no worker
  /// has claimed the request it settles kTimeout now, and no worker will
  /// touch its span afterwards. False when a worker claimed it first (it
  /// then settles when served) or the request has already settled.
  bool abandon();

 private:
  friend class Session;
  explicit Ticket(std::shared_ptr<detail::Request> req)
      : req_(std::move(req)) {}
  std::shared_ptr<detail::Request> req_;
};

/// A client's handle on one leased substream. Copyable — copies share the
/// lease (reference-counted); the slot returns to the pool when the last
/// copy and the last in-flight request referencing it are gone. Sessions
/// must not outlive their RngService.
class Session {
 public:
  Session() = default;
  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// Fill `out` with the next draws of this session's substream, blocking
  /// until served or failed. Zero `timeout` means the service default.
  Status fill(std::span<std::uint64_t> out,
              std::chrono::nanoseconds timeout = {});

  /// Asynchronous fill: never waits for a worker; `out` must stay valid
  /// until the request settles (Ticket::wait() returns, or `on_settle`
  /// runs). An idle service serves a small fill of a session it has
  /// served before on this thread, before fill_async returns
  /// (docs/SERVING.md §4). A non-empty `on_settle` runs exactly once with
  /// the terminal status, after wait() can observe it, on whichever
  /// thread settles the request: a worker (holding no shard mutex), a
  /// caller of wait() or abandon(), or this caller before fill_async
  /// returns (a fill served in place, or an immediate rejection). It must
  /// not block or call into this service.
  Ticket fill_async(std::span<std::uint64_t> out,
                    std::chrono::nanoseconds timeout = {},
                    std::function<void(Status)> on_settle = {});

  /// Convenience: fill-and-return n draws; aborts unless the fill is kOk
  /// (use fill() where failure is expected).
  std::vector<std::uint64_t> draw(std::size_t n);

  /// The lease this session currently draws through (a snapshot copy —
  /// failover may move the lease between calls; docs/SERVING.md §7).
  [[nodiscard]] Lease lease() const;

  /// Tenant this session bills against (immutable; docs/QOS.md §2).
  [[nodiscard]] std::uint64_t tenant() const;

 private:
  friend class RngService;
  explicit Session(std::shared_ptr<detail::SessionState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::SessionState> state_;
};

class RngService {
 public:
  /// Starts the worker threads; with a registry, resolves every
  /// `hprng.serve.*` instrument immediately (all appear at value zero, so
  /// a snapshot is complete even before traffic).
  explicit RngService(ServiceOptions opts = {},
                      obs::MetricsRegistry* metrics = nullptr);

  /// Closes the queue, drains the backlog and joins the workers. Requests
  /// submitted after destruction begins complete as kClosed.
  ~RngService();

  RngService(const RngService&) = delete;
  RngService& operator=(const RngService&) = delete;

  /// Lease a substream on the least-loaded shard; nullopt when all
  /// num_shards * max_leases_per_shard slots are leased.
  std::optional<Session> try_open_session();

  /// Lease on shard `shard_key % num_shards` (client affinity pinning);
  /// nullopt when that shard is full.
  std::optional<Session> try_open_session(std::uint64_t shard_key);

  /// Full-control session open (docs/QOS.md §2). The one-argument
  /// overloads above are equivalent to a spec with tenant 0 — the
  /// default tenant every pre-QoS caller lands on.
  struct SessionSpec {
    std::uint64_t tenant = 0;              ///< QoS billing identity
    std::optional<std::uint64_t> shard_key;  ///< affinity pin (optional)
  };
  std::optional<Session> try_open_session(const SessionSpec& spec);

  /// try_open_session() that aborts on pool exhaustion — for callers that
  /// sized the pool to their client count.
  Session open_session();

  /// Engine-side ground-truth accounting (kept whether or not a registry
  /// is attached; exact at quiescent fences).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;  ///< served kOk
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t closed = 0;
    std::uint64_t failed = 0;  ///< kFailed (no healthy shard left)
    std::uint64_t rejected_quota = 0;  ///< kRejectedQuota (rate or quota)
    std::uint64_t numbers_served = 0;
    std::uint64_t batches = 0;       ///< backend fill passes (successful)
    std::uint64_t retries = 0;       ///< extra fill attempts after failures
    std::uint64_t failovers = 0;     ///< leases moved off ejected shards
    /// Fills an idle service took to serve on the submitting thread
    /// (docs/SERVING.md §4); a failed in-place pass is retried there too.
    std::uint64_t served_in_place = 0;
    std::uint64_t shards_ejected = 0;
    std::size_t queue_depth = 0;
    std::uint64_t active_leases = 0;
    std::uint64_t leases_granted = 0;
    std::uint64_t leases_released = 0;
  };
  [[nodiscard]] Stats stats() const;

  // -- Tenant QoS introspection (docs/QOS.md §7) ---------------------------

  /// One tenant's ground-truth QoS counters (zeros when unknown).
  [[nodiscard]] TenantTable::TenantStats tenant_stats(
      std::uint64_t tenant) const;

  /// Every materialised tenant's counters, by tenant id.
  [[nodiscard]] std::vector<TenantTable::TenantStats> tenant_all_stats()
      const;

  /// Tenants ranked by admission rejections (the offender report);
  /// `k` == 0 uses the configured TenantOptions::top_k.
  [[nodiscard]] std::vector<TenantTable::TenantStats> top_offenders(
      std::size_t k = 0) const;

  /// Audit observer of the DRR schedule (docs/QOS.md §5): invoked under
  /// the queue lock with (tenant, request words) at every scheduled pop,
  /// in exact service order — the trace whose worker-count independence
  /// serve_qos_test pins. Install before submitting load (or while
  /// paused); the callback must not call back into the service.
  void set_drr_observer(
      std::function<void(std::uint64_t tenant, std::size_t words)> fn);

  /// Shards currently accepting traffic (total minus ejected).
  [[nodiscard]] int healthy_shards() const;

  /// True once shard `s` has been ejected (ejection is permanent for the
  /// service's lifetime — a replaced shard would be a new pool member).
  [[nodiscard]] bool shard_ejected(int shard) const;

  // -- Maintenance / test fences -------------------------------------------

  /// Park the workers: in-flight batches, fills served in place included,
  /// finish (pause blocks until they have), then no further requests are
  /// popped or served in place until resume(). Queued requests stay
  /// queued — this is the fence at which queue accounting is exact and
  /// controllable.
  void pause();

  /// Reopen the worker gate.
  void resume();

  /// Block until the queue is empty and no batch is in flight. Requires a
  /// resumed service (a paused service with a backlog never drains).
  void drain();

  // -- Checkpoint / restore (docs/STATE.md) ---------------------------------
  //
  // checkpoint() captures the service's complete deterministic state — the
  // options, the lease inventory and every live lease, shard health, and
  // each shard backend's stream state — into one CRC-sectioned snapshot
  // file. It quiesces internally (pause(): every in-flight batched pass
  // finishes, which IS the pass boundary — no pending feed words anywhere)
  // and resumes afterwards, so it is safe to call concurrently with
  // traffic. Queued-but-unserved requests are deliberately NOT part of a
  // snapshot: they drain in the checkpointing process after resume; the
  // snapshot's unit of durability is the lease stream, not the request.
  // Callers must not open or release sessions while a checkpoint is being
  // taken (lease table and backend sections must agree).
  //
  // restore() rebuilds an equivalent service in a fresh process. Restored
  // leases are not bound to Sessions yet — clients re-attach with
  // adopt_session(lease_id) and continue their streams byte-exactly where
  // the snapshot left them (the golden-equivalence guarantee
  // serve_checkpoint_test pins). Corrupt, truncated or version-mismatched
  // snapshots are rejected with a diagnostic and construct nothing.

  /// Write a snapshot of the whole service to `path` (atomically: temp
  /// file + rename). Returns false (with *error) on I/O failure or an
  /// injected `checkpoint_write` fault; the service keeps serving either
  /// way and an existing snapshot at `path` is never clobbered by a
  /// failed attempt.
  bool checkpoint(const std::string& path, std::string* error = nullptr);

  /// Runtime wiring a snapshot cannot carry (registries and injectors are
  /// process-local objects).
  struct RestoreOptions {
    obs::MetricsRegistry* metrics = nullptr;
    fault::Injector* injector = nullptr;  ///< not owned; may be nullptr
    /// Scrub knobs for the restored deployment. The snapshot's OPTS
    /// section deliberately omits them (docs/QUALITY.md §6: a restore may
    /// change scrub policy); nullopt keeps the defaults (disabled).
    std::optional<ScrubberOptions> scrub;
  };

  /// Reconstruct a service from a snapshot written by checkpoint().
  /// Returns nullptr (with *error) on any rejection — bad magic, format
  /// version gate, CRC/framing corruption, configuration mismatch, or an
  /// injected `restore_read` fault. Rejection constructs nothing, so a
  /// corrupt snapshot can never yield a partially-restored service.
  static std::unique_ptr<RngService> restore(const std::string& path,
                                             const RestoreOptions& ro,
                                             std::string* error = nullptr);
  static std::unique_ptr<RngService> restore(const std::string& path,
                                             std::string* error = nullptr) {
    return restore(path, RestoreOptions{}, error);
  }

  /// Sidecar state a layered subsystem (the quality scrubber) rides into
  /// the service snapshot. checkpoint() calls `prepare` BEFORE quiescing —
  /// the subsystem reaches a boundary where its own fills are out of the
  /// queue (calling it after pause() would deadlock on those fills) —
  /// then `save` while the service is quiesced (append whole sections to
  /// the open writer), then `release` after the service resumes. At most
  /// one hook; an empty hook detaches.
  struct CheckpointHook {
    std::function<void()> prepare;
    std::function<void(state::SnapshotWriter&)> save;
    std::function<void()> release;
  };
  void set_checkpoint_hook(CheckpointHook hook);

  /// Payloads of snapshot sections restore() did not consume itself (the
  /// QUAL section and any future sidecar tags), in file order. The layered
  /// subsystem re-attaches by reading its tag here after restore.
  [[nodiscard]] std::vector<std::string> aux_sections(
      std::uint32_t tag) const;

  /// Leases restored from a snapshot and not yet re-claimed, in id order.
  [[nodiscard]] std::vector<std::uint64_t> adoptable_lease_ids() const;

  /// Re-claim a restored lease as a live Session (no re-attach — the
  /// backend slot is already mid-stream). nullopt when `lease_id` is not
  /// adoptable (unknown, or already adopted). Each lease adopts once.
  std::optional<Session> adopt_session(std::uint64_t lease_id);

  [[nodiscard]] const ServiceOptions& options() const { return opts_; }
  [[nodiscard]] obs::MetricsRegistry* metrics() const { return metrics_; }
  [[nodiscard]] int num_shards() const {
    return static_cast<int>(shards_.size());
  }

 private:
  friend class Session;
  friend class Ticket;
  friend struct detail::SessionState;

  using RequestPtr = std::shared_ptr<detail::Request>;

  /// Engine events. The first slots are the terminal statuses, indexed by
  /// Status value; the rest follow. count() bumps an event's slot in the
  /// counter table and its catalogued instrument together, and every
  /// event is counted at exactly one call site.
  enum Event : std::size_t {
    kSubmitted = static_cast<std::size_t>(Status::kRejectedQuota) + 1,
    kNumbersServed,
    kBatches,
    kRetries,
    kFailovers,
    kServedInPlace,
    kNumEvents,
  };

  /// The `hprng.serve.*` catalogue (docs/OBSERVABILITY.md), resolved once
  /// at construction. All null when no registry is attached.
  struct Instruments {
    /// Per-event counters; null also for events with no instrument.
    std::array<obs::Counter*, kNumEvents> events{};
    obs::Counter* leases_granted = nullptr;
    obs::Counter* leases_released = nullptr;
    obs::Counter* retry_backoff_seconds = nullptr;
    obs::Counter* shards_ejected = nullptr;
    // `hprng.serve.backend.*` — backend slot churn (docs/BACKENDS.md §6).
    obs::Counter* backend_attaches = nullptr;
    obs::Counter* backend_detaches = nullptr;
    // `hprng.serve.tenant.*` — multi-tenant QoS (docs/QOS.md §7).
    obs::Counter* tenant_rejected_rate = nullptr;
    obs::Counter* tenant_rejected_quota = nullptr;
    obs::Counter* tenant_quota_words_charged = nullptr;
    obs::Counter* tenant_quota_words_refunded = nullptr;
    obs::Counter* tenant_drr_rounds = nullptr;
    obs::Gauge* tenant_active = nullptr;
    obs::Gauge* shards_healthy = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* active_leases = nullptr;
    obs::Histogram* batch_requests = nullptr;
    obs::Histogram* request_latency_seconds = nullptr;
    obs::Histogram* queue_wait_seconds = nullptr;
    obs::Histogram* fill_sim_seconds = nullptr;
    obs::Histogram* fill_wall_seconds = nullptr;
    // `hprng.state.*` — checkpoint/restore (docs/STATE.md).
    obs::Counter* state_checkpoints = nullptr;
    obs::Counter* state_checkpoint_failures = nullptr;
    obs::Counter* state_checkpoint_bytes = nullptr;
    obs::Counter* state_restores = nullptr;
    obs::Counter* state_restore_failures = nullptr;
    obs::Histogram* state_checkpoint_seconds = nullptr;
  };

  /// Per-shard health: healthy (no recent failures) -> degraded (some
  /// consecutive failed passes) -> ejected (threshold reached; permanent).
  struct ShardHealth {
    std::atomic<int> consecutive_failures{0};
    std::atomic<bool> ejected{false};
  };

  std::optional<Session> open_with(std::optional<Lease> lease,
                                   std::uint64_t tenant);
  RequestPtr submit(const std::shared_ptr<detail::SessionState>& session,
                    std::span<std::uint64_t> out,
                    std::chrono::nanoseconds timeout,
                    std::function<void(Status)> on_settle = {});
  static Status wait(const RequestPtr& req);
  /// Claim kPending -> kAbandoned and settle kTimeout; false when a
  /// worker's claim got there first or the request had already settled.
  static bool abandon(const RequestPtr& req);
  /// Publish the terminal status (exactly once) and count it; false when
  /// the request had already settled.
  bool settle(const RequestPtr& req, Status status);
  void count(std::size_t event, std::uint64_t n = 1);
  void release_lease(const Lease& lease);
  void worker_loop();
  /// Serve popped requests: wait out the session order, claim, then one
  /// serve_shard_group per shard, repeated on this thread for any
  /// displaced tail (after failover) until every claimed request is
  /// served, shed at its deadline or failed. A worker's batch, or a fill
  /// taken in place by submit() as a batch of one.
  void serve_batch(std::vector<RequestPtr>& batch);
  /// After serve_batch: drop the batch's references and lower serving_,
  /// waking pause() and drain().
  void finish_batch(std::vector<RequestPtr>& batch);
  /// Retire a popped request, drop its session reference and settle it.
  /// Never under a shard mutex: the dropped reference may be the last,
  /// and releasing the lease takes the shard's mutex.
  void finish(const RequestPtr& req, Status status);
  /// Serve one shard's claimed requests: split into unique-slot passes
  /// and fill each with bounded retry + backoff. A pass that fails for
  /// good appends itself and every later pass, in order, to `displaced`
  /// for serve_batch's next round; the served ones retire and settle
  /// once the shard mutex is off.
  void serve_shard_group(std::size_t s, std::vector<RequestPtr>& group,
                         std::vector<RequestPtr>* displaced);
  /// Mark one failed pass on shard `s` (ejecting it at the threshold).
  void record_shard_failure(std::size_t s);
  void eject_shard(std::size_t s);
  /// Move `state`'s lease off its (ejected) home shard onto a healthy one.
  /// True when the session can keep going — either the lease moved, or its
  /// current shard turned out healthy already. False = no healthy capacity.
  bool failover_session(const std::shared_ptr<detail::SessionState>& state);
  /// Jittered exponential-backoff sleep before retry `attempt` (wall).
  void backoff(int attempt);
  /// Load every snapshot section into this freshly-constructed service
  /// (restore() discards the service when this fails, so there is no
  /// partially-restored state to observe).
  bool load_snapshot(const state::Snapshot& snap, std::string* error);

  ServiceOptions opts_;
  obs::MetricsRegistry* metrics_;
  Instruments ins_;
  TenantTable tenants_;  ///< before queue_: its weights feed the DRR
  LeaseManager leases_;
  std::vector<std::unique_ptr<ShardBackend>> shards_;
  std::unique_ptr<ShardHealth[]> health_;  ///< one per shard
  std::atomic<int> ejected_count_{0};
  prng::SeedSequence backoff_seq_;  ///< jitter stream (const derive)
  std::atomic<std::uint64_t> backoff_idx_{0};

  std::atomic<bool> stopping_{false};
  std::atomic<bool> paused_{false};
  DrrQueue<RequestPtr> queue_;  ///< weighted-fair across tenants (QOS.md §5)

  std::array<std::atomic<std::uint64_t>, kNumEvents> counts_{};  ///< by Event

  /// Popped, unfinished batches: workers' and fills served in place.
  std::atomic<int> serving_{0};
  std::mutex state_mu_;
  std::condition_variable state_cv_;

  // Live-lease table (checkpoint payload): every currently-leased stream,
  // by id. Maintained on open/release/failover; snapshotted verbatim. In a
  // restored service, `adoptable_` additionally holds the ids clients may
  // still re-claim via adopt_session().
  mutable std::mutex live_mu_;
  std::map<std::uint64_t, Lease> live_leases_;
  std::map<std::uint64_t, Lease> adoptable_;

  // Sidecar checkpoint hook + unconsumed restored sections (QUAL et al).
  mutable std::mutex hook_mu_;
  CheckpointHook hook_;
  std::map<std::uint32_t, std::vector<std::string>> aux_sections_;

  std::vector<std::thread> workers_;
};

}  // namespace hprng::serve
