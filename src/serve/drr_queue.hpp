#pragma once

// Tenant-aware bounded MPMC request queue for hprng::serve
// (docs/QOS.md §5).
//
// Items land in per-tenant sub-queues (FIFO within a tenant); consumers
// drain across tenants by deficit round-robin: each scheduler visit
// grants the ring-front tenant `quantum * weight(tenant)` words of
// deficit, the tenant serves head items while the deficit covers their
// cost, and rotates to the ring back otherwise (deficit preserved, so
// large requests eventually accumulate enough credit). Long-run service
// shares under saturation are proportional to weight; one tenant's
// backlog can delay another by at most one max-cost item per round.
//
// Determinism contract (docs/QOS.md §5): every pop is serialised under
// the queue mutex and the schedule depends only on (arrival order,
// costs, weights, quantum) — never on consumer count or timing. For a
// trace fully enqueued before draining begins, the pop order observed by
// the pop listener is byte-identical for ANY number of workers — the
// property serve_qos_test pins across 0/1/3/8 workers.
//
// Admission is one non-blocking rule: try_push() reports kFull at
// capacity and the caller rejects (docs/SERVING.md §4). Nothing ever
// waits for queue space, and nothing already queued is evicted. Nothing
// popped comes back either: each item is popped, and charged deficit,
// exactly once (a failed serve is retried by the consumer that popped
// it).
// push_or_take() is the same admission, except that an idle queue pops
// the item at once for the caller to serve itself.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hprng::serve {

template <typename T>
class DrrQueue {
 public:
  /// kTaken: push_or_take() popped the item at once instead of queueing it.
  enum class PushResult { kOk, kFull, kClosed, kTaken };

  /// Classifier / cost accessors are intrinsic to the item type; the
  /// weight function is consulted at every scheduler visit (so policy
  /// changes apply to already-queued work). All three are called under
  /// the queue mutex and must not touch the queue re-entrantly.
  /// @param capacity maximum queued items (all tenants) before kFull.
  /// @param gate optional pause flag: while *gate is true, pop_batch()
  ///        blocks even when items are queued (pushes are unaffected).
  ///        Whoever flips the gate must call wake() afterwards.
  /// @param quantum_words base DRR quantum (deficit per visit is
  ///        quantum * weight; must be >= 1).
  DrrQueue(std::size_t capacity, const std::atomic<bool>* gate,
           std::function<std::uint64_t(const T&)> tenant_of,
           std::function<std::uint64_t(const T&)> cost_of,
           std::function<std::uint64_t(std::uint64_t)> weight_of,
           std::uint64_t quantum_words)
      : capacity_(capacity),
        gate_(gate),
        tenant_of_(std::move(tenant_of)),
        cost_of_(std::move(cost_of)),
        weight_of_(std::move(weight_of)),
        quantum_(quantum_words == 0 ? 1 : quantum_words) {}

  PushResult try_push(T item) {
    return push_or_take(std::move(item), nullptr,
                        [](const T&) { return false; });
  }

  /// try_push(), except that an idle queue hands the item to the caller:
  /// when nothing is queued, the gate is open, *in_flight is 0 and
  /// `takeable(item)` holds (evaluated under the queue lock), the item is
  /// popped at once and kTaken returned. The pop runs the DRR core, so the
  /// pop and round listeners see exactly what pop_batch() would have made
  /// of it, and *in_flight is incremented under the lock, the fence
  /// pop_batch() gives. The caller then owns the popped work, as a
  /// consumer owns a batch. A null `in_flight` never takes.
  template <typename Takeable>
  PushResult push_or_take(T item, std::atomic<int>* in_flight,
                          const Takeable& takeable) {
    std::lock_guard<std::mutex> lk(mu_);
    if (closed_) return PushResult::kClosed;
    if (in_flight != nullptr && total_ == 0 && !gated() &&
        in_flight->load(std::memory_order_acquire) == 0 && takeable(item)) {
      enqueue_locked(std::move(item));
      (void)pop_one_locked();
      in_flight->fetch_add(1, std::memory_order_acq_rel);
      return PushResult::kTaken;
    }
    if (total_ >= capacity_) return PushResult::kFull;
    enqueue_locked(std::move(item));
    if (on_size_change_) on_size_change_(total_);
    not_empty_.notify_one();
    return PushResult::kOk;
  }

  /// DRR-scheduled batch pop; the scheduling state (ring position,
  /// deficits) persists across calls, so consecutive batches continue
  /// one global schedule no matter which worker takes them. Blocks until
  /// items are queued with the gate open, or the queue is closed; returns
  /// the number moved, 0 meaning closed-and-empty (the consumer's exit).
  /// After close() the gate is ignored so workers can drain the backlog.
  ///
  /// When `in_flight` is given it is incremented under the queue lock
  /// before a non-empty batch is handed out, so an observer that reads
  /// size() == 0 and *in_flight == 0 knows no popped-but-unprocessed batch
  /// hides in the gap (the drain() fence).
  std::size_t pop_batch(std::vector<T>* out, std::size_t max,
                        std::atomic<int>* in_flight = nullptr) {
    std::unique_lock<std::mutex> lk(mu_);
    not_empty_.wait(lk, [&] { return closed_ || (!gated() && total_ > 0); });
    const std::size_t n = std::min(max, total_);
    for (std::size_t i = 0; i < n; ++i) out->push_back(pop_one_locked());
    if (n > 0) {
      if (in_flight != nullptr) {
        in_flight->fetch_add(1, std::memory_order_acq_rel);
      }
      if (on_size_change_) on_size_change_(total_);
    }
    return n;
  }

  /// Invoked with the new total size, under the queue lock, whenever it
  /// changes — so a gauge updated from here equals size() exactly at any
  /// quiescent fence. Install before any concurrent use.
  void set_size_listener(std::function<void(std::size_t)> fn) {
    std::lock_guard<std::mutex> lk(mu_);
    on_size_change_ = std::move(fn);
  }

  /// Observer of every scheduled pop, invoked under the queue mutex with
  /// (tenant, item) in exact service order — the determinism probe.
  void set_pop_listener(std::function<void(std::uint64_t, const T&)> fn) {
    std::lock_guard<std::mutex> lk(mu_);
    on_pop_ = std::move(fn);
  }

  /// Invoked under the lock once per scheduler visit (deficit grant) —
  /// feeds the hprng.serve.tenant.drr_rounds counter.
  void set_round_listener(std::function<void()> fn) {
    std::lock_guard<std::mutex> lk(mu_);
    on_round_ = std::move(fn);
  }

  /// Refuse new pushes and wake every consumer; queued items stay poppable.
  void close() {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
    not_empty_.notify_all();
  }

  /// Re-evaluate consumer wait conditions (call after flipping the gate).
  void wake() {
    std::lock_guard<std::mutex> lk(mu_);
    not_empty_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return total_;
  }

  /// Scheduler visits so far (exact at quiescent fences).
  [[nodiscard]] std::uint64_t rounds() const {
    std::lock_guard<std::mutex> lk(mu_);
    return rounds_;
  }

 private:
  struct Sub {
    std::deque<T> items;
    std::uint64_t deficit = 0;
    bool visited = false;  ///< deficit granted for the current ring visit
  };

  [[nodiscard]] bool gated() const {
    return gate_ != nullptr && gate_->load(std::memory_order_acquire);
  }

  void enqueue_locked(T item) {
    const std::uint64_t tenant = tenant_of_(item);
    Sub& sub = subs_[tenant];
    if (sub.items.empty()) ring_.push_back(tenant);
    sub.items.push_back(std::move(item));
    ++total_;
  }

  /// The DRR core. Invariants: a tenant is in `ring_` iff its sub-queue
  /// is non-empty; `total_` > 0 on entry. Terminates because a rotation
  /// preserves the deficit and every revisit grants >= quantum_ more.
  T pop_one_locked() {
    for (;;) {
      const std::uint64_t tenant = ring_.front();
      Sub& sub = subs_[tenant];
      if (!sub.visited) {
        sub.visited = true;
        std::uint64_t w = weight_of_ ? weight_of_(tenant) : 1;
        if (w == 0) w = 1;
        sub.deficit += quantum_ * w;
        ++rounds_;
        if (on_round_) on_round_();
      }
      std::uint64_t cost = cost_of_(sub.items.front());
      if (cost == 0) cost = 1;
      if (cost <= sub.deficit) {
        T item = std::move(sub.items.front());
        sub.items.pop_front();
        sub.deficit -= cost;
        --total_;
        if (on_pop_) on_pop_(tenant, item);
        if (sub.items.empty()) {  // the served tenant is the ring front
          subs_.erase(tenant);
          ring_.pop_front();
        }
        return item;
      }
      sub.visited = false;
      ring_.pop_front();
      ring_.push_back(tenant);
    }
  }

  const std::size_t capacity_;
  const std::atomic<bool>* gate_;
  const std::function<std::uint64_t(const T&)> tenant_of_;
  const std::function<std::uint64_t(const T&)> cost_of_;
  const std::function<std::uint64_t(std::uint64_t)> weight_of_;
  const std::uint64_t quantum_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::unordered_map<std::uint64_t, Sub> subs_;
  std::deque<std::uint64_t> ring_;  ///< active tenants, visit order
  std::size_t total_ = 0;
  std::uint64_t rounds_ = 0;
  std::function<void(std::size_t)> on_size_change_;
  std::function<void(std::uint64_t, const T&)> on_pop_;
  std::function<void()> on_round_;
  bool closed_ = false;
};

}  // namespace hprng::serve
