#pragma once

// Backend shards for hprng::serve (docs/SERVING.md §2; normative backend
// contracts in docs/BACKENDS.md).
//
// A shard is one generator pool member: it owns the stream state behind
// every lease slot the LeaseManager maps to it. Four families:
//
//  * hybrid   — a core::HybridPrng on its own simulated device; each slot
//               is one device walk, small requests coalesce into one
//               FEED/TRANSFER/GENERATE pass (HybridPrng::fill_leased).
//  * cpu-walk — one core::CpuWalkPrng per slot (the paper's CPU variant).
//  * counter  — "philox" / "md5-counter": a stateless CounterBackend block
//               function; each slot is a (key, stream, position) coordinate
//               (counter_backend.hpp). Leases are arithmetic partitions of
//               counter space: O(1) creation, O(1) jump-ahead, fixed-size
//               checkpoints with O(1) restore.
//  * any prng::make_by_name name — one baseline generator per slot, for
//               apples-to-apples serving comparisons in bench/serve_load.
//
// Threading contract: calls into a shard are serialised by holding its
// `mu` (workers serving a coalesced batch, the service attaching and
// detaching leases). Different shards never share state, so they run
// fully concurrently.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "serve/options.hpp"

namespace hprng::fault {
class Injector;
}  // namespace hprng::fault

namespace hprng::obs {
class MetricsRegistry;
}  // namespace hprng::obs

namespace hprng::state {
class SnapshotWriter;
class SectionReader;
}  // namespace hprng::state

namespace hprng::serve {

class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// One slot's portion of a coalesced fill pass.
  struct Fill {
    std::uint64_t slot = 0;
    std::span<std::uint64_t> out;
  };

  /// Outcome of one batched pass: whether every fill landed, and the
  /// simulated device seconds charged (0 for host backends). A failed
  /// pass leaves every listed stream exactly where it was — backends are
  /// transactional (HybridPrng::fill_leased), so a retry reproduces the
  /// words the failed pass owed.
  struct FillResult {
    bool ok = true;
    double sim_seconds = 0.0;
  };

  /// Bind `slot` to a fresh client stream seeded with `client_seed` (the
  /// SeedSequence-derived lease seed).
  virtual void attach(std::uint64_t slot, std::uint64_t client_seed) = 0;

  /// Unbind `slot`; it may be attach()ed again later under a new lease.
  virtual void detach(std::uint64_t slot) = 0;

  /// Serve every fill in one batched pass. Each slot appears at most once
  /// per call — the service splits duplicate-slot batches into passes.
  virtual FillResult fill(std::span<const Fill> fills) = 0;

  /// Attach (or with nullptr, detach) a fault injector; `target` is this
  /// shard's index. Default no-op — only backends with an instrumented
  /// pipeline (hybrid) have sites of their own; the service-level
  /// kShardFill site covers every backend regardless.
  virtual void set_fault_injector(fault::Injector* injector, int target) {
    (void)injector;
    (void)target;
  }

  /// Attach (or with nullptr, detach) a metrics registry. Default no-op;
  /// the hybrid backend forwards it down its whole pipeline so a served
  /// pool emits the hprng.core/sim/host instruments (shards share the
  /// registry — the instruments aggregate across the pool).
  virtual void set_metrics(obs::MetricsRegistry* registry) {
    (void)registry;
  }

  // -- Checkpoint/restore (docs/STATE.md) -----------------------------------
  //
  // save_state() serialises every attached slot's stream state into the
  // currently-open snapshot section; load_state() restores it into a
  // freshly-constructed shard of the same configuration WITHOUT attach()
  // calls — the slots come back mid-stream exactly where the snapshot left
  // them. Both run under `mu`, which is the pass boundary: fill() is
  // synchronous. Host backends are seed-addressed, so they restore by
  // replaying each slot's recorded draw count from its lease seed; the
  // hybrid backend delegates to HybridPrng::save_state/load_state (walk
  // vertices + committed feed cursors — O(state), no replay).

  /// Returns false (with *error) if the shard cannot be snapshotted in its
  /// current state.
  virtual bool save_state(state::SnapshotWriter& writer,
                          std::string* error) const = 0;

  /// Restore a section written by save_state() on an identically-configured
  /// shard. Returns false (with *error) on malformed or mismatched input;
  /// the shard must be discarded on failure.
  virtual bool load_state(state::SectionReader& reader,
                          std::string* error) = 0;

  /// Backend kind label for reports ("hybrid", "cpu-walk", "mt19937", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Held by whoever calls into this shard (see the threading contract).
  std::mutex mu;
};

/// Build shard `shard_index` of the pool described by `opts`. The shard
/// derives its seed domain from opts.seed via SeedSequence::split, so no
/// two shards (and no two slots anywhere) share stream seeds. Aborts on
/// unknown backend names (probe with backend_known / known_backends).
std::unique_ptr<ShardBackend> make_shard_backend(const ServiceOptions& opts,
                                                 int shard_index);

/// The backend registry: every name make_shard_backend accepts, in
/// presentation order — the walk backends ("hybrid", "cpu-walk"), the
/// counter backends ("philox", "md5-counter"), then every registry
/// baseline. serve_load --help and docs_lint_test (every registered
/// backend has a docs/BACKENDS.md section) both enumerate this.
std::vector<std::string> known_backends();

/// True when `name` is a registered backend.
bool backend_known(const std::string& name);

}  // namespace hprng::serve
