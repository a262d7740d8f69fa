#pragma once

// hprng::serve — multi-client RNG-as-a-service over the paper's generators
// (docs/SERVING.md). This header holds the value types shared by the
// queue / lease / backend / service layers: request statuses and the
// service configuration.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace hprng::fault {
class Injector;
}  // namespace hprng::fault

namespace hprng::serve {

/// Terminal state of a request.
enum class Status {
  kOk = 0,    ///< filled; the output span holds the client's next draws
  kRejected,  ///< refused at admission: the request queue was full
  kShed,      ///< admitted, but its deadline passed before a worker
              ///< claimed it (dropped at claim, never served)
  kTimeout,   ///< the waiter's deadline passed while it was still queued
  kClosed,    ///< the service stopped before the request was admitted
  kFailed,    ///< every fill attempt failed and no healthy shard could
              ///< take over the lease (docs/SERVING.md §7)
  // Appended (not inserted): Status values travel on the wire and inside
  // snapshots, so existing numeric values are frozen (docs/NETWORK.md §6).
  kRejectedQuota,  ///< refused at admission by the session's tenant QoS
                   ///< policy — token-bucket rate limit or byte quota
                   ///< exhausted (docs/QOS.md §3)
};

[[nodiscard]] const char* to_string(Status status);

/// Continuous quality scrubbing (docs/QUALITY.md). The scrubber itself is
/// quality::QualityScrubber — a separate library layered on the service —
/// but its knobs live here so one ServiceOptions describes the whole
/// deployment and serve_load / serve_net can wire `--scrub-tier` through
/// without a dependency cycle. Every field is a plain value; the scrubber
/// reads them via RngService::options().scrub.
struct ScrubberOptions {
  /// Master switch — serve_load only constructs a scrubber when set.
  bool enabled = false;

  /// Resting escalation tier: 0 runs only the per-pass smoke statistics;
  /// 1 / 2 additionally run the SmallCrush- / Crush-tier battery on every
  /// pass (docs/QUALITY.md §3). Anomalies escalate above this floor.
  int tier = 0;

  /// Leased substreams scrubbed per pass. Each is a real service lease
  /// drawing through the same queue/backend path as client traffic.
  int streams = 2;

  /// u64 words drawn per stream per pass for the smoke statistics.
  std::uint64_t pass_words = 4096;

  /// Background-mode pacing: fraction of wall time spent scrubbing; after
  /// each pass the scrub thread sleeps pass_time * (1 - duty) / duty, so
  /// foreground fills keep the machine (docs/QUALITY.md §5).
  double duty_cycle = 0.05;

  /// Scales the tier-1/2 battery sample sizes (1.0 = the honest
  /// SmallCrush-equivalent). Tests dial it down for wall-clock; production
  /// keeps 1.0.
  double battery_scale = 1.0;

  /// Consecutive smoke-anomalous passes before escalating to tier 1.
  int escalate_after = 3;

  /// A smoke statistic below this p-value flags its pass as anomalous.
  double smoke_p_lo = 1e-4;

  /// A battery whose KS-over-p p-value falls below this (or that fails
  /// more than a quarter of its statistics) is an anomaly.
  double battery_ks_lo = 1e-4;

  /// Anomaly-history records retained (and checkpointed); oldest dropped.
  std::size_t history_limit = 64;
};

/// Per-tenant QoS policy (docs/QOS.md §2). One policy row answers three
/// questions about a tenant: how much of the pool it deserves when
/// everyone is busy (weight), how fast it may submit (token bucket), and
/// how much it may draw in total (byte quota).
struct TenantPolicy {
  /// Deficit-round-robin weight: each scheduler visit grants the tenant
  /// `drr_quantum_words * weight` words of deficit, so long-run service
  /// shares under saturation are proportional to weight. Must be >= 1.
  std::uint64_t weight = 1;

  /// Token-bucket refill rate in u64 words per second; 0 = unlimited
  /// (no rate gate). Admission takes `out.size()` tokens per request and
  /// refuses with kRejectedQuota when the bucket cannot cover it.
  std::uint64_t rate_words_per_s = 0;

  /// Token-bucket capacity in words — the largest instantaneous burst a
  /// rate-limited tenant may submit. Ignored when rate_words_per_s == 0.
  std::uint64_t burst_words = 1 << 16;

  /// Lifetime byte quota in u64 words; 0 = unlimited. Words are charged
  /// at admission and refunded when the request terminates non-kOk, so at
  /// any quiescent fence the charge equals words actually served
  /// (docs/QOS.md §4).
  std::uint64_t quota_words = 0;
};

/// Multi-tenant QoS configuration (docs/QOS.md). Tenants are u64 ids
/// chosen by clients; unknown ids get `default_policy` on first use.
struct TenantOptions {
  /// Policy applied to any tenant without an explicit override.
  TenantPolicy default_policy;

  /// Per-tenant policy overrides, by tenant id.
  std::map<std::uint64_t, TenantPolicy> overrides;

  /// Base DRR quantum in words: deficit granted per scheduler visit is
  /// quantum * weight. Larger values lower scheduling overhead but
  /// coarsen fairness granularity (docs/QOS.md §5).
  std::uint64_t drr_quantum_words = 1024;

  /// Tenants named in the top-K offender report (stats / serve_load).
  std::size_t top_k = 3;

  [[nodiscard]] const TenantPolicy& policy_for(std::uint64_t tenant) const {
    const auto it = overrides.find(tenant);
    return it == overrides.end() ? default_policy : it->second;
  }
};

/// Service configuration. Defaults serve a sharded hybrid pool sized for
/// the tests and the serve_load bench; production knobs are the queue
/// capacity / worker count pair.
struct ServiceOptions {
  /// Backend kind: "hybrid" (sharded HybridPrng pool, one device walk per
  /// lease), "cpu-walk" (one CpuWalkPrng per lease) or any
  /// prng::make_by_name baseline name ("mt19937", "xorwow", ...).
  std::string backend = "hybrid";

  /// Independent backend shards. Each shard owns its own generator state
  /// (its own simulated device for "hybrid") and disjoint stream slots, so
  /// shards never contend on anything but the request queue.
  int num_shards = 4;

  /// Stream slots per shard — the lease capacity. For the hybrid backend
  /// this is the walk count per device, so total capacity
  /// num_shards * max_leases_per_shard is the "millions of users" dial.
  std::uint64_t max_leases_per_shard = 64;

  /// Worker threads draining the request queue.
  int num_workers = 2;

  /// Bounded MPMC request queue capacity. A request arriving at a full
  /// queue settles kRejected at once; admission never waits.
  std::size_t queue_capacity = 256;

  /// Max requests one worker pops per pass; requests landing on the same
  /// shard coalesce into one batched backend fill.
  std::size_t max_coalesce = 8;

  /// Deadline for requests submitted without an explicit timeout.
  std::chrono::nanoseconds default_timeout = std::chrono::seconds(30);

  /// Root seed. Per-shard and per-client seeds derive from it through
  /// prng::SeedSequence — collision-free by construction.
  std::uint64_t seed = 0x243F6A8885A308D3ull;

  /// Walk length for hybrid / cpu-walk backends. Default 8: the
  /// application operating point (DESIGN.md §5.3) — serving consumers are
  /// applications, not battery inputs; pass 32 for generator-grade streams.
  int walk_len = 8;

  /// Retired; nothing reads it. A compatibility shim for the frozen
  /// perfbench/ driver, which still assigns it.
  bool parallel_kernels = false;

  // -- Failure handling (docs/SERVING.md §7, docs/FAULTS.md) ---------------

  /// Optional fault injector, not owned; must outlive the service. Wired
  /// into every shard's pipeline (transfer/feed sites) and consulted by
  /// the service itself at the shard-dispatch and worker sites.
  fault::Injector* injector = nullptr;

  /// Extra fill attempts per pass after the first fails (bounded retry).
  int max_fill_retries = 3;

  /// Exponential-backoff base and cap between retry attempts, wall-clock
  /// milliseconds. The realised sleep is jittered by a SeedSequence-derived
  /// factor in [0.5, 1.5) so retries across workers decorrelate while the
  /// jitter stream itself stays seed-reproducible.
  double retry_backoff_base_ms = 0.2;
  double retry_backoff_max_ms = 5.0;

  /// Consecutive failed fill passes (post-retry) after which a shard is
  /// ejected: its leases fail over to surviving shards and it receives no
  /// further traffic. Any pass success resets the count (degraded state).
  int shard_eject_failures = 3;

  // -- Continuous quality scrubbing (docs/QUALITY.md) ----------------------

  /// Knobs for the attached quality::QualityScrubber, if any. Deliberately
  /// NOT part of the snapshot OPTS section: scrub state travels in its own
  /// QUAL section, and a restore may legitimately change the scrub policy.
  ScrubberOptions scrub;

  // -- Multi-tenant QoS (docs/QOS.md) --------------------------------------

  /// Tenant admission / fairness policies. Like `scrub`, NOT part of the
  /// OPTS snapshot section: tenant state (policies in force, bucket
  /// levels, quota charges) travels in its own TENQ section, so old
  /// snapshots restore with default tenancy and a restore may tighten or
  /// relax policy (docs/QOS.md §6).
  TenantOptions tenants;
};

}  // namespace hprng::serve
