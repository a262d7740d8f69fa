// Serving-layer load bench (docs/SERVING.md §6): a closed-loop population
// of client threads hammers an RngService — each client leases a substream
// and issues back-to-back fill requests — while the `hprng.serve.*`
// instruments report queue behaviour and latency. The acceptance run
// sustains >= 32 clients against a sharded hybrid pool and reports p50/p99
// request latency plus rejected/shed counts straight from the registry.
//
// Flags: --clients --requests --n (words per request) --shards --slots
//        --workers --capacity (a full queue rejects) --coalesce
//        --timeout-ms --backend=NAME (serve registry, docs/BACKENDS.md) --seed
//        --inflight=K  async requests each client keeps outstanding
//                      (K >= 2 queues one session's requests back to back:
//                      a worker coalescing them serves one pass each, in
//                      order)
//        --metrics-json=<path>
//        --bench-json=<path>  flat perf summary (BENCH_serve.json in CI)
//        --fault-plan=<plan>  deterministic chaos run (docs/FAULTS.md §3),
//                             e.g. --fault-plan="shard:1:fail:0:1000000"
//        --checkpoint-every=MS  periodic snapshots while the load runs
//                               (docs/STATE.md §6; a final checkpoint is
//                               taken after the run so the file is usable
//                               with --restore-from)
//        --checkpoint-path=<path>  snapshot destination
//                                  (default serve-checkpoint.snap)
//        --restore-from=<path>  build the service from a snapshot instead
//                               of fresh options: restored leases are
//                               adopted first, extra clients lease fresh
//                               slots; service-shape flags are ignored
//
// Tenancy (docs/QOS.md §8): a heavy-tail tenant population over the same
// client threads — client c maps to tenant 1..N by the inverse Zipf CDF,
// deterministically, so the same flags always produce the same placement.
//        --tenants=N       tenant population size (default 1: everything
//                          rides tenant 0, the pre-QoS behaviour)
//        --tenant-skew=S   Zipf exponent for the client→tenant map
//                          (default 1.0; bigger = heavier head)
//        --scenario=NAME   steady | flash-crowd | slow-leak. flash-crowd
//                          rate-caps the Zipf-head tenant while its
//                          clients flood; slow-leak gives it a small byte
//                          quota and a trickling arrival pattern, so the
//                          quota exhausts mid-run. Both must leave the
//                          compliant tenants' service intact — the
//                          fairness property the qos-fairness CI job and
//                          serve_qos_chaos_test pin.
//        --tenant-json=PATH  per-tenant results JSON (the CI fairness
//                          artifact: per-tenant counters, latency
//                          quantiles and the top-K offender report)
//        --help  print the flag listing and exit
//
// Wire mode (docs/NETWORK.md): with --listen or --connect the same load
// shapes run through net::NetClient instead of in-process Sessions —
// every fill crosses the frame protocol, so this is the harness that
// produces BENCH_net.json and drives the multi-process rolling-restart
// demo against a serve_net process.
//        --listen=EP    host a NetServer in-process and aim the clients
//                       at it (self-contained wire bench)
//        --connect=EP   aim the clients at an external server (serve_net)
//        --inflight=K   fills each client keeps pipelined on its
//                       connection; K = 1 in the closed loop issues
//                       synchronous fills, the only ones that reconnect
//                       and retry on their own (the restart demo's path)
//        --open-loop    Poisson arrivals instead of the closed loop:
//                       --rate=R total requests/second, split across
//                       clients, gaps drawn from a deterministic
//                       per-client exponential stream (same --seed =
//                       same arrival schedule)
//        --keep-leases  do not release leases at the end: the server
//                       parks them as orphans, so a serve_net shutdown
//                       checkpoint carries them and a --restore-from
//                       successor offers them for re-adoption
//        --adopt        adopt the server's adoptable leases first (the
//                       second half of the restart demo)
//        --max-pending-fills=N   in-process server shape

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "fault/fault.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "quality/quality.hpp"
#include "serve/backend.hpp"
#include "serve/service.hpp"
#include "simd/simd.hpp"
#include "state/checkpointer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hprng;

namespace {

// The --backend flag accepts exactly the names in the serve registry
// (docs/BACKENDS.md §1), so the help text is built from it rather than
// hard-coding a list that would drift as backends are added.
std::string backend_values() {
  std::string out;
  for (const std::string& name : serve::known_backends()) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

void print_help() {
  std::printf(
      "serve_load — closed-loop multi-client serving bench\n\n"
      "usage: serve_load [--flag=value ...]\n\n"
      "load shape:\n"
      "  --clients=N         client threads (default 32)\n"
      "  --requests=N        requests per client (default 64)\n"
      "  --n=WORDS           words per request (default 256)\n"
      "  --inflight=K        async requests outstanding per client\n"
      "service shape (ignored with --restore-from):\n"
      "  --backend=NAME      one of: %s\n"
      "                      (default hybrid; see docs/BACKENDS.md)\n",
      backend_values().c_str());
  std::printf(
      "  --shards=N --slots=N --workers=N --capacity=N --coalesce=N\n"
      "  --walk-len=N        expander walk length for the walk backends\n"
      "                      (default 8 for throughput; 32 is the\n"
      "                      battery-certified quality configuration)\n"
      "  --timeout-ms=MS --seed=S\n"
      "wire mode (docs/NETWORK.md):\n"
      "  --listen=EP         host a NetServer in-process; clients use the\n"
      "                      frame protocol (unix:PATH | tcp:HOST:PORT)\n"
      "  --connect=EP        drive an external server (serve_net)\n"
      "  --open-loop --rate=R  Poisson arrivals, R total req/s\n"
      "  --keep-leases       leave leases live (orphaned) on exit\n"
      "  --adopt             adopt the server's adoptable leases first\n"
      "  --max-pending-fills=N  in-process server shape\n"
      "tenancy (docs/QOS.md):\n"
      "  --tenants=N         tenant population (default 1 = tenant 0 only)\n"
      "  --tenant-skew=S     Zipf exponent for client placement (default 1)\n"
      "  --scenario=NAME     steady|flash-crowd|slow-leak (docs/QOS.md §8)\n"
      "  --tenant-json=PATH  per-tenant fairness report (CI artifact)\n"
      "faults (docs/FAULTS.md):\n"
      "  --fault-plan=PLAN   e.g. shard:1:fail:0:1000000\n"
      "checkpoint/restore (docs/STATE.md):\n"
      "  --checkpoint-every=MS   periodic snapshots during the run\n"
      "  --checkpoint-path=PATH  default serve-checkpoint.snap\n"
      "  --restore-from=PATH     rebuild the service from a snapshot\n"
      "quality scrubbing (docs/QUALITY.md; local mode only):\n"
      "  --scrub-tier=T          attach a QualityScrubber at resting tier T\n"
      "                          (0|1|2); it scrubs in the background while\n"
      "                          the load runs, then finishes with\n"
      "                          --scrub-passes synchronous passes\n"
      "  --scrub-passes=N        post-load deterministic passes (default 4)\n"
      "  --scrub-streams=N       scrubbed leases (default 2)\n"
      "  --scrub-scale=F         battery sample-size multiplier (default 1)\n"
      "  --quality-json=PATH     write the machine-readable QualityReport\n"
      "execution (docs/PERFORMANCE.md §6):\n"
      "  --simd=K            force the serve-fill SIMD kernel\n"
      "                      (scalar|avx2|neon; default: hardware probe,\n"
      "                      overridable via env HPRNG_SIMD)\n"
      "output:\n"
      "  --metrics-json=PATH --bench-json=PATH\n"
      "  --help              this listing\n");
}

// ---------------------------------------------------------------------------
// Tenancy (docs/QOS.md §8).

enum class Scenario { kSteady, kFlashCrowd, kSlowLeak };

bool parse_scenario(const std::string& name, Scenario* out) {
  if (name.empty() || name == "steady") *out = Scenario::kSteady;
  else if (name == "flash-crowd") *out = Scenario::kFlashCrowd;
  else if (name == "slow-leak") *out = Scenario::kSlowLeak;
  else return false;
  return true;
}

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kSteady: return "steady";
    case Scenario::kFlashCrowd: return "flash-crowd";
    case Scenario::kSlowLeak: return "slow-leak";
  }
  return "?";
}

// The scenarios' misbehaving tenant is always the Zipf head — the tenant
// that naturally carries the most clients, so its misbehaviour is the
// worst case for the compliant tail.
constexpr std::uint64_t kNoisyTenant = 1;

// Deterministic heavy-tail client→tenant placement: tenant k in [1, N]
// carries Zipf(skew) mass 1/k^skew and client c lands by inverse CDF at
// (c + 0.5) / clients. No RNG: same flags, same placement, so fairness
// runs replay exactly. N <= 1 keeps everything on tenant 0 (pre-QoS).
std::vector<std::uint64_t> assign_tenants(int clients, int tenants,
                                          double skew) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(clients), 0);
  if (tenants <= 1) return out;
  std::vector<double> cdf(static_cast<std::size_t>(tenants));
  double total = 0.0;
  for (int k = 0; k < tenants; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), skew);
    cdf[static_cast<std::size_t>(k)] = total;
  }
  for (int c = 0; c < clients; ++c) {
    const double u =
        (static_cast<double>(c) + 0.5) / static_cast<double>(clients) * total;
    std::uint64_t tenant = static_cast<std::uint64_t>(tenants);
    for (int k = 0; k < tenants; ++k) {
      if (u <= cdf[static_cast<std::size_t>(k)]) {
        tenant = static_cast<std::uint64_t>(k + 1);
        break;
      }
    }
    out[static_cast<std::size_t>(c)] = tenant;
  }
  return out;
}

// Per-tenant client-side tallies, merged across the tenant's clients
// after the threads join (each client writes only its own slot).
struct TenantTally {
  std::uint64_t clients = 0;
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected_quota = 0;  ///< kRejectedQuota statuses observed
  std::vector<double> lats;          ///< client-side seconds, unsorted
};

double tally_quantile(std::vector<double>& lats, double q) {
  if (lats.empty()) return 0.0;
  std::sort(lats.begin(), lats.end());
  const std::size_t i = static_cast<std::size_t>(
      q * static_cast<double>(lats.size() - 1));
  return lats[i];
}

// Scenario policy overrides for the noisy tenant. `noisy_offered_words`
// is that tenant's total offered load (its clients x requests x words) —
// the slow-leak quota is sized at half of it so exhaustion is guaranteed
// mid-run whatever the flag values.
void apply_scenario(Scenario scenario, std::size_t words,
                    std::uint64_t noisy_offered_words,
                    serve::TenantOptions* tenants) {
  serve::TenantPolicy p = tenants->default_policy;
  switch (scenario) {
    case Scenario::kSteady:
      return;
    case Scenario::kFlashCrowd:
      // Rate-cap the flooding tenant at ~128 requests/s worth of words
      // with a 16-request burst: its closed-loop flood runs orders of
      // magnitude hotter, so the bucket rejects the excess while the
      // compliant tenants (unlimited) proceed.
      p.rate_words_per_s = static_cast<std::uint64_t>(words) * 128;
      p.burst_words = static_cast<std::uint64_t>(words) * 16;
      break;
    case Scenario::kSlowLeak:
      // A lifetime byte quota half the tenant's offered load: the trickle
      // admits normally until the budget runs dry, then every further
      // request lands kRejectedQuota.
      p.quota_words = std::max<std::uint64_t>(words, noisy_offered_words / 2);
      break;
  }
  tenants->overrides[kNoisyTenant] = p;
}

// The per-tenant fairness artifact (--tenant-json): engine-side counters
// from TenantTable joined with the client-side latency quantiles, plus
// the top-K offender report — the file the qos-fairness CI job asserts
// against.
void write_tenant_json(const std::string& path, Scenario scenario,
                       const std::vector<serve::TenantTable::TenantStats>& ts,
                       std::map<std::uint64_t, TenantTally>& tallies,
                       const std::vector<serve::TenantTable::TenantStats>&
                           offenders) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"scenario\": \"%s\",\n  \"noisy_tenant\": %llu,\n",
               scenario_name(scenario),
               static_cast<unsigned long long>(kNoisyTenant));
  std::fprintf(f, "  \"tenants\": [\n");
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const auto& s = ts[i];
    TenantTally& c = tallies[s.tenant];
    const std::uint64_t seen = c.ok + c.failed;
    std::fprintf(
        f,
        "    {\"tenant\": %llu, \"clients\": %llu, \"submitted\": %llu, "
        "\"ok\": %llu, \"failed\": %llu, \"rejected_rate\": %llu, "
        "\"rejected_quota\": %llu, \"words_charged\": %llu, "
        "\"words_refunded\": %llu, \"quota_used\": %llu, "
        "\"success_rate\": %.6f, \"latency_p50_s\": %.9f, "
        "\"latency_p99_s\": %.9f}%s\n",
        static_cast<unsigned long long>(s.tenant),
        static_cast<unsigned long long>(c.clients),
        static_cast<unsigned long long>(s.submitted),
        static_cast<unsigned long long>(c.ok),
        static_cast<unsigned long long>(c.failed),
        static_cast<unsigned long long>(s.rejected_rate),
        static_cast<unsigned long long>(s.rejected_quota),
        static_cast<unsigned long long>(s.words_charged),
        static_cast<unsigned long long>(s.words_refunded),
        static_cast<unsigned long long>(s.quota_used),
        seen > 0 ? static_cast<double>(c.ok) / static_cast<double>(seen) : 0.0,
        tally_quantile(c.lats, 0.5), tally_quantile(c.lats, 0.99),
        i + 1 < ts.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"top_offenders\": [");
  for (std::size_t i = 0; i < offenders.size(); ++i) {
    std::fprintf(f, "%s%llu", i > 0 ? ", " : "",
                 static_cast<unsigned long long>(offenders[i].tenant));
  }
  std::fprintf(f, "]\n}\n");
  std::fclose(f);
  std::printf("tenant report: %s\n", path.c_str());
}

// Apply --simd=K (or leave the HPRNG_SIMD / hardware-probe dispatch
// alone). Returns false — after printing why — when the name is unknown
// or the kernel is not runnable on this build/machine.
bool apply_simd_flag(const util::Cli& cli) {
  const std::string name = cli.get_string("simd", "");
  if (name.empty()) return true;
  simd::Kernel k = simd::Kernel::kScalar;
  if (!simd::parse_kernel(name, &k)) {
    std::fprintf(stderr, "--simd=%s: unknown kernel (want scalar|avx2|neon)\n",
                 name.c_str());
    return false;
  }
  if (!simd::force_kernel(k)) {
    std::fprintf(stderr, "--simd=%s: not supported on this build/machine\n",
                 name.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Wire mode: the same client population, but every fill crosses the frame
// protocol through a net::NetClient — against an in-process NetServer
// (--listen) or an external serve_net (--connect). Latency is measured
// client-side (steady_clock around each request) and reported as sorted-
// vector quantiles, since the server's histograms only see its half of
// the round trip.
int run_wire(const util::Cli& cli) {
  const int clients = static_cast<int>(cli.get_u64("clients", 8));
  const int requests = static_cast<int>(cli.get_u64("requests", 64));
  const std::size_t words = cli.get_u64("n", 256);
  const int inflight =
      static_cast<int>(std::max<std::uint64_t>(1, cli.get_u64("inflight", 1)));
  const bool open_loop = cli.has("open-loop");
  const double rate = cli.get_double("rate", 256.0);  // total req/s
  const bool keep_leases = cli.has("keep-leases");
  const bool adopt = cli.has("adopt");
  const std::uint64_t seed = cli.get_u64("seed", 0x243F6A8885A308D3ull);
  std::string connect_ep = cli.get_string("connect", "");
  const std::string listen_ep = cli.get_string("listen", "");
  const bool in_process = connect_ep.empty();

  Scenario scenario = Scenario::kSteady;
  if (!parse_scenario(cli.get_string("scenario", ""), &scenario)) {
    std::fprintf(stderr, "unknown --scenario=%s (steady|flash-crowd|"
                         "slow-leak)\n",
                 cli.get_string("scenario", "").c_str());
    return 2;
  }
  const int tenants_n = static_cast<int>(cli.get_u64(
      "tenants", scenario == Scenario::kSteady ? 1 : 4));
  const double tenant_skew = cli.get_double("tenant-skew", 1.0);
  const std::vector<std::uint64_t> tenant_of =
      assign_tenants(clients, tenants_n, tenant_skew);
  std::uint64_t noisy_offered_words = 0;
  for (const std::uint64_t t : tenant_of) {
    if (t == kNoisyTenant) {
      noisy_offered_words += static_cast<std::uint64_t>(requests) * words;
    }
  }

  obs::MetricsRegistry metrics;

  std::optional<fault::FaultPlan> plan;
  std::optional<fault::Injector> injector;
  const std::string plan_text = cli.get_string("fault-plan", "");
  if (!plan_text.empty()) {
    plan = fault::FaultPlan::parse(plan_text);
    if (!plan.has_value()) {
      std::fprintf(stderr, "bad --fault-plan=%s (see docs/FAULTS.md)\n",
                   plan_text.c_str());
      return 2;
    }
    injector.emplace(*plan);
  }

  // --listen: the server half lives in this process (still a real socket
  // round trip — the wire cost is what this mode measures).
  std::unique_ptr<serve::RngService> service;
  std::unique_ptr<net::NetServer> server;
  if (in_process) {
    if (cli.has("completers")) {
      // Removed flag: fail loudly rather than silently run another shape.
      std::fprintf(stderr, "--completers was removed: the server replies "
                           "from its one loop thread\n");
      return 2;
    }
    serve::ServiceOptions opts;
    opts.backend = cli.get_string("backend", "hybrid");
    if (!serve::backend_known(opts.backend)) {
      std::fprintf(stderr, "unknown --backend=%s (one of: %s)\n",
                   opts.backend.c_str(), backend_values().c_str());
      return 2;
    }
    opts.num_shards = static_cast<int>(cli.get_u64("shards", 4));
    opts.max_leases_per_shard = cli.get_u64(
        "slots", (static_cast<std::uint64_t>(clients) +
                  static_cast<std::uint64_t>(opts.num_shards) - 1) /
                     static_cast<std::uint64_t>(opts.num_shards));
    opts.num_workers = static_cast<int>(cli.get_u64("workers", 4));
    opts.queue_capacity = cli.get_u64("capacity", 256);
    opts.max_coalesce = cli.get_u64("coalesce", 8);
    opts.walk_len = static_cast<int>(
        cli.get_u64("walk-len", static_cast<std::uint64_t>(opts.walk_len)));
    opts.seed = seed;
    opts.default_timeout =
        std::chrono::milliseconds(cli.get_u64("timeout-ms", 30000));
    opts.injector = injector.has_value() ? &*injector : nullptr;
    apply_scenario(scenario, words, noisy_offered_words, &opts.tenants);
    service = std::make_unique<serve::RngService>(opts, &metrics);

    net::ServerOptions sopts;
    sopts.listen = {listen_ep};
    sopts.max_pending_fills = cli.get_u64("max-pending-fills", 64);
    sopts.injector = opts.injector;
    server = std::make_unique<net::NetServer>(*service, sopts, &metrics);
    if (!server->ok()) {
      std::fprintf(stderr, "cannot listen on %s: %s\n", listen_ep.c_str(),
                   server->error().c_str());
      return 2;
    }
    connect_ep = server->endpoints().front();
  }

  bench::banner(
      "serve_load — wire-mode serving bench (docs/NETWORK.md)",
      "RNG-as-a-service holds its serving contract when every fill "
      "crosses a socket: leases, backpressure and adoption are protocol "
      "messages",
      util::strf("%d clients x %d requests x %zu words over %s (%s, %s "
                 "loop%s)",
                 clients, requests, words, connect_ep.c_str(),
                 in_process ? "in-process server" : "external server",
                 open_loop ? "open" : "closed",
                 open_loop
                     ? util::strf(", %.0f req/s Poisson", rate).c_str()
                     : "")
          .c_str());
  if (plan.has_value()) {
    std::printf("fault plan: %s\n\n", plan->to_string().c_str());
  }

  net::ClientOptions copts;
  copts.endpoint = connect_ep;
  copts.metrics = &metrics;
  copts.timeout = std::chrono::milliseconds(cli.get_u64("timeout-ms", 30000));

  // --adopt: the restart-demo second half — claim the restored generation's
  // leases before opening any fresh ones.
  std::vector<std::uint64_t> adoptable;
  {
    net::ClientOptions bopts = copts;
    bopts.name = "serve_load-bootstrap";
    net::NetClient bootstrap(bopts);
    std::string err;
    if (!bootstrap.connect(&err)) {
      std::fprintf(stderr, "cannot reach %s: %s\n", connect_ep.c_str(),
                   err.c_str());
      return 2;
    }
    if (adopt) adoptable = bootstrap.adoptables(&err);
  }

  std::atomic<std::uint64_t> ok{0}, failed{0};
  std::atomic<std::uint64_t> reconnects{0}, adoptions{0};
  std::vector<std::vector<double>> lat_per_client(
      static_cast<std::size_t>(clients));
  std::atomic<bool> setup_failed{false};

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::ClientOptions my = copts;
      my.name = util::strf("serve_load#%d", c);
      my.tenant = tenant_of[static_cast<std::size_t>(c)];
      net::NetClient client(my);
      std::string err;
      std::uint64_t lease_id = 0;
      if (static_cast<std::size_t>(c) < adoptable.size()) {
        lease_id = adoptable[static_cast<std::size_t>(c)];
        if (!client.adopt(lease_id, &err)) {
          std::fprintf(stderr, "client %d: adopt(%llu) failed: %s\n", c,
                       static_cast<unsigned long long>(lease_id), err.c_str());
          setup_failed.store(true);
          return;
        }
      } else {
        const auto fresh = client.lease(&err);
        if (!fresh.has_value()) {
          std::fprintf(stderr, "client %d: lease failed: %s\n", c,
                       err.c_str());
          setup_failed.store(true);
          return;
        }
        lease_id = *fresh;
      }

      std::vector<double>& lats = lat_per_client[static_cast<std::size_t>(c)];
      lats.reserve(static_cast<std::size_t>(requests));
      const auto tally = [&](serve::Status st,
                             std::chrono::steady_clock::time_point t0) {
        if (st == serve::Status::kOk) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
        lats.push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
      };

      if (!open_loop && inflight == 1) {
        // Closed loop, one fill at a time: back-to-back synchronous fills
        // (transparent reconnect + retry — the restart-riding path).
        std::vector<std::uint64_t> buf(words);
        for (int r = 0; r < requests; ++r) {
          const auto t0 = std::chrono::steady_clock::now();
          tally(client.fill(lease_id, buf, &err), t0);
        }
      } else {
        // Up to `inflight` fills pipelined on the wire. Closed loop: a
        // fill is submitted as soon as the window has room, and latency
        // runs from its submit. Open loop: arrivals are a deterministic
        // Poisson process — a per-client exponential-gap stream at
        // rate/clients req/s — that submits without waiting for earlier
        // replies; latency runs from the scheduled arrival, so client-side
        // queueing counts, as open-loop convention demands.
        std::mt19937_64 rng(seed ^
                            (0x9E3779B97F4A7C15ull *
                             (static_cast<std::uint64_t>(c) + 1)));
        std::exponential_distribution<double> gap(
            rate / static_cast<double>(clients));
        struct InFlight {
          std::uint64_t request_id;
          std::chrono::steady_clock::time_point start;
          std::size_t buf_index;
        };
        std::vector<std::vector<std::uint64_t>> bufs(
            static_cast<std::size_t>(inflight),
            std::vector<std::uint64_t>(words));
        std::deque<InFlight> window;
        const auto settle_front = [&] {
          const InFlight f = window.front();
          window.pop_front();
          const serve::Status st =
              client.fill_wait(f.request_id, bufs[f.buf_index], &err);
          tally(st, f.start);
        };
        auto next_arrival = std::chrono::steady_clock::now();
        for (int r = 0; r < requests; ++r) {
          if (open_loop) {
            next_arrival += std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(gap(rng)));
            std::this_thread::sleep_until(next_arrival);
          }
          if (window.size() == static_cast<std::size_t>(inflight)) {
            settle_front();
          }
          const auto start =
              open_loop ? next_arrival : std::chrono::steady_clock::now();
          const std::uint64_t id = client.fill_submit(
              lease_id, static_cast<std::uint32_t>(words));
          if (id == 0) {
            failed.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          window.push_back({id, start,
                            static_cast<std::size_t>(r % inflight)});
        }
        while (!window.empty()) settle_front();
      }

      if (!keep_leases) client.release(lease_id, &err);
      reconnects.fetch_add(client.stats().reconnects,
                           std::memory_order_relaxed);
      adoptions.fetch_add(client.stats().adoptions,
                          std::memory_order_relaxed);
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Server-side view at the quiescent fence: protocol stats over the wire
  // (works for both modes), wire-layer stats directly when in-process.
  net::NetStats sstats;
  bool have_sstats = false;
  {
    net::ClientOptions bopts = copts;
    bopts.name = "serve_load-stat";
    net::NetClient bootstrap(bopts);
    std::string err;
    const auto s = bootstrap.stat(&err);
    if (s.has_value()) {
      sstats = *s;
      have_sstats = true;
    }
  }

  std::vector<double> lats;
  for (const auto& v : lat_per_client) lats.insert(lats.end(), v.begin(),
                                                   v.end());
  std::sort(lats.begin(), lats.end());
  const auto quantile = [&](double q) {
    if (lats.empty()) return 0.0;
    const std::size_t i = static_cast<std::size_t>(
        q * static_cast<double>(lats.size() - 1));
    return lats[i];
  };
  const double lat_p50 = quantile(0.5), lat_p99 = quantile(0.99);
  const double lat_max = lats.empty() ? 0.0 : lats.back();

  const std::uint64_t total =
      static_cast<std::uint64_t>(clients) *
      static_cast<std::uint64_t>(requests);
  util::Table t({"metric", "value"});
  t.add_row({"requests issued",
             util::strf("%llu", static_cast<unsigned long long>(total))});
  t.add_row({"served ok",
             util::strf("%llu", static_cast<unsigned long long>(ok.load()))});
  t.add_row({"failed", util::strf("%llu", static_cast<unsigned long long>(
                                              failed.load()))});
  t.add_row({"client reconnects",
             util::strf("%llu",
                        static_cast<unsigned long long>(reconnects.load()))});
  if (adopt) {
    t.add_row({"adopted leases",
               util::strf("%llu",
                          static_cast<unsigned long long>(adoptions.load()))});
  }
  if (have_sstats) {
    t.add_row({"server numbers served",
               util::strf("%llu", static_cast<unsigned long long>(
                                      sstats.numbers_served))});
    t.add_row({"server active leases",
               util::strf("%llu", static_cast<unsigned long long>(
                                      sstats.active_leases))});
    t.add_row({"server adoptable leases",
               util::strf("%llu",
                          static_cast<unsigned long long>(sstats.adoptable))});
    if (tenants_n > 1) {
      t.add_row({"server rejected (quota/rate)",
                 util::strf("%llu", static_cast<unsigned long long>(
                                        sstats.rejected_quota))});
    }
  }
  t.add_row({"wall time (ms)", bench::ms(wall_seconds)});
  if (wall_seconds > 0.0) {
    t.add_row({"throughput (req/s)",
               util::strf("%.0f",
                          static_cast<double>(ok.load()) / wall_seconds)});
    t.add_row({"throughput (Mwords/s)",
               util::strf("%.2f", static_cast<double>(ok.load()) *
                                      static_cast<double>(words) /
                                      wall_seconds / 1e6)});
  }
  t.add_row({"latency p50 (ms)", bench::ms(lat_p50)});
  t.add_row({"latency p99 (ms)", bench::ms(lat_p99)});
  t.add_row({"latency max (ms)", bench::ms(lat_max)});
  std::printf("%s", t.to_string().c_str());

  net::NetServer::Stats wire{};
  if (server != nullptr) {
    wire = server->stats();
    std::printf("\nwire: frames_rx=%llu frames_tx=%llu bytes_rx=%llu "
                "bytes_tx=%llu frame_errors=%llu fills_rejected=%llu\n",
                static_cast<unsigned long long>(wire.frames_rx),
                static_cast<unsigned long long>(wire.frames_tx),
                static_cast<unsigned long long>(wire.bytes_rx),
                static_cast<unsigned long long>(wire.bytes_tx),
                static_cast<unsigned long long>(wire.frame_errors),
                static_cast<unsigned long long>(wire.fills_rejected));
  }

  bench::export_metrics_json(cli, metrics);
  {
    // BENCH_net.json: the wire-serving perf artifact (docs/PERFORMANCE.md;
    // baseline snapshot in bench/baselines/).
    bench::BenchJson json;
    json.add("bench", std::string("serve_load_net"));
    json.add("mode", std::string(in_process ? "listen" : "connect"));
    json.add("simd_kernel", std::string(simd::kernel_name()));
    json.add("simd_lanes", static_cast<double>(simd::lane_width_u32()));
    json.add("loop", std::string(open_loop ? "open" : "closed"));
    json.add("endpoint", connect_ep);
    json.add("clients", static_cast<double>(clients));
    json.add("requests_per_client", static_cast<double>(requests));
    json.add("words_per_request", static_cast<double>(words));
    json.add("inflight", static_cast<double>(inflight));
    json.add("open_loop_rate", open_loop ? rate : 0.0);
    json.add("wall_seconds", wall_seconds);
    json.add("requests_ok", static_cast<double>(ok.load()));
    json.add("requests_failed", static_cast<double>(failed.load()));
    json.add("client_reconnects", static_cast<double>(reconnects.load()));
    json.add("wall_req_per_s",
             wall_seconds > 0.0
                 ? static_cast<double>(ok.load()) / wall_seconds
                 : 0.0);
    json.add("wall_words_per_s",
             wall_seconds > 0.0
                 ? static_cast<double>(ok.load()) *
                       static_cast<double>(words) / wall_seconds
                 : 0.0);
    json.add("latency_p50_s", lat_p50);
    json.add("latency_p99_s", lat_p99);
    json.add("latency_max_s", lat_max);
    json.add("frames_rx", static_cast<double>(wire.frames_rx));
    json.add("frames_tx", static_cast<double>(wire.frames_tx));
    json.add("frame_errors", static_cast<double>(wire.frame_errors));
    bench::export_bench_json(cli, json);
  }
  if (!bench::reject_unread_flags(cli)) return 2;

  // Shape: without an injected fault plan (or a scenario that rejects by
  // design), every request must land kOk; leases reclaim (or deliberately
  // persist with --keep-leases).
  const bool clean_requests =
      plan.has_value() || scenario != Scenario::kSteady
          ? ok.load() > 0
          : failed.load() == 0 && ok.load() > 0;
  const bool leases_accounted =
      !have_sstats ||
      (keep_leases ? sstats.active_leases + sstats.adoptable >= 1
                   : sstats.active_leases == 0);
  const bool shape = !setup_failed.load() && clean_requests &&
                     leases_accounted;
  bench::verdict(shape,
                 "wire fills land kOk end-to-end and leases are accounted "
                 "for (released, or parked for adoption)");
  if (server != nullptr) server->stop();
  return shape ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (cli.has("help")) {
    print_help();
    return 0;
  }
  if (!apply_simd_flag(cli)) return 2;
  // Wire mode is a separate harness: socket clients, client-side latency.
  if (cli.has("listen") || cli.has("connect")) return run_wire(cli);
  const int clients = static_cast<int>(cli.get_u64("clients", 32));
  const int requests = static_cast<int>(cli.get_u64("requests", 64));
  const std::size_t words = cli.get_u64("n", 256);
  const int inflight =
      static_cast<int>(std::max<std::uint64_t>(1, cli.get_u64("inflight", 1)));
  const bool open_loop = cli.has("open-loop");
  const double rate = cli.get_double("rate", 256.0);  // total req/s

  // Tenancy (docs/QOS.md §8): deterministic Zipf client placement plus
  // the scenario's policy override for the noisy (Zipf-head) tenant.
  Scenario scenario = Scenario::kSteady;
  if (!parse_scenario(cli.get_string("scenario", ""), &scenario)) {
    std::fprintf(stderr, "unknown --scenario=%s (steady|flash-crowd|"
                         "slow-leak)\n",
                 cli.get_string("scenario", "").c_str());
    return 2;
  }
  const int tenants_n = static_cast<int>(cli.get_u64(
      "tenants", scenario == Scenario::kSteady ? 1 : 4));
  const double tenant_skew = cli.get_double("tenant-skew", 1.0);
  std::vector<std::uint64_t> tenant_of =
      assign_tenants(clients, tenants_n, tenant_skew);
  std::uint64_t noisy_offered_words = 0;
  for (const std::uint64_t t : tenant_of) {
    if (t == kNoisyTenant) {
      noisy_offered_words += static_cast<std::uint64_t>(requests) * words;
    }
  }

  serve::ServiceOptions opts;
  opts.backend = cli.get_string("backend", "hybrid");
  if (!serve::backend_known(opts.backend)) {
    std::fprintf(stderr, "unknown --backend=%s (one of: %s)\n",
                 opts.backend.c_str(), backend_values().c_str());
    return 2;
  }
  if (cli.has("scrub-workers")) {
    // Removed flag: fail loudly rather than silently run another shape.
    std::fprintf(stderr, "--scrub-workers was removed: smoke draws run in "
                         "stream order on the scrub thread\n");
    return 2;
  }
  // Quality scrubbing (docs/QUALITY.md §5): the scrubber's leases ride the
  // same pool as the clients', so the default slot count covers them too.
  const bool scrub_enabled = cli.has("scrub-tier");
  const int scrub_streams = static_cast<int>(cli.get_u64("scrub-streams", 2));
  const int scrub_passes = static_cast<int>(cli.get_u64("scrub-passes", 4));
  if (scrub_enabled) {
    opts.scrub.enabled = true;
    opts.scrub.tier = static_cast<int>(cli.get_u64("scrub-tier", 0));
    opts.scrub.streams = scrub_streams;
    opts.scrub.battery_scale = cli.get_double("scrub-scale", 1.0);
  }
  const std::uint64_t lease_demand =
      static_cast<std::uint64_t>(clients) +
      static_cast<std::uint64_t>(scrub_enabled ? scrub_streams : 0);
  opts.num_shards = static_cast<int>(cli.get_u64("shards", 4));
  opts.max_leases_per_shard =
      cli.get_u64("slots", (lease_demand +
                            static_cast<std::uint64_t>(opts.num_shards) - 1) /
                               static_cast<std::uint64_t>(opts.num_shards));
  opts.num_workers = static_cast<int>(cli.get_u64("workers", 4));
  opts.queue_capacity = cli.get_u64("capacity", 256);
  opts.max_coalesce = cli.get_u64("coalesce", 8);
  // The serving default (walk_len 8) trades battery quality for fill
  // throughput; the quality-certified configuration is 32 (Table III,
  // docs/QUALITY.md §3) — the scrub CI job passes --walk-len=32.
  opts.walk_len = static_cast<int>(
      cli.get_u64("walk-len", static_cast<std::uint64_t>(opts.walk_len)));
  opts.seed = cli.get_u64("seed", 0x243F6A8885A308D3ull);
  opts.default_timeout =
      std::chrono::milliseconds(cli.get_u64("timeout-ms", 30000));
  apply_scenario(scenario, words, noisy_offered_words, &opts.tenants);

  // Optional deterministic chaos: parse the plan text and wire the injector
  // into every shard's pipeline plus the service's dispatch/worker sites.
  const std::string plan_text = cli.get_string("fault-plan", "");
  std::optional<fault::FaultPlan> plan;
  std::optional<fault::Injector> injector;
  if (!plan_text.empty()) {
    plan = fault::FaultPlan::parse(plan_text);
    if (!plan.has_value()) {
      std::fprintf(stderr, "bad --fault-plan=%s (see docs/FAULTS.md)\n",
                   plan_text.c_str());
      return 2;
    }
    injector.emplace(*plan);
    opts.injector = &*injector;
  }

  bench::banner(
      "serve_load — closed-loop multi-client serving",
      "the on-demand generator serves many small consumers by coalescing "
      "their requests into batched pipeline rounds",
      util::strf("%d clients x %d requests x %zu words (%d in flight), "
                 "%d %s shards, %d workers, queue %zu",
                 clients, requests, words, inflight, opts.num_shards,
                 opts.backend.c_str(), opts.num_workers, opts.queue_capacity)
          .c_str());
  if (tenants_n > 1 || scenario != Scenario::kSteady) {
    std::printf("tenancy: %d tenants, zipf skew %.2f, scenario %s "
                "(noisy tenant %llu), %s loop%s\n\n",
                tenants_n, tenant_skew, scenario_name(scenario),
                static_cast<unsigned long long>(kNoisyTenant),
                open_loop ? "open" : "closed",
                open_loop ? util::strf(", %.0f req/s Poisson", rate).c_str()
                          : "");
  }
  if (plan.has_value()) {
    std::printf("fault plan: %s\n\n", plan->to_string().c_str());
  }

  // Checkpoint/restore wiring (docs/STATE.md).
  const std::string restore_from = cli.get_string("restore-from", "");
  const std::uint64_t checkpoint_every_ms = cli.get_u64("checkpoint-every", 0);
  const std::string checkpoint_path =
      cli.get_string("checkpoint-path", "serve-checkpoint.snap");

  obs::MetricsRegistry metrics;
  double wall_seconds = 0.0;
  std::atomic<std::uint64_t> ok{0}, failed{0};
  std::vector<TenantTally> client_tally(static_cast<std::size_t>(clients));
  std::vector<serve::TenantTable::TenantStats> tenant_stats;
  std::vector<serve::TenantTable::TenantStats> offenders;
  serve::RngService::Stats stats;
  int healthy = opts.num_shards;
  std::uint64_t checkpoints_taken = 0, checkpoints_failed = 0;
  std::uint64_t adopted_leases = 0;
  std::optional<quality::QualityReport> quality_report;
  {
    std::unique_ptr<serve::RngService> owned;
    if (restore_from.empty()) {
      owned = std::make_unique<serve::RngService>(opts, &metrics);
    } else {
      serve::RngService::RestoreOptions ro;
      ro.metrics = &metrics;
      ro.injector = opts.injector;
      if (scrub_enabled) ro.scrub = opts.scrub;
      std::string error;
      owned = serve::RngService::restore(restore_from, ro, &error);
      if (owned == nullptr) {
        std::fprintf(stderr, "cannot restore from %s: %s\n",
                     restore_from.c_str(), error.c_str());
        return 2;
      }
      opts = owned->options();
      healthy = owned->healthy_shards();
      std::printf("restored service from %s: backend %s, %d shards, "
                  "%zu adoptable leases\n\n",
                  restore_from.c_str(), opts.backend.c_str(), opts.num_shards,
                  owned->adoptable_lease_ids().size());
    }
    serve::RngService& service = *owned;

    // Constructed before the client adoption loop so that after a restore
    // the scrubber re-claims its own recorded leases first and resumes its
    // cursors bit-exactly (docs/QUALITY.md §6).
    std::optional<quality::QualityScrubber> scrubber;
    if (scrub_enabled) scrubber.emplace(service, &metrics);

    std::vector<serve::Session> sessions;
    sessions.reserve(static_cast<std::size_t>(clients));
    // A restored service hands its snapshot leases back first: each client
    // continues a pre-checkpoint stream exactly where it left off.
    for (const std::uint64_t id : service.adoptable_lease_ids()) {
      if (sessions.size() == static_cast<std::size_t>(clients)) break;
      auto session = service.adopt_session(id);
      if (session.has_value()) {
        sessions.push_back(*session);
        ++adopted_leases;
      }
    }
    for (int c = static_cast<int>(sessions.size()); c < clients; ++c) {
      serve::RngService::SessionSpec spec;
      spec.tenant = tenant_of[static_cast<std::size_t>(c)];
      auto session = service.try_open_session(spec);
      if (!session.has_value()) {
        std::fprintf(stderr,
                     "lease pool exhausted at client %d (grow --slots)\n", c);
        return 2;
      }
      sessions.push_back(*session);
    }
    // Adopted sessions carry the tenant the snapshot recorded, not the
    // Zipf placement — read the authoritative tenancy back so the
    // per-tenant tallies bill the right owner.
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      tenant_of[i] = sessions[i].tenant();
    }

    // Periodic background snapshots; scoped so it stops (and its last tick
    // finishes) before the service is torn down.
    std::optional<state::BackgroundCheckpointer> checkpointer;
    if (checkpoint_every_ms > 0) {
      checkpointer.emplace(std::chrono::milliseconds(checkpoint_every_ms),
                           [&service, &checkpoint_path] {
                             return service.checkpoint(checkpoint_path);
                           });
    }

    // Background scrubbing runs for the whole load window — the
    // throughput figures below therefore INCLUDE the scrub overhead,
    // which is what the <5% degradation acceptance compares against a
    // no-scrub run of the same shape.
    if (scrubber.has_value()) scrubber->start();

    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        // Each client keeps up to `inflight` async requests outstanding
        // (inflight == 1 degenerates to the classic closed loop). A
        // request's buffer is recycled only after its ticket settles, so
        // slot r % inflight is always free when request r is issued.
        const std::uint64_t tenant = tenant_of[static_cast<std::size_t>(c)];
        TenantTally& tally = client_tally[static_cast<std::size_t>(c)];
        std::vector<std::vector<std::uint64_t>> bufs(
            static_cast<std::size_t>(inflight),
            std::vector<std::uint64_t>(words));
        struct Pending {
          serve::Ticket ticket;
          std::chrono::steady_clock::time_point t0;
        };
        std::deque<Pending> window;
        const auto settle_front = [&] {
          Pending p = window.front();
          window.pop_front();
          const serve::Status st = p.ticket.wait();
          tally.lats.push_back(
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            p.t0)
                  .count());
          if (st == serve::Status::kOk) {
            ++tally.ok;
            ok.fetch_add(1, std::memory_order_relaxed);
          } else {
            ++tally.failed;
            if (st == serve::Status::kRejectedQuota) ++tally.rejected_quota;
            failed.fetch_add(1, std::memory_order_relaxed);
          }
        };
        // Open loop: deterministic per-client Poisson arrivals (wire-mode
        // convention — latency runs from the scheduled arrival). The
        // scenarios skew the noisy tenant's pace: flash-crowd floods it
        // at 8x, slow-leak trickles it at a quarter rate.
        std::mt19937_64 rng(opts.seed ^
                            (0x9E3779B97F4A7C15ull *
                             (static_cast<std::uint64_t>(c) + 1)));
        double client_rate = rate / static_cast<double>(clients);
        if (tenant == kNoisyTenant) {
          if (scenario == Scenario::kFlashCrowd) client_rate *= 8.0;
          if (scenario == Scenario::kSlowLeak) client_rate *= 0.25;
        }
        std::exponential_distribution<double> gap(client_rate);
        auto next_arrival = std::chrono::steady_clock::now();
        for (int r = 0; r < requests; ++r) {
          if (open_loop) {
            next_arrival += std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(gap(rng)));
            std::this_thread::sleep_until(next_arrival);
          } else if (scenario == Scenario::kSlowLeak &&
                     tenant == kNoisyTenant) {
            // Closed-loop slow leak: a small trickle instead of a flood —
            // quota, not rate, is what runs out.
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          if (window.size() == static_cast<std::size_t>(inflight)) {
            settle_front();
          }
          const auto t0 =
              open_loop ? next_arrival : std::chrono::steady_clock::now();
          window.push_back(
              {sessions[static_cast<std::size_t>(c)].fill_async(
                   bufs[static_cast<std::size_t>(r % inflight)]),
               t0});
        }
        while (!window.empty()) settle_front();
      });
    }
    for (std::thread& t : threads) t.join();
    wall_seconds = std::chrono::duration_cast<std::chrono::duration<double>>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
    if (scrubber.has_value()) {
      // Load window over: park the background thread, then finish with a
      // deterministic synchronous stint so the exported report always has
      // a battery verdict in it.
      scrubber->stop();
      if (scrub_passes > 0) scrubber->run_passes(scrub_passes);
    }
    service.drain();
    if (checkpointer.has_value()) {
      checkpointer->stop();
      checkpoints_taken = checkpointer->runs() - checkpointer->failures();
      checkpoints_failed = checkpointer->failures();
      // One final snapshot at the drained boundary, while the leases are
      // still live — the file a --restore-from run continues from.
      std::string error;
      if (service.checkpoint(checkpoint_path, &error)) {
        ++checkpoints_taken;
      } else {
        ++checkpoints_failed;
        std::fprintf(stderr, "final checkpoint failed: %s\n", error.c_str());
      }
    }
    if (scrubber.has_value()) {
      // Report taken after the final checkpoint (so the snapshot carries
      // the same cursors), then the scrub leases release before the tally.
      quality_report = scrubber->report();
      scrubber.reset();
    }
    // Tenant ground truth at the drained fence, BEFORE the leases release
    // (release would zero the per-tenant lease counts in the report).
    tenant_stats = service.tenant_all_stats();
    offenders = service.top_offenders();
    sessions.clear();  // release every lease before the final snapshot
    stats = service.stats();
    healthy = service.healthy_shards();
  }

  const std::uint64_t total =
      static_cast<std::uint64_t>(clients) * static_cast<std::uint64_t>(requests);
  util::Table t({"metric", "value"});
  t.add_row({"requests issued", util::strf("%llu",
                                           static_cast<unsigned long long>(total))});
  t.add_row({"served ok", util::strf("%llu",
                                     static_cast<unsigned long long>(ok.load()))});
  t.add_row({"rejected", util::strf("%llu", static_cast<unsigned long long>(
                                                stats.rejected))});
  t.add_row({"shed", util::strf("%llu",
                                static_cast<unsigned long long>(stats.shed))});
  t.add_row({"timed out", util::strf("%llu", static_cast<unsigned long long>(
                                                 stats.timed_out))});
  if (tenants_n > 1 || stats.rejected_quota > 0) {
    t.add_row({"rejected (rate/quota)",
               util::strf("%llu", static_cast<unsigned long long>(
                                      stats.rejected_quota))});
  }
  if (plan.has_value()) {
    t.add_row({"failed", util::strf("%llu", static_cast<unsigned long long>(
                                                stats.failed))});
    t.add_row({"retries", util::strf("%llu", static_cast<unsigned long long>(
                                                 stats.retries))});
    t.add_row({"failovers", util::strf("%llu", static_cast<unsigned long long>(
                                                   stats.failovers))});
    t.add_row({"shards ejected",
               util::strf("%llu",
                          static_cast<unsigned long long>(stats.shards_ejected))});
    t.add_row({"healthy shards",
               util::strf("%d / %d", healthy, opts.num_shards)});
  }
  t.add_row({"numbers served", util::strf("%llu", static_cast<unsigned long long>(
                                                      stats.numbers_served))});
  t.add_row({"backend passes", util::strf("%llu", static_cast<unsigned long long>(
                                                      stats.batches))});
  if (stats.batches > 0) {
    t.add_row({"requests/pass",
               util::strf("%.2f", static_cast<double>(stats.completed) /
                                      static_cast<double>(stats.batches))});
  }
  if (adopted_leases > 0) {
    t.add_row({"adopted leases",
               util::strf("%llu",
                          static_cast<unsigned long long>(adopted_leases))});
  }
  if (checkpoint_every_ms > 0) {
    t.add_row({"checkpoints taken",
               util::strf("%llu",
                          static_cast<unsigned long long>(checkpoints_taken))});
    t.add_row({"checkpoint failures",
               util::strf("%llu", static_cast<unsigned long long>(
                                      checkpoints_failed))});
    t.add_row({"checkpoint path", checkpoint_path});
  }
  t.add_row({"wall time (ms)", bench::ms(wall_seconds)});
  if (wall_seconds > 0.0) {
    t.add_row({"throughput (req/s)",
               util::strf("%.0f", static_cast<double>(ok.load()) / wall_seconds)});
    t.add_row({"throughput (Mwords/s)",
               util::strf("%.2f", static_cast<double>(stats.numbers_served) /
                                      wall_seconds / 1e6)});
  }
  // Latency quantiles from the registry histogram — the same numbers a
  // dashboard would read (power-of-two buckets: within 2x).
  const auto& lat = metrics.histogram("hprng.serve.request_latency_seconds");
  const double lat_p50 = lat.quantile(0.5);
  const double lat_p99 = lat.quantile(0.99);
  const double lat_max = lat.max();
  const double qw_p99 =
      metrics.histogram("hprng.serve.queue_wait_seconds").quantile(0.99);
  t.add_row({"latency p50 (ms)", bench::ms(lat_p50)});
  t.add_row({"latency p99 (ms)", bench::ms(lat_p99)});
  t.add_row({"latency max (ms)", bench::ms(lat_max)});
  t.add_row({"queue wait p99 (ms)", bench::ms(qw_p99)});
  if (quality_report.has_value()) {
    const quality::QualityReport& q = *quality_report;
    t.add_row({"scrub tier", util::strf("%d (resting %d)", q.tier,
                                        q.resting_tier)});
    t.add_row({"scrub passes", util::strf("%llu", static_cast<unsigned long long>(
                                                      q.passes))});
    t.add_row({"scrub words", util::strf("%llu", static_cast<unsigned long long>(
                                                     q.words))});
    t.add_row({"scrub anomalies",
               util::strf("%llu",
                          static_cast<unsigned long long>(q.anomalies))});
    if (!q.last_battery.empty()) {
      t.add_row({"scrub battery",
                 util::strf("%s %d/%d%s", q.last_battery.c_str(),
                            q.last_passed, q.last_total,
                            q.last_ks_valid
                                ? util::strf(" (ks_p=%.3g)", q.last_ks_p)
                                      .c_str()
                                : "")});
    }
    t.add_row({"scrub verdict", q.anomalous ? "ANOMALOUS" : "clean"});
  }
  std::printf("%s", t.to_string().c_str());

  // Conservation: every submission reaches exactly one terminal status,
  // and the engine accounting agrees with the client-side tallies.
  // With a scrubber attached its fills ride the same queue, so the exact
  // client-tally equalities relax to inequalities (scrub requests are
  // extra submissions/completions on top of the client population).
  const bool scrub_ran = quality_report.has_value();
  const bool conserved =
      (scrub_ran ? stats.submitted >= total : stats.submitted == total) &&
      stats.submitted == stats.completed + stats.rejected + stats.shed +
                             stats.timed_out + stats.closed + stats.failed +
                             stats.rejected_quota &&
      (scrub_ran ? ok.load() <= stats.completed
                 : ok.load() == stats.completed) &&
      (scrub_ran ||
       failed.load() == stats.rejected + stats.shed + stats.timed_out +
                            stats.closed + stats.failed +
                            stats.rejected_quota);
  const bool leases_clean = stats.active_leases == 0 &&
                            stats.leases_granted == stats.leases_released;
  const bool coalesced = stats.batches <= stats.completed;
  std::printf("\nconservation: submitted %llu = ok %llu + rejected %llu + "
              "shed %llu + timed_out %llu + closed %llu + failed %llu + "
              "rejected_quota %llu [%s]\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.timed_out),
              static_cast<unsigned long long>(stats.closed),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.rejected_quota),
              conserved ? "OK" : "MISMATCH");

  // Per-tenant fairness view: engine-side TenantTable ground truth joined
  // with each tenant's client-side latency quantiles (docs/QOS.md §7).
  std::map<std::uint64_t, TenantTally> per_tenant;
  for (int c = 0; c < clients; ++c) {
    const TenantTally& src = client_tally[static_cast<std::size_t>(c)];
    TenantTally& dst = per_tenant[tenant_of[static_cast<std::size_t>(c)]];
    ++dst.clients;
    dst.issued += static_cast<std::uint64_t>(requests);
    dst.ok += src.ok;
    dst.failed += src.failed;
    dst.rejected_quota += src.rejected_quota;
    dst.lats.insert(dst.lats.end(), src.lats.begin(), src.lats.end());
  }
  bool fairness_ok = true;
  if (tenants_n > 1 || scenario != Scenario::kSteady) {
    util::Table tt({"tenant", "clients", "submitted", "ok", "rej rate",
                    "rej quota", "quota used", "p50 ms", "p99 ms",
                    "success"});
    for (const auto& s : tenant_stats) {
      TenantTally& c = per_tenant[s.tenant];
      const std::uint64_t seen = c.ok + c.failed;
      const double success =
          seen > 0 ? static_cast<double>(c.ok) / static_cast<double>(seen)
                   : 0.0;
      tt.add_row(
          {util::strf("%llu%s", static_cast<unsigned long long>(s.tenant),
                      s.tenant == kNoisyTenant &&
                              scenario != Scenario::kSteady
                          ? " (noisy)"
                          : ""),
           util::strf("%llu", static_cast<unsigned long long>(c.clients)),
           util::strf("%llu", static_cast<unsigned long long>(s.submitted)),
           util::strf("%llu", static_cast<unsigned long long>(c.ok)),
           util::strf("%llu",
                      static_cast<unsigned long long>(s.rejected_rate)),
           util::strf("%llu",
                      static_cast<unsigned long long>(s.rejected_quota)),
           util::strf("%llu", static_cast<unsigned long long>(s.quota_used)),
           bench::ms(tally_quantile(c.lats, 0.5)),
           bench::ms(tally_quantile(c.lats, 0.99)),
           util::strf("%.1f%%", success * 100.0)});
      // Fairness: every compliant tenant must keep >= 90% of its requests
      // landing kOk while the noisy tenant is throttled.
      if (scenario != Scenario::kSteady && s.tenant != kNoisyTenant &&
          seen > 0 && success < 0.9) {
        fairness_ok = false;
      }
    }
    std::printf("\n%s", tt.to_string().c_str());
    std::printf("\ntop offenders:");
    for (const auto& o : offenders) {
      std::printf(" tenant %llu (%llu rejections, %llu words charged)",
                  static_cast<unsigned long long>(o.tenant),
                  static_cast<unsigned long long>(o.rejected_rate +
                                                  o.rejected_quota),
                  static_cast<unsigned long long>(o.words_charged));
    }
    std::printf("\n");
    // The scenarios' contract (the qos-fairness CI gate): the injected
    // noisy tenant must actually get throttled, and it must top the
    // offender report.
    if (scenario != Scenario::kSteady) {
      if (stats.rejected_quota == 0 || offenders.empty() ||
          offenders.front().tenant != kNoisyTenant) {
        fairness_ok = false;
      }
    }
  }

  bench::export_metrics_json(cli, metrics);

  {
    // Flat perf summary (BENCH_serve.json in CI): wall throughput and tail
    // latency, one parseable file per run.
    bench::BenchJson json;
    json.add("bench", std::string("serve_load"));
    json.add("backend", opts.backend);
    json.add("simd_kernel", std::string(simd::kernel_name()));
    json.add("simd_lanes", static_cast<double>(simd::lane_width_u32()));
    json.add("clients", static_cast<double>(clients));
    json.add("requests_per_client", static_cast<double>(requests));
    json.add("words_per_request", static_cast<double>(words));
    json.add("inflight", static_cast<double>(inflight));
    json.add("wall_seconds", wall_seconds);
    json.add("requests_ok", static_cast<double>(ok.load()));
    json.add("requests_failed", static_cast<double>(failed.load()));
    json.add("scenario", std::string(scenario_name(scenario)));
    json.add("tenants", static_cast<double>(tenants_n));
    json.add("rejected_quota", static_cast<double>(stats.rejected_quota));
    json.add("backend_passes", static_cast<double>(stats.batches));
    json.add("numbers_served", static_cast<double>(stats.numbers_served));
    json.add("wall_req_per_s",
             wall_seconds > 0.0
                 ? static_cast<double>(ok.load()) / wall_seconds
                 : 0.0);
    json.add("wall_words_per_s",
             wall_seconds > 0.0
                 ? static_cast<double>(stats.numbers_served) / wall_seconds
                 : 0.0);
    json.add("latency_p50_s", lat_p50);
    json.add("latency_p99_s", lat_p99);
    json.add("latency_max_s", lat_max);
    json.add("queue_wait_p99_s", qw_p99);
    if (quality_report.has_value()) {
      json.add("scrub_tier", static_cast<double>(quality_report->tier));
      json.add("scrub_passes", static_cast<double>(quality_report->passes));
      json.add("scrub_words", static_cast<double>(quality_report->words));
      json.add("scrub_anomalies",
               static_cast<double>(quality_report->anomalies));
      json.add("scrub_anomalous", quality_report->anomalous ? 1.0 : 0.0);
      json.add("scrub_pass_ratio", quality_report->pass_ratio());
    }
    bench::export_bench_json(cli, json);
  }

  // The machine-readable QualityReport artifact (the quality-scrub CI job
  // uploads one per backend; docs/QUALITY.md §4).
  const std::string quality_json = cli.get_string("quality-json", "");
  if (!quality_json.empty()) {
    if (!quality_report.has_value()) {
      std::fprintf(stderr,
                   "--quality-json needs --scrub-tier (no scrubber ran)\n");
      return 2;
    }
    std::FILE* f = std::fopen(quality_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", quality_json.c_str());
      return 2;
    }
    const std::string body = quality_report->to_json();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("quality report: %s\n", quality_json.c_str());
  }

  const std::string tenant_json = cli.get_string("tenant-json", "");
  if (!tenant_json.empty()) {
    write_tenant_json(tenant_json, scenario, tenant_stats, per_tenant,
                      offenders);
  }
  if (!bench::reject_unread_flags(cli)) return 2;

  const bool shape = conserved && leases_clean && coalesced &&
                     ok.load() > 0 && fairness_ok;
  bench::verdict(shape, "every request reaches one terminal status, leases "
                        "reclaim cleanly, batching coalesces requests, and "
                        "tenant QoS isolates the compliant population");
  return shape ? 0 : 1;
}
