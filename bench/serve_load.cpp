// Serving-layer load bench (docs/SERVING.md §6): a population of client
// threads drives an RngService — each client holds one leased substream
// and issues fill requests — while the service's instruments report queue
// behaviour. The acceptance run sustains >= 32 clients against a sharded
// hybrid pool and reports p50/p99 request latency plus rejected/shed
// counts.
//
// Both modes run the same client loop over a port: an in-process
// serve::Session by default, or a net::NetClient connection with --listen
// or --connect. Latency is measured client-side in both, from submit
// (closed loop) or from the scheduled arrival (open loop) until the
// client collects the reply, and reported as order statistics of every
// request's sample, so the two modes' figures compare directly.
//
// Flags: --clients --requests --n (words per request) --shards --slots
//        --workers --capacity (a full queue rejects) --coalesce
//        --timeout-ms --backend=NAME (serve registry, docs/BACKENDS.md) --seed
//        --inflight=K  requests each client keeps outstanding
//                      (K >= 2 queues one session's requests back to back:
//                      a worker coalescing them serves one pass each, in
//                      order; K = 1 in the closed loop issues synchronous
//                      fills, which over the wire reconnect and retry on
//                      their own — the restart demo's path)
//        --open-loop    Poisson arrivals instead of the closed loop:
//                       --rate=R total requests/second, split across
//                       clients, gaps drawn from a deterministic
//                       per-client exponential stream (same --seed =
//                       same arrival schedule)
//        --metrics-json=<path>
//        --bench-json=<path>  flat perf summary (BENCH_serve.json and
//                             BENCH_net.json in CI)
//        --fault-plan=<plan>  deterministic chaos run (docs/FAULTS.md §3),
//                             e.g. --fault-plan="shard:1:fail:0:1000000"
//
// Local mode (in-process Sessions):
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
//        --scrub-tier ... --quality-json  quality scrubbing (--help)
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
//        --tenant-json=PATH  per-tenant results JSON, local mode (the CI
//                          fairness artifact: per-tenant counters, latency
//                          quantiles and the top-K offender report)
//        --help  print the flag listing and exit
//
// Wire mode (docs/NETWORK.md): every fill crosses the frame protocol, so
// this is the harness that produces BENCH_net.json and drives the
// multi-process rolling-restart demo against a serve_net process.
//        --listen=EP    host a NetServer in-process and aim the clients
//                       at it (self-contained wire bench)
//        --connect=EP   aim the clients at an external server (serve_net)
//        --keep-leases  do not release leases at the end: the server
//                       parks them as orphans, so a serve_net shutdown
//                       checkpoint carries them and a --restore-from
//                       successor offers them for re-adoption
//        --adopt        adopt the server's adoptable leases first (the
//                       second half of the restart demo)
//        --max-pending-fills=N   in-process server shape

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "fault/fault.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "quality/quality.hpp"
#include "serve/service.hpp"
#include "simd/simd.hpp"
#include "state/checkpointer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hprng;

namespace {

using Clock = std::chrono::steady_clock;

void print_help() {
  std::printf(
      "serve_load — multi-client serving bench, in-process or over the "
      "wire\n\n"
      "usage: serve_load [--flag=value ...]\n\n"
      "load shape:\n"
      "  --clients=N         client threads (default 32; 8 in wire mode)\n"
      "  --requests=N        requests per client (default 64)\n"
      "  --n=WORDS           words per request (default 256)\n"
      "  --inflight=K        requests outstanding per client\n"
      "  --open-loop --rate=R  Poisson arrivals, R total req/s\n"
      "service shape (ignored with --restore-from or --connect):\n"
      "  --backend=NAME      one of: %s\n"
      "                      (default hybrid; see docs/BACKENDS.md)\n",
      bench::backend_values().c_str());
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
      "  --keep-leases       leave leases live (orphaned) on exit\n"
      "  --adopt             adopt the server's adoptable leases first\n"
      "  --max-pending-fills=N  in-process server shape\n"
      "tenancy (docs/QOS.md):\n"
      "  --tenants=N         tenant population (default 1 = tenant 0 only)\n"
      "  --tenant-skew=S     Zipf exponent for client placement (default 1)\n"
      "  --scenario=NAME     steady|flash-crowd|slow-leak (docs/QOS.md §8)\n"
      "  --tenant-json=PATH  per-tenant fairness report (CI artifact;\n"
      "                      local mode only)\n"
      "faults (docs/FAULTS.md):\n"
      "  --fault-plan=PLAN   e.g. shard:1:fail:0:1000000\n"
      "checkpoint/restore (docs/STATE.md; local mode only):\n"
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

// Client-side tallies: one per client thread (each writes only its own),
// merged per tenant and over the whole run after the threads join.
struct TenantTally {
  std::uint64_t clients = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected_quota = 0;  ///< kRejectedQuota statuses observed
  std::vector<double> lats;          ///< client-side seconds, unsorted

  void merge(const TenantTally& other) {
    clients += other.clients;
    ok += other.ok;
    failed += other.failed;
    rejected_quota += other.rejected_quota;
    lats.insert(lats.end(), other.lats.begin(), other.lats.end());
  }
};

// The q-quantile as the order statistic at floor(q * (n - 1)).
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
// The load both modes run: its shape, the client loop, and the rows and
// fields reported from the client side.

struct Load {
  int clients = 0;
  int requests = 0;
  std::size_t words = 0;
  int inflight = 1;
  bool open_loop = false;
  double rate = 0.0;  ///< open loop: total requests/second
  std::uint64_t seed = 0;
  Scenario scenario = Scenario::kSteady;
  int tenants = 1;
  double tenant_skew = 1.0;
  std::vector<std::uint64_t> tenant_of;  ///< per client
  std::uint64_t noisy_offered_words = 0;
};

bool read_load(const util::Cli& cli, int default_clients, Load* load) {
  load->clients = static_cast<int>(cli.get_u64(
      "clients", static_cast<std::uint64_t>(default_clients)));
  load->requests = static_cast<int>(cli.get_u64("requests", 64));
  load->words = cli.get_u64("n", 256);
  load->inflight =
      static_cast<int>(std::max<std::uint64_t>(1, cli.get_u64("inflight", 1)));
  load->open_loop = cli.has("open-loop");
  load->rate = cli.get_double("rate", 256.0);
  load->seed = cli.get_u64("seed", serve::ServiceOptions{}.seed);
  if (!parse_scenario(cli.get_string("scenario", ""), &load->scenario)) {
    std::fprintf(stderr, "unknown --scenario=%s (steady|flash-crowd|"
                         "slow-leak)\n",
                 cli.get_string("scenario", "").c_str());
    return false;
  }
  load->tenants = static_cast<int>(cli.get_u64(
      "tenants", load->scenario == Scenario::kSteady ? 1 : 4));
  load->tenant_skew = cli.get_double("tenant-skew", 1.0);
  load->tenant_of =
      assign_tenants(load->clients, load->tenants, load->tenant_skew);
  for (const std::uint64_t t : load->tenant_of) {
    if (t == kNoisyTenant) {
      load->noisy_offered_words +=
          static_cast<std::uint64_t>(load->requests) * load->words;
    }
  }
  return true;
}

bool tenancy_shown(const Load& load) {
  return load.tenants > 1 || load.scenario != Scenario::kSteady;
}

void print_load_notes(const Load& load, const fault::Injector* injector) {
  if (tenancy_shown(load)) {
    std::printf("tenancy: %d tenants, zipf skew %.2f, scenario %s "
                "(noisy tenant %llu), %s loop%s\n\n",
                load.tenants, load.tenant_skew, scenario_name(load.scenario),
                static_cast<unsigned long long>(kNoisyTenant),
                load.open_loop ? "open" : "closed",
                load.open_loop
                    ? util::strf(", %.0f req/s Poisson", load.rate).c_str()
                    : "");
  }
  if (injector != nullptr) {
    std::printf("fault plan: %s\n\n", injector->plan().to_string().c_str());
  }
}

// A client's access path to its lease — an in-process Session or a
// NetClient connection. fill() is one synchronous request; submit(k)
// starts a pipelined one in window slot k and wait(k) collects it.
class SessionPort {
 public:
  explicit SessionPort(serve::Session session)
      : session_(std::move(session)) {}

  serve::Status fill(std::span<std::uint64_t> out) {
    return session_.fill(out);
  }
  void submit(std::size_t k, std::span<std::uint64_t> out) {
    if (tickets_.size() <= k) tickets_.resize(k + 1);
    tickets_[k] = session_.fill_async(out);
  }
  serve::Status wait(std::size_t k) {
    return std::exchange(tickets_[k], {}).wait();
  }

 private:
  serve::Session session_;
  std::vector<serve::Ticket> tickets_;
};

class NetPort {
 public:
  explicit NetPort(net::ClientOptions opts) : client(std::move(opts)) {}

  serve::Status fill(std::span<std::uint64_t> out) {
    return client.fill(lease, out);
  }
  void submit(std::size_t k, std::span<std::uint64_t> out) {
    if (pending_.size() <= k) pending_.resize(k + 1);
    pending_[k] = {
        client.fill_submit(lease, static_cast<std::uint32_t>(out.size())),
        out};
  }
  // A submit that could not be sent (id 0) settles kClosed.
  serve::Status wait(std::size_t k) {
    const auto [id, out] = std::exchange(pending_[k], {});
    return id == 0 ? serve::Status::kClosed : client.fill_wait(id, out);
  }

  net::NetClient client;
  std::uint64_t lease = 0;

 private:
  std::vector<std::pair<std::uint64_t, std::span<std::uint64_t>>> pending_;
};

// One client's requests. Closed loop: a request goes out as soon as the
// window of --inflight has room, and its latency runs from its submit; at
// --inflight=1 each is one synchronous fill. Open loop: arrivals are a
// deterministic Poisson process — a per-client exponential-gap stream at
// rate/clients req/s — that submits without waiting for earlier replies,
// and latency runs from the scheduled arrival, so client-side queueing
// counts, as open-loop convention demands. The scenarios pace the noisy
// tenant: flash-crowd floods it at 8x, slow-leak trickles it at a quarter
// rate (closed loop: a 200 µs pause before each request).
template <class Port>
void run_client(Port& port, const Load& load, int c, TenantTally& tally) {
  const bool noisy = load.tenant_of[static_cast<std::size_t>(c)] ==
                     kNoisyTenant;
  const auto settle = [&](serve::Status st, Clock::time_point start) {
    tally.lats.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    if (st == serve::Status::kOk) {
      ++tally.ok;
    } else {
      ++tally.failed;
      if (st == serve::Status::kRejectedQuota) ++tally.rejected_quota;
    }
  };
  std::mt19937_64 rng(load.seed ^ (0x9E3779B97F4A7C15ull *
                                   (static_cast<std::uint64_t>(c) + 1)));
  double client_rate = load.rate / static_cast<double>(load.clients);
  if (noisy && load.scenario == Scenario::kFlashCrowd) client_rate *= 8.0;
  if (noisy && load.scenario == Scenario::kSlowLeak) client_rate *= 0.25;
  std::exponential_distribution<double> gap(client_rate);

  // A request's buffer is reused only after it settles, so slot r %
  // inflight is always free when request r is issued.
  const auto window_size = static_cast<std::size_t>(load.inflight);
  std::vector<std::vector<std::uint64_t>> bufs(
      window_size, std::vector<std::uint64_t>(load.words));
  std::deque<std::pair<std::size_t, Clock::time_point>> window;
  const auto settle_front = [&] {
    const auto [k, start] = window.front();
    window.pop_front();
    settle(port.wait(k), start);
  };
  auto next_arrival = Clock::now();
  for (int r = 0; r < load.requests; ++r) {
    if (load.open_loop) {
      next_arrival += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap(rng)));
      std::this_thread::sleep_until(next_arrival);
    } else if (noisy && load.scenario == Scenario::kSlowLeak) {
      // Closed-loop slow leak: a small trickle instead of a flood —
      // quota, not rate, is what runs out.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (!load.open_loop && window_size == 1) {
      const auto start = Clock::now();
      settle(port.fill(bufs[0]), start);
      continue;
    }
    if (window.size() == window_size) settle_front();
    const std::size_t k = static_cast<std::size_t>(r) % window_size;
    const auto start = load.open_loop ? next_arrival : Clock::now();
    port.submit(k, bufs[k]);
    window.emplace_back(k, start);
  }
  while (!window.empty()) settle_front();
}

struct LoadRun {
  double wall_seconds = 0.0;
  std::vector<TenantTally> per_client;
  TenantTally all;  ///< every client merged
  double p50 = 0.0, p99 = 0.0, max = 0.0;  ///< latency over `all`, seconds
};

// Run every client on its own thread, one port each, and time the lot.
template <class Port>
LoadRun run_load(const Load& load, std::deque<Port>& ports) {
  LoadRun run;
  run.per_client.resize(ports.size());
  const auto wall_start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(ports.size());
  for (std::size_t c = 0; c < ports.size(); ++c) {
    threads.emplace_back([&, c] {
      run_client(ports[c], load, static_cast<int>(c), run.per_client[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  run.wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  for (const TenantTally& t : run.per_client) run.all.merge(t);
  run.p50 = tally_quantile(run.all.lats, 0.5);
  run.p99 = tally_quantile(run.all.lats, 0.99);
  run.max = tally_quantile(run.all.lats, 1.0);
  return run;
}

std::string num(std::uint64_t v) {
  return util::strf("%llu", static_cast<unsigned long long>(v));
}

// The rows both modes print first. `words_served` is the mode's count of
// delivered words (local mode's includes the scrubber's).
util::Table load_table(const Load& load, const LoadRun& run,
                       double words_served) {
  util::Table t({"metric", "value"});
  t.add_row({"requests issued",
             num(static_cast<std::uint64_t>(load.clients) *
                   static_cast<std::uint64_t>(load.requests))});
  t.add_row({"served ok", num(run.all.ok)});
  t.add_row({"failed", num(run.all.failed)});
  t.add_row({"wall time (ms)", bench::ms(run.wall_seconds)});
  if (run.wall_seconds > 0.0) {
    t.add_row({"throughput (req/s)",
               util::strf("%.0f", static_cast<double>(run.all.ok) /
                                      run.wall_seconds)});
    t.add_row({"throughput (Mwords/s)",
               util::strf("%.2f", words_served / run.wall_seconds / 1e6)});
  }
  t.add_row({"latency p50 (ms)", bench::ms(run.p50)});
  t.add_row({"latency p99 (ms)", bench::ms(run.p99)});
  t.add_row({"latency max (ms)", bench::ms(run.max)});
  return t;
}

// The BENCH_*.json fields both modes write; each mode appends its own.
bench::BenchJson load_json(const char* name, const Load& load,
                           const LoadRun& run, double words_served) {
  const double wall = run.wall_seconds;
  bench::BenchJson json;
  json.add("bench", std::string(name));
  json.add("simd_kernel", std::string(simd::kernel_name()));
  json.add("simd_lanes", static_cast<double>(simd::lane_width_u32()));
  json.add("clients", static_cast<double>(load.clients));
  json.add("requests_per_client", static_cast<double>(load.requests));
  json.add("words_per_request", static_cast<double>(load.words));
  json.add("inflight", static_cast<double>(load.inflight));
  json.add("loop", std::string(load.open_loop ? "open" : "closed"));
  json.add("open_loop_rate", load.open_loop ? load.rate : 0.0);
  json.add("scenario", std::string(scenario_name(load.scenario)));
  json.add("tenants", static_cast<double>(load.tenants));
  json.add("wall_seconds", wall);
  json.add("requests_ok", static_cast<double>(run.all.ok));
  json.add("requests_failed", static_cast<double>(run.all.failed));
  json.add("wall_req_per_s",
           wall > 0.0 ? static_cast<double>(run.all.ok) / wall : 0.0);
  json.add("wall_words_per_s", wall > 0.0 ? words_served / wall : 0.0);
  json.add("latency_p50_s", run.p50);
  json.add("latency_p99_s", run.p99);
  json.add("latency_max_s", run.max);
  return json;
}

// ---------------------------------------------------------------------------
// Local mode: in-process Sessions, with checkpoint/restore, the quality
// scrubber, the conservation check and the per-tenant fairness table.

int local_mode(const util::Cli& cli, Load& load, fault::Injector* injector) {
  // Quality scrubbing (docs/QUALITY.md §5): the scrubber's leases ride the
  // same pool as the clients', so the default slot count covers them too.
  serve::ServiceOptions opts;
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
      static_cast<std::uint64_t>(load.clients) +
      static_cast<std::uint64_t>(scrub_enabled ? scrub_streams : 0);
  if (!bench::read_service_shape(cli, lease_demand, &opts)) return 2;
  opts.injector = injector;
  apply_scenario(load.scenario, load.words, load.noisy_offered_words,
                 &opts.tenants);

  bench::banner(
      "serve_load — multi-client serving",
      "the on-demand generator serves many small consumers by coalescing "
      "their requests into batched pipeline rounds",
      util::strf("%d clients x %d requests x %zu words (%d in flight), "
                 "%d %s shards, %d workers, queue %zu",
                 load.clients, load.requests, load.words, load.inflight,
                 opts.num_shards, opts.backend.c_str(), opts.num_workers,
                 opts.queue_capacity)
          .c_str());
  print_load_notes(load, injector);

  // Checkpoint/restore wiring (docs/STATE.md).
  const std::string restore_from = cli.get_string("restore-from", "");
  const std::uint64_t checkpoint_every_ms = cli.get_u64("checkpoint-every", 0);
  const std::string checkpoint_path =
      cli.get_string("checkpoint-path", "serve-checkpoint.snap");

  obs::MetricsRegistry metrics;
  LoadRun run;
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

    // A restored service hands its snapshot leases back first: each client
    // continues a pre-checkpoint stream exactly where it left off. Adopted
    // sessions carry the tenant the snapshot recorded, not the Zipf
    // placement, so each client's tenant is read back from its session.
    std::deque<SessionPort> ports;
    const auto add_port = [&](const serve::Session& session) {
      load.tenant_of[ports.size()] = session.tenant();
      ports.emplace_back(session);
    };
    for (const std::uint64_t id : service.adoptable_lease_ids()) {
      if (ports.size() == static_cast<std::size_t>(load.clients)) break;
      auto session = service.adopt_session(id);
      if (session.has_value()) {
        add_port(*session);
        ++adopted_leases;
      }
    }
    while (ports.size() < static_cast<std::size_t>(load.clients)) {
      serve::RngService::SessionSpec spec;
      spec.tenant = load.tenant_of[ports.size()];
      auto session = service.try_open_session(spec);
      if (!session.has_value()) {
        std::fprintf(stderr,
                     "lease pool exhausted at client %zu (grow --slots)\n",
                     ports.size());
        return 2;
      }
      add_port(*session);
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
    run = run_load(load, ports);
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
    ports.clear();  // release every client lease
    stats = service.stats();
    healthy = service.healthy_shards();
  }

  util::Table t =
      load_table(load, run, static_cast<double>(stats.numbers_served));
  t.add_row({"rejected", num(stats.rejected)});
  t.add_row({"shed", num(stats.shed)});
  t.add_row({"timed out", num(stats.timed_out)});
  if (load.tenants > 1 || stats.rejected_quota > 0) {
    t.add_row({"rejected (rate/quota)", num(stats.rejected_quota)});
  }
  if (injector != nullptr) {
    t.add_row({"failed (no capacity)", num(stats.failed)});
    t.add_row({"retries", num(stats.retries)});
    t.add_row({"failovers", num(stats.failovers)});
    t.add_row({"shards ejected", num(stats.shards_ejected)});
    t.add_row({"healthy shards",
               util::strf("%d / %d", healthy, opts.num_shards)});
  }
  t.add_row({"numbers served", num(stats.numbers_served)});
  t.add_row({"backend passes", num(stats.batches)});
  if (stats.batches > 0) {
    t.add_row({"requests/pass",
               util::strf("%.2f", static_cast<double>(stats.completed) /
                                      static_cast<double>(stats.batches))});
  }
  if (adopted_leases > 0) t.add_row({"adopted leases", num(adopted_leases)});
  if (checkpoint_every_ms > 0) {
    t.add_row({"checkpoints taken", num(checkpoints_taken)});
    t.add_row({"checkpoint failures", num(checkpoints_failed)});
    t.add_row({"checkpoint path", checkpoint_path});
  }
  // The queue-wait quantile is a registry read: power-of-two buckets,
  // so within 2x.
  const double qw_p99 =
      metrics.histogram("hprng.serve.queue_wait_seconds").quantile(0.99);
  t.add_row({"queue wait p99 (ms)", bench::ms(qw_p99)});
  if (quality_report.has_value()) {
    const quality::QualityReport& q = *quality_report;
    t.add_row({"scrub tier", util::strf("%d (resting %d)", q.tier,
                                        q.resting_tier)});
    t.add_row({"scrub passes", num(q.passes)});
    t.add_row({"scrub words", num(q.words)});
    t.add_row({"scrub anomalies", num(q.anomalies)});
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
  const std::uint64_t total = static_cast<std::uint64_t>(load.clients) *
                              static_cast<std::uint64_t>(load.requests);
  const bool scrub_ran = quality_report.has_value();
  const bool conserved =
      (scrub_ran ? stats.submitted >= total : stats.submitted == total) &&
      stats.submitted == stats.completed + stats.rejected + stats.shed +
                             stats.timed_out + stats.closed + stats.failed +
                             stats.rejected_quota &&
      (scrub_ran ? run.all.ok <= stats.completed
                 : run.all.ok == stats.completed) &&
      (scrub_ran ||
       run.all.failed == stats.rejected + stats.shed + stats.timed_out +
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
  for (std::size_t c = 0; c < run.per_client.size(); ++c) {
    TenantTally& dst = per_tenant[load.tenant_of[c]];
    ++dst.clients;
    dst.merge(run.per_client[c]);
  }
  bool fairness_ok = true;
  if (tenancy_shown(load)) {
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
                              load.scenario != Scenario::kSteady
                          ? " (noisy)"
                          : ""),
           num(c.clients), num(s.submitted), num(c.ok),
           num(s.rejected_rate), num(s.rejected_quota),
           num(s.quota_used), bench::ms(tally_quantile(c.lats, 0.5)),
           bench::ms(tally_quantile(c.lats, 0.99)),
           util::strf("%.1f%%", success * 100.0)});
      // Fairness: every compliant tenant must keep >= 90% of its requests
      // landing kOk while the noisy tenant is throttled.
      if (load.scenario != Scenario::kSteady && s.tenant != kNoisyTenant &&
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
    if (load.scenario != Scenario::kSteady) {
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
    bench::BenchJson json = load_json(
        "serve_load", load, run, static_cast<double>(stats.numbers_served));
    json.add("backend", opts.backend);
    json.add("rejected_quota", static_cast<double>(stats.rejected_quota));
    json.add("backend_passes", static_cast<double>(stats.batches));
    json.add("numbers_served", static_cast<double>(stats.numbers_served));
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
    write_tenant_json(tenant_json, load.scenario, tenant_stats, per_tenant,
                      offenders);
  }
  if (!bench::reject_unread_flags(cli)) return 2;

  const bool shape = conserved && leases_clean && coalesced &&
                     run.all.ok > 0 && fairness_ok;
  bench::verdict(shape, "every request reaches one terminal status, leases "
                        "reclaim cleanly, batching coalesces requests, and "
                        "tenant QoS isolates the compliant population");
  return shape ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Wire mode: NetClient connections against an in-process NetServer
// (--listen) or an external serve_net (--connect), with lease adoption,
// server-side lease accounting over kStat and the frame counters.

int wire_mode(const util::Cli& cli, const Load& load,
              fault::Injector* injector) {
  const bool keep_leases = cli.has("keep-leases");
  const bool adopt = cli.has("adopt");
  std::string endpoint = cli.get_string("connect", "");
  const bool in_process = endpoint.empty();

  obs::MetricsRegistry metrics;
  // --listen: the server half lives in this process (still a real socket
  // round trip — the wire cost is what this mode measures).
  std::unique_ptr<serve::RngService> service;
  std::unique_ptr<net::NetServer> server;
  if (in_process) {
    serve::ServiceOptions opts;
    if (!bench::read_service_shape(
            cli, static_cast<std::uint64_t>(load.clients), &opts)) {
      return 2;
    }
    opts.injector = injector;
    apply_scenario(load.scenario, load.words, load.noisy_offered_words,
                   &opts.tenants);
    service = std::make_unique<serve::RngService>(opts, &metrics);

    net::ServerOptions sopts;
    sopts.listen = {cli.get_string("listen", "")};
    sopts.max_pending_fills = cli.get_u64("max-pending-fills", 64);
    sopts.injector = injector;
    server = std::make_unique<net::NetServer>(*service, sopts, &metrics);
    if (!server->ok()) {
      std::fprintf(stderr, "cannot listen on %s: %s\n",
                   sopts.listen.front().c_str(), server->error().c_str());
      return 2;
    }
    endpoint = server->endpoints().front();
  }

  bench::banner(
      "serve_load — wire-mode serving bench (docs/NETWORK.md)",
      "RNG-as-a-service holds its serving contract when every fill "
      "crosses a socket: leases, backpressure and adoption are protocol "
      "messages",
      util::strf("%d clients x %d requests x %zu words (%d in flight) over "
                 "%s (%s, %s loop%s)",
                 load.clients, load.requests, load.words, load.inflight,
                 endpoint.c_str(),
                 in_process ? "in-process server" : "external server",
                 load.open_loop ? "open" : "closed",
                 load.open_loop
                     ? util::strf(", %.0f req/s Poisson", load.rate).c_str()
                     : "")
          .c_str());
  print_load_notes(load, injector);

  net::ClientOptions copts;
  copts.endpoint = endpoint;
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
      std::fprintf(stderr, "cannot reach %s: %s\n", endpoint.c_str(),
                   err.c_str());
      return 2;
    }
    if (adopt) adoptable = bootstrap.adoptables(&err);
  }

  std::deque<NetPort> ports;
  for (int c = 0; c < load.clients; ++c) {
    net::ClientOptions my = copts;
    my.name = util::strf("serve_load#%d", c);
    my.tenant = load.tenant_of[static_cast<std::size_t>(c)];
    NetPort& port = ports.emplace_back(my);
    std::string err;
    if (static_cast<std::size_t>(c) < adoptable.size()) {
      port.lease = adoptable[static_cast<std::size_t>(c)];
      if (!port.client.adopt(port.lease, &err)) {
        std::fprintf(stderr, "client %d: adopt(%llu) failed: %s\n", c,
                     static_cast<unsigned long long>(port.lease), err.c_str());
        return 2;
      }
    } else {
      const std::optional<std::uint64_t> fresh = port.client.lease(&err);
      if (!fresh.has_value()) {
        std::fprintf(stderr, "client %d: lease failed: %s\n", c, err.c_str());
        return 2;
      }
      port.lease = *fresh;
    }
  }

  const LoadRun run = run_load(load, ports);

  std::uint64_t reconnects = 0, adoptions = 0;
  for (NetPort& p : ports) {
    if (!keep_leases) p.client.release(p.lease);
    reconnects += p.client.stats().reconnects;
    adoptions += p.client.stats().adoptions;
  }
  ports.clear();  // close the connections: kept leases park as orphans

  // Server-side view at the quiescent fence: protocol stats over the wire
  // (works for both servers), wire-layer stats directly when in-process.
  std::optional<net::NetStats> sstats;
  {
    net::ClientOptions bopts = copts;
    bopts.name = "serve_load-stat";
    net::NetClient bootstrap(bopts);
    sstats = bootstrap.stat();
  }

  util::Table t = load_table(
      load, run,
      static_cast<double>(run.all.ok) * static_cast<double>(load.words));
  t.add_row({"client reconnects", num(reconnects)});
  if (adopt) t.add_row({"adopted leases", num(adoptions)});
  if (sstats.has_value()) {
    t.add_row({"server numbers served", num(sstats->numbers_served)});
    t.add_row({"server active leases", num(sstats->active_leases)});
    t.add_row({"server adoptable leases", num(sstats->adoptable)});
    if (load.tenants > 1) {
      t.add_row({"server rejected (quota/rate)",
                 num(sstats->rejected_quota)});
    }
  }
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
    bench::BenchJson json = load_json(
        "serve_load_net", load, run,
        static_cast<double>(run.all.ok) * static_cast<double>(load.words));
    json.add("mode", std::string(in_process ? "listen" : "connect"));
    json.add("endpoint", endpoint);
    json.add("client_reconnects", static_cast<double>(reconnects));
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
      injector != nullptr || load.scenario != Scenario::kSteady
          ? run.all.ok > 0
          : run.all.failed == 0 && run.all.ok > 0;
  const bool leases_accounted =
      !sstats.has_value() ||
      (keep_leases ? sstats->active_leases + sstats->adoptable >= 1
                   : sstats->active_leases == 0);
  const bool shape = clean_requests && leases_accounted;
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
  // Removed flags: fail loudly rather than silently run another shape.
  if (cli.has("completers")) {
    std::fprintf(stderr, "--completers was removed: the server replies "
                         "from its one loop thread\n");
    return 2;
  }
  if (cli.has("scrub-workers")) {
    std::fprintf(stderr, "--scrub-workers was removed: smoke draws run in "
                         "stream order on the scrub thread\n");
    return 2;
  }
  if (!apply_simd_flag(cli)) return 2;
  const bool wire = cli.has("listen") || cli.has("connect");
  Load load;
  if (!read_load(cli, wire ? 8 : 32, &load)) return 2;
  std::optional<fault::Injector> injector;
  if (!bench::read_fault_plan(cli, &injector)) return 2;
  fault::Injector* inj = injector.has_value() ? &*injector : nullptr;
  return wire ? wire_mode(cli, load, inj) : local_mode(cli, load, inj);
}
