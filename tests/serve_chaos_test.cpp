// Chaos tests for hprng::serve under injected faults (docs/SERVING.md §7,
// docs/FAULTS.md): every request reaches exactly one terminal status under
// any fault pattern (conservation), leases on surviving shards reproduce
// bit-identical output vs a fault-free run (the replayability guarantee),
// ejection + failover keep service flowing after a shard dies, and
// recovery restores full throughput. The randomized suite replays a seeded
// FaultPlan (override with HPRNG_CHAOS_SEED; the CI chaos job rotates it).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"

namespace hprng {
namespace {

using namespace std::chrono_literals;

serve::ServiceOptions chaos_options(const std::string& backend) {
  serve::ServiceOptions opts;
  opts.backend = backend;
  opts.num_shards = 4;
  opts.max_leases_per_shard = 8;
  opts.num_workers = 2;
  opts.queue_capacity = 64;
  opts.max_coalesce = 4;
  opts.walk_len = 8;
  // Fast-failing chaos dials: one retry, quick backoff, eject after two
  // failed passes — the suite tests semantics, not patience.
  opts.max_fill_retries = 1;
  opts.retry_backoff_base_ms = 0.05;
  opts.retry_backoff_max_ms = 0.5;
  opts.shard_eject_failures = 2;
  return opts;
}

std::uint64_t conserved_total(const serve::RngService::Stats& s) {
  return s.completed + s.rejected + s.shed + s.timed_out + s.closed +
         s.failed;
}

/// Open kClients sessions pinned round-robin over the shards (key c lands
/// on shard c % num_shards), so baseline and chaos runs assign identical
/// (shard, slot) pairs and streams are comparable one-to-one.
std::vector<serve::Session> open_pinned(serve::RngService& service,
                                        int clients) {
  std::vector<serve::Session> sessions;
  sessions.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    auto session =
        service.try_open_session(static_cast<std::uint64_t>(c));
    EXPECT_TRUE(session.has_value());
    sessions.push_back(*session);
  }
  return sessions;
}

/// `fills` sequential fills of `words` each per session; returns each
/// session's concatenated stream. Asserts every fill lands kOk.
std::vector<std::vector<std::uint64_t>> run_traffic(
    std::vector<serve::Session>& sessions, int fills, std::size_t words) {
  std::vector<std::vector<std::uint64_t>> streams(sessions.size());
  for (int f = 0; f < fills; ++f) {
    for (std::size_t c = 0; c < sessions.size(); ++c) {
      std::vector<std::uint64_t> buf(words);
      EXPECT_EQ(sessions[c].fill(buf, 30s), serve::Status::kOk)
          << "client " << c << " fill " << f;
      streams[c].insert(streams[c].end(), buf.begin(), buf.end());
    }
  }
  return streams;
}

/// The headline chaos scenario: kill 1 of 4 shards outright and assert the
/// full robustness contract. Parameterised over the backend because the
/// bit-identical-survivor property has different mechanics per backend
/// (seed-addressed cpu-walk streams vs counter-addressed hybrid walks).
void run_shard_kill(const std::string& backend) {
  constexpr int kClients = 8;
  constexpr int kFills = 3;
  constexpr std::size_t kWords = 32;
  constexpr int kKilledShard = 1;

  // Fault-free baseline streams.
  std::vector<std::vector<std::uint64_t>> baseline;
  {
    serve::RngService service(chaos_options(backend));
    auto sessions = open_pinned(service, kClients);
    baseline = run_traffic(sessions, kFills, kWords);
  }

  // Chaos run: shard 1's dispatch fails forever.
  auto plan = fault::FaultPlan::parse("shard:1:fail:0:1000000");
  ASSERT_TRUE(plan.has_value());
  fault::Injector injector(*plan);
  auto opts = chaos_options(backend);
  opts.injector = &injector;
  serve::RngService service(opts);
  auto sessions = open_pinned(service, kClients);
  const auto streams = run_traffic(sessions, kFills, kWords);

  // (a) Every request reached exactly one terminal status, and with three
  // healthy shards left nothing was lost.
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, conserved_total(stats));
  EXPECT_EQ(stats.failed, 0u) << "healthy capacity existed; nothing lost";
  EXPECT_EQ(stats.completed,
            static_cast<std::uint64_t>(kClients) * kFills);

  // The dead shard was ejected and its leases moved.
  EXPECT_TRUE(service.shard_ejected(kKilledShard));
  EXPECT_EQ(service.healthy_shards(), 3);
  EXPECT_GE(stats.shards_ejected, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(stats.failovers, 1u);
  for (int c = 0; c < kClients; ++c) {
    const int home = c % 4;
    EXPECT_EQ(sessions[static_cast<std::size_t>(c)].lease().shard == home,
              home != kKilledShard)
        << "client " << c;
  }

  // (b) Surviving leases are bit-identical to the fault-free run; failed-
  // over ones still produced full, disjoint streams.
  std::map<std::uint64_t, std::size_t> owner;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    ASSERT_EQ(streams[c].size(), kFills * kWords);
    if (static_cast<int>(c) % 4 != kKilledShard) {
      EXPECT_EQ(streams[c], baseline[c])
          << "surviving client " << c << " diverged under chaos";
    }
    for (std::uint64_t v : streams[c]) {
      auto [it, inserted] = owner.emplace(v, c);
      EXPECT_TRUE(inserted || it->second == c)
          << "streams " << it->second << " and " << c << " overlap";
    }
  }

  // (c) Recovery: with the dead shard drained of traffic, a second wave is
  // served at full throughput — no new retries, no new failovers.
  const auto before = service.stats();
  run_traffic(sessions, kFills, kWords);
  const auto after = service.stats();
  EXPECT_EQ(after.completed - before.completed,
            static_cast<std::uint64_t>(kClients) * kFills);
  EXPECT_EQ(after.retries, before.retries) << "recovered pool retried";
  EXPECT_EQ(after.failovers, before.failovers);
  EXPECT_EQ(after.failed, 0u);
}

TEST(ServeChaos, ShardKillFailsOverCpuWalk) { run_shard_kill("cpu-walk"); }

TEST(ServeChaos, ShardKillFailsOverHybrid) { run_shard_kill("hybrid"); }

TEST(ServeChaos, AllShardsDeadCompletesEveryRequestAsFailed) {
  auto plan = fault::FaultPlan::parse("shard:*:fail:0:1000000");
  ASSERT_TRUE(plan.has_value());
  fault::Injector injector(*plan);
  auto opts = chaos_options("cpu-walk");
  opts.num_shards = 2;
  opts.injector = &injector;
  serve::RngService service(opts);

  std::vector<serve::Session> sessions;
  for (int c = 0; c < 4; ++c) sessions.push_back(service.open_session());
  std::vector<std::thread> clients;
  std::atomic<int> failed{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::uint64_t> buf(16);
      for (int f = 0; f < 2; ++f) {
        if (sessions[static_cast<std::size_t>(c)].fill(buf, 10s) ==
            serve::Status::kFailed) {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.drain();

  // No hang, no loss: every request terminal, none served, the pool dead.
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.submitted, conserved_total(stats));
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_GE(failed.load(), 1);
  EXPECT_EQ(service.healthy_shards(), 0);
  EXPECT_FALSE(service.try_open_session().has_value())
      << "a dead pool must refuse new leases";
}

TEST(ServeChaos, WorkerDelaysOnlyPerturbWallClock) {
  auto plan = fault::FaultPlan::parse("worker:*:delay:0:4:0.005");
  ASSERT_TRUE(plan.has_value());
  fault::Injector injector(*plan);
  auto opts = chaos_options("cpu-walk");
  opts.injector = &injector;
  serve::RngService service(opts);
  std::vector<std::uint64_t> buf(32);
  for (int f = 0; f < 6; ++f) {
    // A session's first fill always queues, so each fill here is a worker
    // batch: a fill served in place runs on no worker.
    serve::Session session = service.open_session();
    ASSERT_EQ(session.fill(buf, 10s), serve::Status::kOk);
  }
  EXPECT_GE(injector.events(fault::Site::kWorker, 0), 4u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.retries, 0u) << "a slow worker is not a failure";
}

/// Queue `kTickets` async fills of one session pinned to shard 0 while the
/// service is paused, so on resume one worker pops them as ONE batch: four
/// passes on one shard. Returns the session's concatenated words;
/// `*pops` counts the DRR schedule's pops.
std::vector<std::uint64_t> run_queued_passes(fault::Injector* injector,
                                             serve::RngService::Stats* stats,
                                             int* healthy_shards, int* pops) {
  constexpr int kTickets = 4;
  constexpr std::size_t kWords = 16;
  auto opts = chaos_options("hybrid");
  opts.max_coalesce = kTickets;
  opts.injector = injector;
  serve::RngService service(opts);
  std::atomic<int> popped{0};
  service.set_drr_observer(
      [&](std::uint64_t, std::size_t) { popped.fetch_add(1); });
  auto session = service.try_open_session(0);
  EXPECT_TRUE(session.has_value());
  if (!session.has_value()) return {};
  EXPECT_EQ(session->lease().shard, 0);

  std::vector<std::vector<std::uint64_t>> bufs(
      kTickets, std::vector<std::uint64_t>(kWords));
  std::vector<serve::Ticket> tickets;
  service.pause();
  for (auto& buf : bufs) tickets.push_back(session->fill_async(buf, 30s));
  service.resume();
  std::vector<std::uint64_t> words;
  for (int t = 0; t < kTickets; ++t) {
    EXPECT_EQ(tickets[static_cast<std::size_t>(t)].wait(),
              serve::Status::kOk)
        << "ticket " << t;
    const auto& buf = bufs[static_cast<std::size_t>(t)];
    words.insert(words.end(), buf.begin(), buf.end());
  }
  service.drain();
  *stats = service.stats();
  *healthy_shards = service.healthy_shards();
  *pops = popped.load();
  return words;
}

TEST(ServeChaos, FailedPassServesItsSessionTailInOrderOnItsThread) {
  // The third of four same-session passes fails both attempts: the worker
  // that popped the batch serves passes 3 and 4 again itself, in order,
  // without handing them back to the queue. The session's words must come
  // out exactly as in a fault-free run, and each fill is popped once.
  serve::RngService::Stats clean_stats;
  int clean_healthy = 0;
  int clean_pops = 0;
  const std::vector<std::uint64_t> clean =
      run_queued_passes(nullptr, &clean_stats, &clean_healthy, &clean_pops);
  ASSERT_EQ(clean_stats.completed, 4u);
  EXPECT_EQ(clean_pops, 4);

  auto plan = fault::FaultPlan::parse("shard:0:fail:2:2");
  ASSERT_TRUE(plan.has_value());
  fault::Injector injector(*plan);
  serve::RngService::Stats stats;
  int healthy = 0;
  int pops = 0;
  const std::vector<std::uint64_t> words =
      run_queued_passes(&injector, &stats, &healthy, &pops);

  EXPECT_EQ(words, clean) << "the retried tail reordered the stream";
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.submitted, conserved_total(stats));
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.shards_ejected, 0u);
  EXPECT_EQ(healthy, 4);
  // Passes 1, 2, 3 (twice), then 3 and 4 served again: six dispatches.
  EXPECT_EQ(injector.events(fault::Site::kShardFill, 0), 6u);
  // Each admitted fill is popped, and charged DRR deficit, exactly once.
  EXPECT_EQ(pops, 4) << "a retried fill went back through the queue";
}

/// Two 16-word fills of one cpu-walk session pinned to shard 0, queued
/// while the service is paused. With two workers and max_coalesce 1, each
/// worker pops one of them; the second worker waits until the first fill
/// retires. Returns both fills' words in submission order.
std::vector<std::uint64_t> run_split_session(fault::Injector* injector) {
  auto opts = chaos_options("cpu-walk");
  opts.num_workers = 2;
  opts.max_coalesce = 1;
  opts.max_fill_retries = 0;
  opts.shard_eject_failures = 3;
  opts.injector = injector;
  serve::RngService service(opts);
  auto session = service.try_open_session(0);
  EXPECT_TRUE(session.has_value());
  if (!session.has_value()) return {};

  std::vector<std::uint64_t> words(32);
  const std::span<std::uint64_t> all(words);
  service.pause();
  serve::Ticket first = session->fill_async(all.first(16), 30s);
  serve::Ticket second = session->fill_async(all.last(16), 30s);
  service.resume();
  EXPECT_EQ(first.wait(), serve::Status::kOk);
  EXPECT_EQ(second.wait(), serve::Status::kOk);
  service.drain();
  return words;
}

TEST(ServeChaos, AFailedPassIsServedBeforeItsSessionsNextFill) {
  // The first fill's pass stalls 50 ms and then fails for good (no
  // retries), while the other worker holds the session's second fill.
  // The failed fill must still get the session's first 16 words.
  const std::vector<std::uint64_t> clean = run_split_session(nullptr);
  ASSERT_EQ(clean.size(), 32u);
  for (int round = 0; round < 20; ++round) {
    auto plan = fault::FaultPlan::parse(
        "shard:0:fail:0:1;shard:0:delay:0:1:0.05");
    ASSERT_TRUE(plan.has_value());
    fault::Injector injector(*plan);
    ASSERT_EQ(run_split_session(&injector), clean)
        << "round " << round << ": the session's fills came out reordered";
    EXPECT_EQ(injector.events(fault::Site::kShardFill, 0), 3u);
  }
}

TEST(ServeChaos, RandomizedPlanConservesEveryRequest) {
  // Seeded chaos sweep over the pipeline sites (h2d/d2h/feed/shard). The
  // CI chaos job rotates HPRNG_CHAOS_SEED; any failure names the seed, so
  // every run is replayable.
  std::uint64_t chaos_seed = 0xC8A05;
  if (const char* env = std::getenv("HPRNG_CHAOS_SEED")) {
    chaos_seed = std::strtoull(env, nullptr, 0);
  }
  SCOPED_TRACE("HPRNG_CHAOS_SEED=" + std::to_string(chaos_seed));

  const auto plan = fault::FaultPlan::random(chaos_seed, /*points=*/8,
                                             /*max_target=*/3,
                                             /*max_after=*/32);
  SCOPED_TRACE("plan=" + plan.to_string());
  fault::Injector injector(plan);
  obs::MetricsRegistry metrics;
  auto opts = chaos_options("hybrid");
  opts.injector = &injector;
  serve::RngService service(opts, &metrics);

  constexpr int kClients = 8;
  constexpr int kFills = 4;
  constexpr std::size_t kWords = 16;
  std::vector<serve::Session> sessions;
  for (int c = 0; c < kClients; ++c) {
    sessions.push_back(service.open_session());
  }
  std::vector<std::vector<std::uint64_t>> streams(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int f = 0; f < kFills; ++f) {
        std::vector<std::uint64_t> buf(kWords);
        const auto status =
            sessions[static_cast<std::size_t>(c)].fill(buf, 20s);
        if (status == serve::Status::kOk) {
          streams[static_cast<std::size_t>(c)].insert(
              streams[static_cast<std::size_t>(c)].end(), buf.begin(),
              buf.end());
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.drain();

  // Conservation under arbitrary injected chaos — the tentpole invariant.
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kClients) * kFills);
  EXPECT_EQ(stats.submitted, conserved_total(stats));

  // Served words stay disjoint across clients even through failovers.
  std::map<std::uint64_t, int> owner;
  for (int c = 0; c < kClients; ++c) {
    for (std::uint64_t v : streams[static_cast<std::size_t>(c)]) {
      auto [it, inserted] = owner.emplace(v, c);
      EXPECT_TRUE(inserted || it->second == c)
          << "streams " << it->second << " and " << c << " overlap";
    }
  }

  // Instrument sanity at the quiescent fence: engine accounting and the
  // metrics catalogue agree on the headline counters.
  EXPECT_DOUBLE_EQ(metrics.counter("hprng.serve.requests_failed").value(),
                   static_cast<double>(stats.failed));
  EXPECT_DOUBLE_EQ(metrics.counter("hprng.serve.retry.attempts").value(),
                   static_cast<double>(stats.retries));
  EXPECT_DOUBLE_EQ(
      metrics.counter("hprng.serve.retry.failovers").value(),
      static_cast<double>(stats.failovers));
  EXPECT_DOUBLE_EQ(metrics.counter("hprng.serve.shards_ejected").value(),
                   static_cast<double>(stats.shards_ejected));
  EXPECT_DOUBLE_EQ(metrics.gauge("hprng.serve.shards_healthy").value(),
                   static_cast<double>(service.healthy_shards()));
}

}  // namespace
}  // namespace hprng
