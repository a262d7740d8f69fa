// Tests for hprng::serve (docs/SERVING.md): leased-substream disjointness
// (the acceptance property: no two concurrently leased streams overlap),
// the overload rule (a full queue rejects and never blocks), the two
// deadline paths (a waiter times out, a worker sheds an expired request at
// claim), the fill_async settle hook, queue-depth accounting at fences,
// request coalescing, and the lease grant/release protocol under thread
// hammering (the TSan target).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cpu_walk_prng.hpp"
#include "obs/metrics.hpp"
#include "prng/registry.hpp"
#include "prng/seed_seq.hpp"
#include "serve/drr_queue.hpp"
#include "serve/lease.hpp"
#include "serve/service.hpp"

namespace hprng {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------ SeedSequence

TEST(SeedSequence, DerivedSeedsAreUnique) {
  prng::SeedSequence seq(0xDEADBEEFCAFEF00Dull);
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < (1u << 16); ++i) {
    EXPECT_TRUE(seen.insert(seq.derive(i)).second) << "collision at " << i;
  }
}

TEST(SeedSequence, SplitDomainsDoNotCollide) {
  // Shard domains (split(s)) and the lease domain must hand out disjoint
  // seeds — the property the serving pool relies on.
  prng::SeedSequence root(42);
  std::set<std::uint64_t> seen;
  for (std::uint64_t domain = 0; domain < 8; ++domain) {
    prng::SeedSequence sub = root.split(domain);
    for (std::uint64_t i = 0; i < 4096; ++i) {
      EXPECT_TRUE(seen.insert(sub.derive(i)).second)
          << "collision in domain " << domain << " at " << i;
    }
  }
}

TEST(SeedSequence, NextWalksTheDerivationIndex) {
  prng::SeedSequence a(7), b(7);
  EXPECT_EQ(a.next(), b.derive(0));
  EXPECT_EQ(a.next(), b.derive(1));
  EXPECT_EQ(a.next(), b.derive(2));
}

TEST(CpuWalkPrng, DiscardMatchesSequentialDraws) {
  core::CpuWalkPrng a(123), b(123);
  a.discard(57);
  for (int i = 0; i < 57; ++i) (void)b.next_u64();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// ------------------------------------------------------------ LeaseManager

TEST(LeaseManager, GrantsDisjointSlotsAndReclaims) {
  serve::LeaseManager mgr(2, 3, 99);
  std::vector<serve::Lease> leases;
  std::set<std::pair<int, std::uint64_t>> slots;
  std::set<std::uint64_t> ids, seeds;
  for (int i = 0; i < 6; ++i) {
    auto lease = mgr.grant();
    ASSERT_TRUE(lease.has_value());
    EXPECT_TRUE(slots.insert({lease->shard, lease->slot}).second);
    EXPECT_TRUE(ids.insert(lease->id).second);
    EXPECT_TRUE(seeds.insert(lease->seed).second);
    leases.push_back(*lease);
  }
  EXPECT_FALSE(mgr.grant().has_value()) << "pool exhausted";
  mgr.release(leases.back());
  auto again = mgr.grant();
  ASSERT_TRUE(again.has_value());
  // The slot is recycled but the lease id and seed are fresh.
  EXPECT_EQ(again->slot, leases.back().slot);
  EXPECT_EQ(again->shard, leases.back().shard);
  EXPECT_TRUE(ids.insert(again->id).second);
  EXPECT_TRUE(seeds.insert(again->seed).second);
}

TEST(LeaseManager, PinnedGrantsLandOnTheKeyedShard) {
  serve::LeaseManager mgr(4, 2, 7);
  auto lease = mgr.grant_on(10);  // 10 % 4 == 2
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->shard, 2);
}

// ------------------------------------------------- stream disjointness

serve::ServiceOptions small_options(const std::string& backend) {
  serve::ServiceOptions opts;
  opts.backend = backend;
  opts.num_shards = 4;
  opts.max_leases_per_shard = 16;
  opts.num_workers = 4;
  opts.queue_capacity = 256;
  opts.max_coalesce = 8;
  return opts;
}

/// The acceptance property: across >= 64 concurrently leased substreams,
/// with every client hammering fills from its own thread, no value appears
/// in two DIFFERENT streams (birthday bound: ~2^14 draws from a 2^64 space
/// makes an honest cross-stream collision astronomically unlikely, so any
/// hit is an overlap bug). Within a stream a short-walk revisit is
/// legitimate — an l-step expander walk can return to a recent vertex —
/// so repeats inside one stream are not counted.
void run_disjointness(const std::string& backend) {
  auto opts = small_options(backend);
  serve::RngService service(opts);

  constexpr int kClients = 64;
  constexpr int kFillsPerClient = 4;
  constexpr std::size_t kFillWords = 64;

  std::vector<serve::Session> sessions;
  sessions.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    sessions.push_back(service.open_session());
  }

  std::vector<std::vector<std::uint64_t>> streams(kClients);
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int f = 0; f < kFillsPerClient; ++f) {
        std::vector<std::uint64_t> buf(kFillWords);
        if (sessions[c].fill(buf) != serve::Status::kOk) {
          failures.fetch_add(1);
          return;
        }
        streams[c].insert(streams[c].end(), buf.begin(), buf.end());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  std::size_t total = 0;
  std::map<std::uint64_t, int> owner;  // value -> stream that produced it
  for (int c = 0; c < kClients; ++c) {
    total += streams[c].size();
    for (std::uint64_t v : streams[c]) {
      auto [it, inserted] = owner.emplace(v, c);
      EXPECT_TRUE(inserted || it->second == c)
          << "value 0x" << std::hex << v << std::dec << " appears in streams "
          << it->second << " and " << c << ": leased streams overlap";
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kClients) * kFillsPerClient *
                       kFillWords);

  const auto stats = service.stats();
  EXPECT_EQ(stats.completed,
            static_cast<std::uint64_t>(kClients) * kFillsPerClient);
  EXPECT_EQ(stats.numbers_served, total);
}

TEST(ServeDisjointness, HybridLeasedStreamsDoNotOverlap) {
  run_disjointness("hybrid");
}

TEST(ServeDisjointness, CpuWalkLeasedStreamsDoNotOverlap) {
  run_disjointness("cpu-walk");
}

TEST(ServeDisjointness, PairwiseCrossCorrelationIsFlat) {
  // Independence, not just disjointness: +-1 sequences from the top bit of
  // 64 concurrently leased cpu-walk streams must decorrelate pairwise.
  // Seeds are fixed, so this is deterministic: a 5-sigma bound per pair
  // (2016 pairs) fails only on a real dependence between streams.
  auto opts = small_options("cpu-walk");
  serve::RngService service(opts);

  constexpr int kClients = 64;
  constexpr std::size_t kDraws = 4096;
  std::vector<std::vector<double>> signs(kClients);
  std::vector<serve::Session> sessions;
  for (int c = 0; c < kClients; ++c) {
    sessions.push_back(service.open_session());
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::uint64_t> buf(kDraws);
      if (sessions[c].fill(buf) != serve::Status::kOk) return;
      signs[c].reserve(kDraws);
      for (std::uint64_t v : buf) {
        signs[c].push_back((v >> 63) != 0 ? 1.0 : -1.0);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const double bound = 5.0 / std::sqrt(static_cast<double>(kDraws));
  double worst = 0.0;
  for (int a = 0; a < kClients; ++a) {
    ASSERT_EQ(signs[a].size(), kDraws);
    for (int b = a + 1; b < kClients; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < kDraws; ++i) dot += signs[a][i] * signs[b][i];
      const double r = dot / static_cast<double>(kDraws);
      worst = std::max(worst, std::abs(r));
      ASSERT_LT(std::abs(r), bound) << "streams " << a << " and " << b;
    }
  }
  // Sanity: the worst pair should not be suspiciously perfect either.
  EXPECT_GT(worst, 0.0);
}

// ------------------------------------------------------------ backpressure

TEST(ServeBackpressure, RejectNeverBlocksPastDeadline) {
  auto opts = small_options("cpu-walk");
  opts.queue_capacity = 4;
  opts.num_workers = 1;
  serve::RngService service(opts);
  serve::Session session = service.open_session();

  service.pause();  // freeze the queue so it can actually fill up
  std::vector<std::vector<std::uint64_t>> bufs(8, std::vector<std::uint64_t>(8));
  std::vector<serve::Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(service.open_session().fill_async(bufs[i], 10s));
  }
  ASSERT_EQ(service.stats().queue_depth, 4u);

  // Queue full, workers parked, generous deadline: the full queue must
  // answer immediately — nowhere near the 10 s deadline.
  const auto start = std::chrono::steady_clock::now();
  const serve::Status status = session.fill(bufs[7], 10s);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(status, serve::Status::kRejected);
  EXPECT_LT(elapsed, 1s) << "a full queue blocked the caller";

  service.resume();
  for (serve::Ticket& t : tickets) EXPECT_EQ(t.wait(), serve::Status::kOk);
  EXPECT_EQ(service.stats().rejected, 1u);
}

// --------------------------------------------------------------- deadlines

constexpr std::uint64_t kUntouched = 0x5EED5EED5EED5EEDull;

TEST(ServeDeadlines, QueuedWaiterTimesOutUntouchedAndRefundedOnce) {
  auto opts = small_options("cpu-walk");
  opts.num_workers = 1;
  serve::TenantPolicy capped;
  capped.quota_words = 1000;
  opts.tenants.overrides[7] = capped;
  serve::RngService service(opts);
  serve::RngService::SessionSpec spec;
  spec.tenant = 7;
  auto session = service.try_open_session(spec);
  ASSERT_TRUE(session.has_value());

  service.pause();  // keep the request queued past its deadline
  std::vector<std::uint64_t> buf(8, kUntouched);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(session->fill(buf, 50ms), serve::Status::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 50ms)
      << "timed out before the deadline";

  // The worker now pops the abandoned request: it must neither write the
  // buffer nor settle the request a second time.
  service.resume();
  service.drain();
  for (const std::uint64_t v : buf) EXPECT_EQ(v, kUntouched);
  const auto ts = service.tenant_stats(7);
  EXPECT_EQ(ts.words_charged, 8u);
  EXPECT_EQ(ts.words_refunded, 8u);  // exactly once
  EXPECT_EQ(ts.quota_used, 0u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.numbers_served, 0u);
}

TEST(ServeDeadlines, AsyncTicketExpiredInQueueIsShedAtClaim) {
  auto opts = small_options("cpu-walk");
  opts.num_workers = 1;
  serve::RngService service(opts);
  serve::Session session = service.open_session();

  service.pause();
  std::vector<std::uint64_t> buf(8, kUntouched);
  serve::Ticket ticket = session.fill_async(buf, 1ms);
  std::this_thread::sleep_for(10ms);  // expires queued; nobody is waiting
  service.resume();
  service.drain();  // the worker claims it and finds the deadline passed

  EXPECT_EQ(ticket.wait(), serve::Status::kShed);
  for (const std::uint64_t v : buf) EXPECT_EQ(v, kUntouched);
  const auto stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.timed_out, 0u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.numbers_served, 0u);
}

// The settle hook of fill_async runs exactly once with the terminal status,
// on each settling path: abandon() at the caller, a worker serving it, and
// an immediate rejection before fill_async returns.
TEST(ServeDeadlines, SettleHookRunsOnceOnEverySettlePath) {
  auto opts = small_options("cpu-walk");
  opts.num_workers = 1;
  opts.queue_capacity = 1;
  serve::RngService service(opts);
  serve::Session session = service.open_session();
  struct Seen {
    std::atomic<int> calls{0};
    std::atomic<serve::Status> status{serve::Status::kOk};
  };
  const auto hook = [](Seen& seen) {
    return [&seen](serve::Status s) {
      seen.status.store(s);
      seen.calls.fetch_add(1);
    };
  };

  service.pause();
  std::vector<std::uint64_t> buf(8, kUntouched);
  Seen abandoned;
  serve::Ticket t1 = session.fill_async(buf, 10s, hook(abandoned));
  EXPECT_GT(t1.deadline(), std::chrono::steady_clock::now() + 9s);
  Seen rejected;  // the queue's one slot is taken: rejected at once
  std::vector<std::uint64_t> other(8);
  serve::Ticket t2 = session.fill_async(other, 10s, hook(rejected));
  EXPECT_EQ(rejected.calls.load(), 1);
  EXPECT_EQ(rejected.status.load(), serve::Status::kRejected);

  EXPECT_TRUE(t1.abandon());
  EXPECT_EQ(abandoned.calls.load(), 1);
  EXPECT_EQ(abandoned.status.load(), serve::Status::kTimeout);
  EXPECT_FALSE(t1.abandon());
  EXPECT_FALSE(t2.abandon());  // settled already; no second status
  EXPECT_EQ(t1.wait(), serve::Status::kTimeout);
  EXPECT_EQ(t2.wait(), serve::Status::kRejected);

  service.resume();
  service.drain();  // the abandoned request leaves the queue's one slot
  Seen served;
  serve::Ticket t3 = session.fill_async(buf, 10s, hook(served));
  EXPECT_EQ(t3.wait(), serve::Status::kOk);
  service.drain();  // the hook runs after wait() can return
  EXPECT_EQ(served.calls.load(), 1);
  EXPECT_EQ(served.status.load(), serve::Status::kOk);
  EXPECT_FALSE(t3.abandon());
  EXPECT_EQ(abandoned.calls.load(), 1);
  EXPECT_EQ(rejected.calls.load(), 1);
  EXPECT_EQ(served.calls.load(), 1);
  EXPECT_EQ(service.stats().timed_out, 1u);
}

// ------------------------------------------------------- queue accounting

TEST(ServeAccounting, QueueDepthGaugeMatchesEngineAccountingAtFences) {
  obs::MetricsRegistry metrics;
  auto opts = small_options("cpu-walk");
  opts.num_workers = 2;
  serve::RngService service(opts, &metrics);

  auto expect_fence = [&](std::size_t expected_depth) {
    const auto stats = service.stats();
    EXPECT_EQ(stats.queue_depth, expected_depth);
    EXPECT_DOUBLE_EQ(metrics.gauge("hprng.serve.queue_depth").value(),
                     static_cast<double>(stats.queue_depth));
  };

  expect_fence(0);
  std::vector<std::vector<std::uint64_t>> bufs(
      12, std::vector<std::uint64_t>(16));
  for (int round = 1; round <= 3; ++round) {
    const std::size_t k = static_cast<std::size_t>(4 * round);
    service.pause();
    std::vector<serve::Ticket> tickets;
    std::vector<serve::Session> sessions;
    for (std::size_t i = 0; i < k; ++i) {
      sessions.push_back(service.open_session());
      tickets.push_back(sessions.back().fill_async(bufs[i], 10s));
    }
    expect_fence(k);  // paused: exactly the k submissions are queued
    service.resume();
    service.drain();
    expect_fence(0);  // drained: nothing queued, nothing in flight
    for (serve::Ticket& t : tickets) {
      EXPECT_EQ(t.wait(), serve::Status::kOk);
    }
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 24u);
  EXPECT_EQ(stats.completed, 24u);
  EXPECT_DOUBLE_EQ(metrics.counter("hprng.serve.requests_completed").value(),
                   static_cast<double>(stats.completed));
  EXPECT_DOUBLE_EQ(metrics.counter("hprng.serve.numbers_served").value(),
                   static_cast<double>(stats.numbers_served));
}

TEST(ServeAccounting, StatusesConserveSubmissions) {
  auto opts = small_options("cpu-walk");
  opts.queue_capacity = 2;
  opts.num_workers = 1;
  serve::RngService service(opts);

  std::vector<serve::Session> sessions;
  for (int i = 0; i < 8; ++i) sessions.push_back(service.open_session());
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::uint64_t> buf(256);
      for (int i = 0; i < 32; ++i) (void)sessions[c].fill(buf, 5s);
    });
  }
  for (std::thread& t : clients) t.join();
  service.drain();

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 8u * 32u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.rejected + stats.shed +
                                 stats.timed_out + stats.closed);
}

// ------------------------------------------------------------- coalescing

TEST(ServeCoalescing, SmallRequestsShareOneBackendPass) {
  auto opts = small_options("cpu-walk");
  opts.num_workers = 1;
  opts.max_coalesce = 8;
  serve::RngService service(opts);

  // Six clients pinned to one shard, submitted while paused: a single
  // worker pops them together and serves ONE batched fill.
  std::vector<serve::Session> sessions;
  for (int i = 0; i < 6; ++i) {
    auto session = service.try_open_session(/*shard_key=*/0);
    ASSERT_TRUE(session.has_value());
    ASSERT_EQ(session->lease().shard, 0);
    sessions.push_back(*session);
  }
  service.pause();
  std::vector<std::vector<std::uint64_t>> bufs(6,
                                               std::vector<std::uint64_t>(32));
  std::vector<serve::Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(sessions[i].fill_async(bufs[i], 10s));
  }
  service.resume();
  for (serve::Ticket& t : tickets) ASSERT_EQ(t.wait(), serve::Status::kOk);

  const auto stats = service.stats();
  EXPECT_EQ(stats.batches, 1u) << "six coalescable requests took "
                               << stats.batches << " backend passes";
  EXPECT_EQ(stats.numbers_served, 6u * 32u);
}

TEST(ServeCoalescing, SameSessionRequestsAreServedInOrder) {
  auto opts = small_options("cpu-walk");
  opts.num_workers = 1;  // single worker: strict FIFO across the queue
  serve::RngService service(opts);
  serve::Session session = service.open_session();

  service.pause();
  std::vector<std::uint64_t> first(16), second(16);
  serve::Ticket t1 = session.fill_async(first, 10s);
  serve::Ticket t2 = session.fill_async(second, 10s);
  service.resume();
  ASSERT_EQ(t1.wait(), serve::Status::kOk);
  ASSERT_EQ(t2.wait(), serve::Status::kOk);

  // Both were in one popped batch but must land in separate passes (a slot
  // appears at most once per pass) in submission order: the replayed
  // standalone stream must match first ++ second.
  core::CpuWalkPrng replay(session.lease().seed,
                           core::CpuWalkConfig{
                               .walk_len = service.options().walk_len});
  for (std::uint64_t v : first) EXPECT_EQ(v, replay.next_u64());
  for (std::uint64_t v : second) EXPECT_EQ(v, replay.next_u64());
  EXPECT_EQ(service.stats().batches, 2u);
}

// ------------------------------------------------------- in-place serving

/// A fill_async settle hook that records the thread it ran on. The hook
/// runs after wait() can return, so read the thread through settled_on().
struct SettleThread {
  std::atomic<bool> ran{false};
  std::thread::id thread;

  std::function<void(serve::Status)> hook() {
    return [this](serve::Status) {
      thread = std::this_thread::get_id();
      ran.store(true, std::memory_order_release);
    };
  }
  std::thread::id settled_on() const {
    while (!ran.load(std::memory_order_acquire)) std::this_thread::yield();
    return thread;
  }
};

/// A session that has been served once, on an idle service.
serve::Session served_session(serve::RngService& service,
                              std::uint64_t shard_key = 0) {
  auto session = service.try_open_session(shard_key);
  EXPECT_TRUE(session.has_value());
  std::vector<std::uint64_t> first(16);
  EXPECT_EQ(session->fill(first), serve::Status::kOk);
  service.drain();
  return *session;
}

TEST(ServeInPlace, IdleServiceServesASecondSmallFillOnTheCallersThread) {
  obs::MetricsRegistry metrics;
  serve::RngService service(small_options("cpu-walk"), &metrics);
  serve::Session session = service.open_session();
  std::vector<std::uint64_t> first(16), second(16);
  ASSERT_EQ(session.fill(first), serve::Status::kOk);
  service.drain();  // idle: nothing queued, no batch in flight
  const auto before = service.stats();

  SettleThread settled;
  serve::Ticket ticket = session.fill_async(second, 10s, settled.hook());
  EXPECT_TRUE(settled.ran.load()) << "settled after fill_async returned";
  EXPECT_EQ(ticket.wait(), serve::Status::kOk);
  EXPECT_EQ(settled.settled_on(), std::this_thread::get_id());

  const auto after = service.stats();
  EXPECT_EQ(after.batches, before.batches + 1);
  EXPECT_EQ(before.served_in_place, 0u);
  EXPECT_EQ(after.served_in_place, 1u);
  EXPECT_DOUBLE_EQ(metrics.counter("hprng.serve.fills_in_place").value(),
                   1.0);
  // The in-place fill continues the session's stream.
  core::CpuWalkPrng replay(session.lease().seed,
                           core::CpuWalkConfig{
                               .walk_len = service.options().walk_len});
  for (std::uint64_t v : first) EXPECT_EQ(v, replay.next_u64());
  for (std::uint64_t v : second) EXPECT_EQ(v, replay.next_u64());
}

TEST(ServeInPlace, ASessionsFirstFillSettlesOnAWorker) {
  serve::RngService service(small_options("cpu-walk"));
  serve::Session session = service.open_session();
  std::vector<std::uint64_t> buf(16);
  SettleThread settled;
  serve::Ticket ticket = session.fill_async(buf, 10s, settled.hook());
  EXPECT_EQ(ticket.wait(), serve::Status::kOk);
  EXPECT_NE(settled.settled_on(), std::this_thread::get_id());
}

TEST(ServeInPlace, AFillOverTheSizeCapSettlesOnAWorker) {
  serve::RngService service(small_options("cpu-walk"));
  serve::Session session = served_session(service);

  std::vector<std::uint64_t> at_cap(256);
  SettleThread in_place;
  EXPECT_EQ(session.fill_async(at_cap, 10s, in_place.hook()).wait(),
            serve::Status::kOk);
  EXPECT_EQ(in_place.settled_on(), std::this_thread::get_id());

  service.drain();
  std::vector<std::uint64_t> over_cap(257);
  SettleThread queued;
  EXPECT_EQ(session.fill_async(over_cap, 10s, queued.hook()).wait(),
            serve::Status::kOk);
  EXPECT_NE(queued.settled_on(), std::this_thread::get_id());
}

TEST(ServeInPlace, AFillSubmittedWhilePausedSettlesOnAWorker) {
  serve::RngService service(small_options("cpu-walk"));
  serve::Session session = served_session(service);

  service.pause();
  std::vector<std::uint64_t> buf(16);
  SettleThread settled;
  serve::Ticket ticket = session.fill_async(buf, 10s, settled.hook());
  EXPECT_EQ(service.stats().queue_depth, 1u);
  EXPECT_FALSE(settled.ran.load());
  service.resume();
  EXPECT_EQ(ticket.wait(), serve::Status::kOk);
  EXPECT_NE(settled.settled_on(), std::this_thread::get_id());
}

TEST(ServeInPlace, AFillSubmittedBesideAnotherSessionsBatchSettlesOnAWorker) {
  auto opts = small_options("cpu-walk");
  opts.num_workers = 2;
  serve::RngService service(opts);
  serve::Session session = served_session(service, /*shard_key=*/0);
  auto other = service.try_open_session(/*shard_key=*/1);
  ASSERT_TRUE(other.has_value());

  // The other session's first fill is a worker batch; its hook holds the
  // batch in flight until released.
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::vector<std::uint64_t> other_buf(16);
  serve::Ticket held =
      other->fill_async(other_buf, 10s, [&](serve::Status) {
        entered.store(true);
        for (int i = 0; i < 10000 && !release.load(); ++i) {
          std::this_thread::sleep_for(1ms);
        }
      });
  for (int i = 0; i < 10000 && !entered.load(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(entered.load()) << "the other session's fill never settled";

  std::vector<std::uint64_t> buf(16);
  SettleThread settled;
  serve::Ticket ticket = session.fill_async(buf, 10s, settled.hook());
  EXPECT_EQ(ticket.wait(), serve::Status::kOk);
  EXPECT_NE(settled.settled_on(), std::this_thread::get_id());
  release.store(true);
  EXPECT_EQ(held.wait(), serve::Status::kOk);
}

// ----------------------------------------------------- lease lifecycle

TEST(ServeLeases, ReclaimedSlotServesAFreshStream) {
  auto opts = small_options("cpu-walk");
  serve::RngService service(opts);

  serve::Lease first_lease;
  std::vector<std::uint64_t> first(64);
  {
    auto session = service.try_open_session(/*shard_key=*/1);
    ASSERT_TRUE(session.has_value());
    first_lease = session->lease();
    ASSERT_EQ(session->fill(first), serve::Status::kOk);
  }  // client handle gone: the lease returns with it
  // A served request drops its session reference before it settles, so
  // no fence is needed: the slot below is deterministically the
  // reclaimed one.

  auto session = service.try_open_session(/*shard_key=*/1);
  ASSERT_TRUE(session.has_value());
  // LIFO reclamation hands back the same slot under a fresh lease id/seed.
  EXPECT_EQ(session->lease().slot, first_lease.slot);
  EXPECT_NE(session->lease().id, first_lease.id);
  EXPECT_NE(session->lease().seed, first_lease.seed);

  std::vector<std::uint64_t> second(64);
  ASSERT_EQ(session->fill(second), serve::Status::kOk);
  std::set<std::uint64_t> overlap(first.begin(), first.end());
  for (std::uint64_t v : second) {
    EXPECT_EQ(overlap.count(v), 0u) << "reclaimed slot replayed old stream";
  }
}

// A settled fill no longer pins its lease, even while the worker that
// served it is still inside the settle hook: a client that drops its
// handles once wait() returns gets the lease back at once.
TEST(ServeLeases, SettledFillStopsPinningItsLeaseWhileItsHookRuns) {
  serve::RngService service(small_options("cpu-walk"));
  std::atomic<bool> release{false};
  {
    serve::Session session = service.open_session();
    std::vector<std::uint64_t> buf(16);
    // A session's first fill is queued, so a worker runs this hook.
    serve::Ticket ticket = session.fill_async(buf, 10s, [&](serve::Status) {
      for (int i = 0; i < 10000 && !release.load(); ++i) {
        std::this_thread::sleep_for(1ms);
      }
    });
    ASSERT_EQ(ticket.wait(), serve::Status::kOk);
  }  // the Session and the Ticket go while the hook still blocks
  EXPECT_EQ(service.stats().active_leases, 0u)
      << "the serving worker still pins the lease";
  release.store(true);
  service.drain();
  EXPECT_EQ(service.stats().active_leases, 0u);
}

TEST(ServeLeases, GrantReleaseHammerStaysConsistent) {
  // The TSan target: 8 threads churn sessions against a pool smaller than
  // the demand, racing grant/attach against release/detach and in-flight
  // fills that keep leases alive past their session handles.
  auto opts = small_options("cpu-walk");
  opts.num_shards = 2;
  opts.max_leases_per_shard = 4;  // 8 slots for 8 threads: constant churn
  opts.num_workers = 2;
  serve::RngService service(opts);

  std::vector<std::thread> threads;
  std::atomic<int> granted{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto session = service.try_open_session();
        if (!session.has_value()) continue;  // pool momentarily exhausted
        granted.fetch_add(1);
        std::vector<std::uint64_t> buf(8);
        serve::Ticket ticket = session->fill_async(buf, 5s);
        if (i % 2 == 0) {
          // Drop the session handle while the request is in flight; the
          // request's keepalive must hold the lease until served.
          session.reset();
        }
        EXPECT_EQ(ticket.wait(), serve::Status::kOk);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  service.drain();

  const auto stats = service.stats();
  EXPECT_GT(granted.load(), 0);
  EXPECT_EQ(stats.active_leases, 0u);
  EXPECT_EQ(stats.leases_granted, stats.leases_released);
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(granted.load()));
}

// ----------------------------------------------------------- odds and ends

TEST(ServeQueue, GateFreezesConsumersNotProducers) {
  std::atomic<bool> gate{false};
  serve::DrrQueue<int> queue(
      4, &gate, [](const int&) { return std::uint64_t{0}; },
      [](const int&) { return std::uint64_t{1}; }, nullptr, 1);
  gate.store(true);
  EXPECT_EQ(queue.try_push(1), serve::DrrQueue<int>::PushResult::kOk);
  EXPECT_EQ(queue.size(), 1u);  // producer unaffected by the gate

  std::vector<int> out;
  std::thread consumer([&] { (void)queue.pop_batch(&out, 4); });
  std::this_thread::sleep_for(20ms);
  EXPECT_TRUE(out.empty()) << "gated consumer popped";
  gate.store(false);
  queue.wake();
  consumer.join();
  EXPECT_EQ(out.size(), 1u);
}

TEST(ServeService, BaselineBackendServesRegistryGenerators) {
  auto opts = small_options("mt19937");
  serve::RngService service(opts);
  serve::Session session = service.open_session();
  std::vector<std::uint64_t> buf(32);
  ASSERT_EQ(session.fill(buf), serve::Status::kOk);
  // A seed-addressed baseline stream replays exactly from the lease seed.
  auto replay = prng::make_by_name("mt19937", session.lease().seed);
  for (std::uint64_t v : buf) EXPECT_EQ(v, replay->next_u64());
}

}  // namespace
}  // namespace hprng
