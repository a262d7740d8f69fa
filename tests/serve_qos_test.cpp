// Tests for the multi-tenant QoS layer (docs/QOS.md): DRR schedule
// correctness and its worker-count-independence determinism contract,
// deterministic TokenBucket refill arithmetic with bit-exact mid-refill
// save/restore, admission quota accounting (charge at admission, exactly
// one refund on a non-kOk terminal, conservation at fences), the
// kRejectedQuota status surface, and the TENQ snapshot round trip.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "serve/drr_queue.hpp"
#include "serve/service.hpp"
#include "serve/tenant.hpp"

namespace hprng {
namespace {

using namespace std::chrono_literals;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "hprng_qos_test_" + name;
}

// ------------------------------------------------------------- DrrQueue

struct Item {
  std::uint64_t tenant = 0;
  std::uint64_t cost = 0;
  int id = 0;
};

using Queue = serve::DrrQueue<Item>;

Queue make_queue(const std::map<std::uint64_t, std::uint64_t>& weights,
                 std::uint64_t quantum, std::size_t capacity = 1024) {
  return Queue(
      capacity, nullptr, [](const Item& i) { return i.tenant; },
      [](const Item& i) { return i.cost; },
      [weights](std::uint64_t t) {
        const auto it = weights.find(t);
        return it == weights.end() ? std::uint64_t{1} : it->second;
      },
      quantum);
}

TEST(DrrQueue, PopOrderMatchesHandComputedSchedule) {
  // quantum 4, weight(t1)=1, weight(t2)=2; four cost-4 items.
  // Visit t1: deficit 4, serve A (deficit 0); B needs 4 > 0, rotate.
  // Visit t2: deficit 8, serve C (4), serve D (0), t2 drains out.
  // Revisit t1: deficit 4, serve B. Schedule: A C D B.
  Queue q = make_queue({{1, 1}, {2, 2}}, 4);
  std::vector<int> order;
  q.set_pop_listener([&](std::uint64_t, const Item& i) {
    order.push_back(i.id);
  });
  ASSERT_EQ(q.try_push({1, 4, 0}), Queue::PushResult::kOk);  // A
  ASSERT_EQ(q.try_push({1, 4, 1}), Queue::PushResult::kOk);  // B
  ASSERT_EQ(q.try_push({2, 4, 2}), Queue::PushResult::kOk);  // C
  ASSERT_EQ(q.try_push({2, 4, 3}), Queue::PushResult::kOk);  // D
  std::vector<Item> out;
  while (q.size() > 0) q.pop_batch(&out, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 1}));
  // Four pops but only three scheduler visits granted deficit twice for
  // t1? No: t1 visited twice (A, then B) and t2 once = 3 grants.
  EXPECT_EQ(q.rounds(), 3u);
}

TEST(DrrQueue, WeightedSharesAreProportionalUnderSaturation) {
  // Equal-cost backlogs, weights 1:2:4, quantum == cost: each full round
  // serves exactly (1, 2, 4) items, so the first 5 rounds' 35 pops split
  // exactly 5 / 10 / 20.
  Queue q = make_queue({{1, 1}, {2, 2}, {3, 4}}, 8);
  std::map<std::uint64_t, int> served;
  q.set_pop_listener([&](std::uint64_t t, const Item&) { ++served[t]; });
  for (int i = 0; i < 60; ++i) {
    ASSERT_EQ(q.try_push({1, 8, i}), Queue::PushResult::kOk);
    ASSERT_EQ(q.try_push({2, 8, i}), Queue::PushResult::kOk);
    ASSERT_EQ(q.try_push({3, 8, i}), Queue::PushResult::kOk);
  }
  std::vector<Item> out;
  for (int i = 0; i < 35; ++i) q.pop_batch(&out, 1);
  EXPECT_EQ(served[1], 5);
  EXPECT_EQ(served[2], 10);
  EXPECT_EQ(served[3], 20);
}

// push_or_take() pops an item at once only when the queue is idle and
// the item is takeable, and that pop is a scheduled pop like any other.
TEST(DrrQueue, IdleTakeIsAScheduledPopAndAnythingElseQueues) {
  std::atomic<bool> gate{false};
  Queue q(
      8, &gate, [](const Item& i) { return i.tenant; },
      [](const Item& i) { return i.cost; }, nullptr, 4);
  std::vector<int> popped;
  q.set_pop_listener([&](std::uint64_t, const Item& i) {
    popped.push_back(i.id);
  });
  std::atomic<int> in_flight{0};
  const auto yes = [](const Item&) { return true; };
  const auto no = [](const Item&) { return false; };

  // Cost 10 at quantum 4 takes three grants, as a pop_batch() would.
  EXPECT_EQ(q.push_or_take({1, 10, 0}, &in_flight, yes),
            Queue::PushResult::kTaken);
  EXPECT_EQ(in_flight.load(), 1);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.rounds(), 3u);
  EXPECT_EQ(q.push_or_take({1, 1, 1}, &in_flight, yes),
            Queue::PushResult::kOk) << "a batch is in flight";
  in_flight = 0;
  EXPECT_EQ(q.push_or_take({1, 1, 2}, &in_flight, yes),
            Queue::PushResult::kOk) << "an item is queued";
  std::vector<Item> out;
  q.pop_batch(&out, 8);
  in_flight = 0;
  EXPECT_EQ(q.push_or_take({1, 1, 3}, &in_flight, no),
            Queue::PushResult::kOk) << "not takeable";
  q.pop_batch(&out, 8);
  gate = true;
  EXPECT_EQ(q.push_or_take({1, 1, 4}, &in_flight, yes),
            Queue::PushResult::kOk) << "gated";
  EXPECT_EQ(in_flight.load(), 0);
  q.close();
  EXPECT_EQ(q.push_or_take({1, 1, 5}, &in_flight, yes),
            Queue::PushResult::kClosed);
  EXPECT_EQ(popped, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.size(), 1u);
}

// A fixed pre-enqueued trace must be served in one global order no matter
// how many consumers drain it or how their batches interleave — the
// docs/QOS.md §5 determinism contract. The 1-consumer direct drain is the
// reference ("0 workers": no concurrency at all).
TEST(DrrQueue, ServiceOrderIsIndependentOfConsumerCount) {
  const std::map<std::uint64_t, std::uint64_t> weights{{1, 1}, {2, 3},
                                                       {3, 2}, {4, 1}};
  std::mt19937_64 rng(0xC0FFEE);
  std::vector<Item> trace;
  for (int i = 0; i < 200; ++i) {
    trace.push_back({1 + rng() % 4, 1 + rng() % 64, i});
  }

  const auto run = [&](int consumers) {
    Queue q = make_queue(weights, 16);
    std::vector<int> order;
    q.set_pop_listener([&](std::uint64_t, const Item& i) {
      order.push_back(i.id);  // under the queue lock: exact service order
    });
    for (const Item& i : trace) {
      EXPECT_EQ(q.try_push(i), Queue::PushResult::kOk);
    }
    std::atomic<std::size_t> popped{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < consumers; ++t) {
      threads.emplace_back([&] {
        std::vector<Item> out;
        for (;;) {
          out.clear();
          const std::size_t n = q.pop_batch(&out, 4);
          if (n == 0) return;  // closed and empty
          popped.fetch_add(n);
        }
      });
    }
    while (popped.load() < trace.size()) std::this_thread::yield();
    q.close();
    for (std::thread& t : threads) t.join();
    return order;
  };

  const std::vector<int> reference = run(1);
  ASSERT_EQ(reference.size(), trace.size());
  EXPECT_EQ(run(3), reference);
  EXPECT_EQ(run(8), reference);
}

// ----------------------------------------------------------- TokenBucket

TEST(TokenBucket, RefillArithmeticIsExact) {
  serve::TenantPolicy p;
  p.rate_words_per_s = 1000;
  p.burst_words = 100;
  serve::TokenBucket b;
  b.configure(p, 0);
  EXPECT_EQ(b.tokens_x32(), 100ull << 32);  // starts full
  EXPECT_TRUE(b.try_take(40, 0));
  EXPECT_EQ(b.tokens_x32(), 60ull << 32);
  EXPECT_FALSE(b.try_take(70, 0));  // refusal takes nothing
  EXPECT_EQ(b.tokens_x32(), 60ull << 32);
  // 10ms at 1000 words/s refills exactly 10 words.
  EXPECT_TRUE(b.try_take(70, 10'000'000));
  EXPECT_EQ(b.tokens_x32(), 0u);
  // A long idle clamps at burst.
  b.settle(10'000'000'000);
  EXPECT_EQ(b.tokens_x32(), 100ull << 32);
}

TEST(TokenBucket, FractionalRefillIsDeterministic) {
  // 1ns at 3 words/s: floor(3 * 2^32 / 1e9) = 12 — sub-word credit that
  // only integer fixed point reproduces exactly.
  serve::TenantPolicy p;
  p.rate_words_per_s = 3;
  p.burst_words = 10;
  serve::TokenBucket b;
  b.configure(p, 0);
  ASSERT_TRUE(b.try_take(10, 0));
  EXPECT_EQ(b.tokens_x32(), 0u);
  b.settle(1);
  EXPECT_EQ(b.tokens_x32(), 12u);
}

TEST(TokenBucket, MidRefillStateRestoresBitExact) {
  serve::TenantPolicy p;
  p.rate_words_per_s = 7;
  p.burst_words = 5;
  serve::TokenBucket original;
  original.configure(p, 0);
  ASSERT_TRUE(original.try_take(5, 0));
  original.settle(123'456'789);  // nonzero fractional level
  const std::uint64_t saved = original.tokens_x32();
  EXPECT_NE(saved, 0u);
  EXPECT_NE(saved & 0xFFFFFFFFu, 0u) << "want a fractional mid-refill level";

  // Restore into a different process epoch (a different anchor time) and
  // step both through an identical timestamp-delta sequence: every level
  // and every decision must match bit for bit.
  serve::TokenBucket restored;
  restored.configure(p, 0);
  restored.restore_level(saved, 999'999);
  const std::int64_t deltas[] = {1, 17, 1'000'003, 50'000'000, 3};
  std::int64_t t_orig = 123'456'789, t_rest = 999'999;
  for (const std::int64_t d : deltas) {
    t_orig += d;
    t_rest += d;
    EXPECT_EQ(original.try_take(2, t_orig), restored.try_take(2, t_rest));
    EXPECT_EQ(original.tokens_x32(), restored.tokens_x32());
  }
}

// ------------------------------------------------- service-level tenancy

serve::ServiceOptions qos_options() {
  serve::ServiceOptions opts;
  opts.num_shards = 2;
  opts.max_leases_per_shard = 8;
  opts.num_workers = 2;
  opts.queue_capacity = 256;
  opts.max_coalesce = 4;
  opts.seed = 0x5EED;
  return opts;
}

TEST(TenantQos, RejectedQuotaStatusHasAName) {
  EXPECT_STREQ(serve::to_string(serve::Status::kRejectedQuota),
               "rejected-quota");
}

TEST(TenantQos, QuotaExhaustionRejectsAndConserves) {
  serve::ServiceOptions opts = qos_options();
  serve::TenantPolicy p;
  p.quota_words = 100;
  opts.tenants.overrides[5] = p;
  serve::RngService service(opts);

  serve::RngService::SessionSpec spec;
  spec.tenant = 5;
  auto session = service.try_open_session(spec);
  ASSERT_TRUE(session.has_value());
  EXPECT_EQ(session->tenant(), 5u);

  std::vector<std::uint64_t> buf(30);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(session->fill(buf), serve::Status::kOk);
  }
  // 90 of 100 words consumed; the next 30-word fill cannot be covered.
  EXPECT_EQ(session->fill(buf), serve::Status::kRejectedQuota);
  service.drain();

  const auto ts = service.tenant_stats(5);
  EXPECT_EQ(ts.submitted, 4u);
  EXPECT_EQ(ts.rejected_quota, 1u);
  EXPECT_EQ(ts.rejected_rate, 0u);
  EXPECT_EQ(ts.words_charged, 90u);
  EXPECT_EQ(ts.words_refunded, 0u);
  EXPECT_EQ(ts.quota_used, 90u);  // == words actually served

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.rejected_quota, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.rejected + stats.shed +
                                 stats.timed_out + stats.closed +
                                 stats.failed + stats.rejected_quota);

  // The offender report names the only offender.
  const auto offenders = service.top_offenders();
  ASSERT_FALSE(offenders.empty());
  EXPECT_EQ(offenders.front().tenant, 5u);
}

TEST(TenantQos, NonOkTerminalRefundsTheAdmissionCharge) {
  // A 1-slot queue and paused workers: the first request parks in the
  // queue (charged), the next two bounce off the full queue (charged,
  // then refunded by their kRejected settle).
  serve::ServiceOptions opts = qos_options();
  opts.queue_capacity = 1;
  serve::TenantPolicy p;
  p.quota_words = 1000;
  opts.tenants.overrides[7] = p;
  serve::RngService service(opts);

  serve::RngService::SessionSpec spec;
  spec.tenant = 7;
  auto session = service.try_open_session(spec);
  ASSERT_TRUE(session.has_value());

  service.pause();
  std::vector<std::uint64_t> b0(50), b1(50), b2(50);
  serve::Ticket t0 = session->fill_async(b0);
  serve::Ticket t1 = session->fill_async(b1);
  serve::Ticket t2 = session->fill_async(b2);
  EXPECT_EQ(t1.wait(), serve::Status::kRejected);
  EXPECT_EQ(t2.wait(), serve::Status::kRejected);
  service.resume();
  EXPECT_EQ(t0.wait(), serve::Status::kOk);
  service.drain();

  const auto ts = service.tenant_stats(7);
  EXPECT_EQ(ts.words_charged, 150u);
  EXPECT_EQ(ts.words_refunded, 100u);  // exactly one refund per rejection
  EXPECT_EQ(ts.quota_used, 50u);       // == words actually served
  EXPECT_EQ(ts.rejected_quota, 0u);    // downstream rejects are not QoS's
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.rejected_quota, 0u);
}

// The tentpole determinism property, end to end: for a fixed arrival
// order (trace fully submitted while paused), the DRR service order is
// byte-identical for 1, 3 and 8 workers (docs/QOS.md §5).
TEST(TenantQos, DrrServiceOrderIsWorkerCountInvariant) {
  using TracePoint = std::pair<std::uint64_t, std::size_t>;
  const auto run = [&](int workers) {
    serve::ServiceOptions opts = qos_options();
    opts.num_workers = workers;
    opts.tenants.drr_quantum_words = 64;
    serve::TenantPolicy w2;
    w2.weight = 2;
    opts.tenants.overrides[2] = w2;
    serve::TenantPolicy w3;
    w3.weight = 3;
    opts.tenants.overrides[3] = w3;
    serve::RngService service(opts);

    std::vector<serve::Session> sessions;
    for (std::uint64_t t = 1; t <= 3; ++t) {
      serve::RngService::SessionSpec spec;
      spec.tenant = t;
      auto s = service.try_open_session(spec);
      EXPECT_TRUE(s.has_value());
      sessions.push_back(*s);
    }

    std::vector<TracePoint> order;
    service.set_drr_observer([&](std::uint64_t tenant, std::size_t words) {
      order.emplace_back(tenant, words);
    });

    // Unique request sizes make the trace self-identifying.
    service.pause();
    std::vector<std::vector<std::uint64_t>> bufs;
    for (int i = 0; i < 30; ++i) bufs.emplace_back(8 + i);
    std::vector<serve::Ticket> tickets;
    for (int i = 0; i < 30; ++i) {
      tickets.push_back(
          sessions[static_cast<std::size_t>(i % 3)].fill_async(bufs[i]));
    }
    service.resume();
    for (serve::Ticket& t : tickets) EXPECT_EQ(t.wait(), serve::Status::kOk);
    service.drain();
    return order;
  };

  const std::vector<TracePoint> reference = run(1);
  ASSERT_EQ(reference.size(), 30u);
  EXPECT_EQ(run(3), reference);
  EXPECT_EQ(run(8), reference);
}

// Fills an idle service serves on the caller's thread (docs/SERVING.md §4)
// still count as scheduled pops: the observer sees each one, in
// submission order.
TEST(TenantQos, DrrObserverSeesInPlaceFillsInSubmissionOrder) {
  using TracePoint = std::pair<std::uint64_t, std::size_t>;
  serve::RngService service(qos_options());
  std::vector<serve::Session> sessions;
  for (std::uint64_t t = 1; t <= 3; ++t) {
    serve::RngService::SessionSpec spec;
    spec.tenant = t;
    auto s = service.try_open_session(spec);
    ASSERT_TRUE(s.has_value());
    // A session's first fill always queues; the fills below do not.
    std::vector<std::uint64_t> first(8);
    ASSERT_EQ(s->fill(first), serve::Status::kOk);
    sessions.push_back(*s);
  }
  service.drain();

  std::mutex mu;
  std::vector<TracePoint> order;
  service.set_drr_observer([&](std::uint64_t tenant, std::size_t words) {
    std::lock_guard<std::mutex> lk(mu);
    order.emplace_back(tenant, words);
  });
  std::vector<TracePoint> submitted;
  for (int i = 0; i < 12; ++i) {
    const std::size_t s = static_cast<std::size_t>(i % 3);
    std::vector<std::uint64_t> buf(9 + static_cast<std::size_t>(i));
    std::atomic<bool> on_caller{false};
    const std::thread::id caller = std::this_thread::get_id();
    serve::Ticket ticket =
        sessions[s].fill_async(buf, 10s, [&](serve::Status) {
          on_caller.store(std::this_thread::get_id() == caller);
        });
    EXPECT_TRUE(on_caller.load()) << "fill " << i << " was not in place";
    ASSERT_EQ(ticket.wait(), serve::Status::kOk);
    service.drain();  // a queued fill's hook may still be running
    submitted.emplace_back(sessions[s].tenant(), buf.size());
  }
  std::lock_guard<std::mutex> lk(mu);
  EXPECT_EQ(order, submitted);
}

TEST(TenantQos, TenqSectionRoundTripsThroughCheckpointRestore) {
  const std::string path = tmp_path("tenq.snap");
  serve::ServiceOptions opts = qos_options();
  opts.tenants.drr_quantum_words = 77;
  opts.tenants.top_k = 2;
  serve::TenantPolicy capped;
  capped.quota_words = 200;
  opts.tenants.overrides[3] = capped;
  serve::TenantPolicy limited;
  limited.rate_words_per_s = 1'000'000;
  limited.burst_words = 1000;
  limited.weight = 5;
  opts.tenants.overrides[4] = limited;

  std::uint64_t lease3 = 0;
  {
    serve::RngService service(opts);
    serve::RngService::SessionSpec s3;
    s3.tenant = 3;
    auto sess3 = service.try_open_session(s3);
    ASSERT_TRUE(sess3.has_value());
    serve::RngService::SessionSpec s4;
    s4.tenant = 4;
    auto sess4 = service.try_open_session(s4);
    ASSERT_TRUE(sess4.has_value());

    std::vector<std::uint64_t> buf(60);
    EXPECT_EQ(sess3->fill(buf), serve::Status::kOk);  // 60 of 200
    std::vector<std::uint64_t> buf4(100);
    EXPECT_EQ(sess4->fill(buf4), serve::Status::kOk);
    service.drain();
    lease3 = sess3->lease().id;
    ASSERT_TRUE(service.checkpoint(path));  // leases still live
  }

  std::string error;
  auto restored = serve::RngService::restore(path, &error);
  ASSERT_NE(restored, nullptr) << error;

  // Counters and quota charge survive verbatim.
  const auto t3 = restored->tenant_stats(3);
  EXPECT_EQ(t3.quota_used, 60u);
  EXPECT_EQ(t3.words_charged, 60u);
  EXPECT_EQ(t3.leases, 1u);
  const auto t4 = restored->tenant_stats(4);
  EXPECT_EQ(t4.words_charged, 100u);
  EXPECT_EQ(t4.leases, 1u);

  // The per-tenant -> per-lease hierarchy survives: adopting the snapshot
  // lease re-binds it to its recorded tenant, and the restored quota
  // budget continues from 60/200 rather than resetting.
  auto adopted = restored->adopt_session(lease3);
  ASSERT_TRUE(adopted.has_value());
  EXPECT_EQ(adopted->tenant(), 3u);
  std::vector<std::uint64_t> big(150);
  EXPECT_EQ(adopted->fill(big), serve::Status::kRejectedQuota);  // 210 > 200
  std::vector<std::uint64_t> fit(100);
  EXPECT_EQ(adopted->fill(fit), serve::Status::kOk);  // 160 <= 200
  restored->drain();
  EXPECT_EQ(restored->tenant_stats(3).quota_used, 160u);
  std::remove(path.c_str());
}

TEST(TenantQos, TenantInstrumentsAreRegistered) {
  obs::MetricsRegistry metrics;
  serve::ServiceOptions opts = qos_options();
  serve::TenantPolicy p;
  p.quota_words = 40;
  opts.tenants.overrides[9] = p;
  serve::RngService service(opts, &metrics);
  serve::RngService::SessionSpec spec;
  spec.tenant = 9;
  auto session = service.try_open_session(spec);
  ASSERT_TRUE(session.has_value());
  std::vector<std::uint64_t> buf(30);
  EXPECT_EQ(session->fill(buf), serve::Status::kOk);
  EXPECT_EQ(session->fill(buf), serve::Status::kRejectedQuota);
  service.drain();
  EXPECT_EQ(metrics.counter("hprng.serve.tenant.rejected_quota").value(),
            1.0);
  EXPECT_EQ(metrics.counter("hprng.serve.tenant.quota_words_charged").value(),
            30.0);
  EXPECT_GE(metrics.counter("hprng.serve.tenant.drr_rounds").value(), 1.0);
  EXPECT_GE(metrics.gauge("hprng.serve.tenant.active").value(), 1.0);
}

}  // namespace
}  // namespace hprng
