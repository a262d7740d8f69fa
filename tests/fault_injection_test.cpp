// Tests for hprng::fault (docs/FAULTS.md): plan text round-trips, the
// Injector's deterministic per-(site, target) event ordinals, and the
// instrumented hook sites — sim::Device transfers, host::BitFeeder fills,
// the HybridPrng serve-path feed and a failed pass of a fill the service
// serves on its caller's thread. The load-bearing property throughout
// is replayability: a failed operation leaves its subsystem exactly where
// it was, so a retry reproduces bit-identical output (the contract the
// serving layer's failover story rests on).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybrid_prng.hpp"
#include "fault/fault.hpp"
#include "host/bit_feeder.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "sim/buffer.hpp"
#include "sim/device.hpp"

namespace hprng {
namespace {

using fault::Action;
using fault::FaultPlan;
using fault::FaultPoint;
using fault::Injector;
using fault::kAnyTarget;
using fault::Outcome;
using fault::Site;

// ------------------------------------------------------------------- plans

TEST(FaultPlan, TextFormRoundTrips) {
  FaultPlan plan;
  plan.add({Site::kShardFill, 1, 8, 1000000, Action::kFail, 0.0});
  plan.add({Site::kH2D, kAnyTarget, 0, 4, Action::kDelay, 0.0005});
  plan.add({Site::kFeedFill, 3, 2, 1, Action::kFail, 0.0});

  const std::string text = plan.to_string();
  EXPECT_EQ(text,
            "shard:1:fail:8:1000000;h2d:*:delay:0:4:0.0005;feed:3:fail:2:1");

  auto parsed = FaultPlan::parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ(parsed->to_string(), text);
  EXPECT_EQ(parsed->points()[0].site, Site::kShardFill);
  EXPECT_EQ(parsed->points()[0].target, 1);
  EXPECT_EQ(parsed->points()[1].target, kAnyTarget);
  EXPECT_DOUBLE_EQ(parsed->points()[1].delay_seconds, 0.0005);
}

TEST(FaultPlan, ParseRejectsMalformedPoints) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("bogus:0:fail:0:1", &error).has_value());
  EXPECT_NE(error.find("unknown site"), std::string::npos);
  EXPECT_FALSE(FaultPlan::parse("shard:0:explode:0:1").has_value());
  EXPECT_FALSE(FaultPlan::parse("shard:0:fail:0:0").has_value());  // count 0
  EXPECT_FALSE(FaultPlan::parse("shard:0:fail:0:1:0.5").has_value());
  EXPECT_FALSE(FaultPlan::parse("shard:0:delay:0:1").has_value());
  EXPECT_FALSE(FaultPlan::parse("shard:0:delay:0:1:-1").has_value());
  EXPECT_FALSE(FaultPlan::parse("shard:0:fail").has_value());
  // Empty input is an empty (valid) plan.
  auto empty = FaultPlan::parse("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(FaultPlan, RandomPlansAreSeedDeterministic) {
  const FaultPlan a = FaultPlan::random(77, 12, 3, 64);
  const FaultPlan b = FaultPlan::random(77, 12, 3, 64);
  const FaultPlan c = FaultPlan::random(78, 12, 3, 64);
  ASSERT_EQ(a.size(), 12u);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_NE(a.to_string(), c.to_string());
  for (const FaultPoint& p : a.points()) {
    EXPECT_NE(p.site, Site::kWorker);  // random plans target the pipeline
    EXPECT_GE(p.target, 0);
    EXPECT_LE(p.target, 3);
    EXPECT_LT(p.after, 64u);
    EXPECT_GE(p.count, 1u);
    EXPECT_LE(p.count, 8u);
  }
  // A random plan must round-trip through the text form too (the chaos CI
  // job reports plans as text for replay).
  auto reparsed = FaultPlan::parse(a.to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->to_string(), a.to_string());
}

// ---------------------------------------------------------------- injector

TEST(Injector, TripsExactlyInsideTheOrdinalWindow) {
  FaultPlan plan;
  plan.add({Site::kShardFill, 0, 2, 3, Action::kFail, 0.0});
  Injector inj(plan);
  for (std::uint64_t e = 0; e < 8; ++e) {
    const Outcome o = inj.on_event(Site::kShardFill, 0);
    const bool armed = e >= 2 && e < 5;
    EXPECT_EQ(o.fail(), armed) << "event " << e;
  }
  EXPECT_EQ(inj.events(Site::kShardFill, 0), 8u);
  EXPECT_EQ(inj.injected_total(), 3u);
}

TEST(Injector, OrdinalsAreKeptPerSiteAndTarget) {
  FaultPlan plan;
  plan.add({Site::kShardFill, kAnyTarget, 1, 1, Action::kFail, 0.0});
  Injector inj(plan);
  // Every target trips at ITS OWN second event — ordinals never bleed
  // across targets, so concurrent shards stay deterministic.
  for (int target : {0, 3, 7}) {
    EXPECT_FALSE(inj.on_event(Site::kShardFill, target).fail());
    EXPECT_TRUE(inj.on_event(Site::kShardFill, target).fail());
    EXPECT_FALSE(inj.on_event(Site::kShardFill, target).fail());
  }
  // Other sites never trip a shard point.
  EXPECT_FALSE(inj.on_event(Site::kH2D, 0).fail());
  EXPECT_EQ(inj.events(Site::kH2D, 0), 1u);
  EXPECT_EQ(inj.events(Site::kD2H, 0), 0u);
}

TEST(Injector, FailDominatesAndDelaysAccumulate) {
  FaultPlan plan;
  plan.add({Site::kH2D, 0, 0, 1, Action::kFail, 0.0});
  plan.add({Site::kH2D, 0, 0, 1, Action::kDelay, 0.25});
  plan.add({Site::kH2D, kAnyTarget, 0, 1, Action::kDelay, 0.5});
  Injector inj(plan);
  const Outcome o = inj.on_event(Site::kH2D, 0);
  EXPECT_TRUE(o.fail()) << "kFail must win over kDelay";
  EXPECT_DOUBLE_EQ(o.delay_seconds, 0.75) << "delays must sum";
}

TEST(Injector, MaintainsTheFaultMetricsCatalogue) {
  obs::MetricsRegistry metrics;
  FaultPlan plan;
  plan.add({Site::kShardFill, 0, 0, 2, Action::kFail, 0.0});
  plan.add({Site::kFeedFill, 0, 0, 1, Action::kDelay, 0.125});
  Injector inj(plan);
  inj.set_metrics(&metrics);

  inj.on_event(Site::kShardFill, 0);  // fail
  inj.on_event(Site::kShardFill, 0);  // fail
  inj.on_event(Site::kShardFill, 0);  // clean
  inj.on_event(Site::kFeedFill, 0);   // delay

  EXPECT_DOUBLE_EQ(metrics.counter("hprng.fault.events").value(), 4.0);
  EXPECT_DOUBLE_EQ(metrics.counter("hprng.fault.injected").value(), 3.0);
  EXPECT_DOUBLE_EQ(metrics.counter("hprng.fault.failures").value(), 2.0);
  EXPECT_DOUBLE_EQ(metrics.counter("hprng.fault.delays").value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.counter("hprng.fault.delay_seconds").value(),
                   0.125);
}

// ------------------------------------------------------ sim::Device hooks

TEST(DeviceFaults, DroppedH2DSkipsPayloadAndIsReported) {
  sim::Device dev;
  FaultPlan plan;
  plan.add({Site::kH2D, 0, 0, 1, Action::kFail, 0.0});
  Injector inj(plan);
  dev.set_fault_injector(&inj);

  sim::Stream s;
  std::vector<std::uint32_t> src(64, 0xABCDu);
  sim::Buffer<std::uint32_t> buf(64);
  std::vector<std::uint32_t> dst(64, 0u);
  dev.memcpy_h2d(s, std::span<const std::uint32_t>(src), buf);  // dropped
  dev.memcpy_h2d(s, std::span<const std::uint32_t>(src), buf);  // lands
  dev.memcpy_d2h(s, buf, std::span<std::uint32_t>(dst));
  dev.synchronize();

  EXPECT_EQ(dst, src) << "the second (clean) transfer must land";
  EXPECT_EQ(dev.take_transfer_faults(), 1u);
  EXPECT_EQ(dev.take_transfer_faults(), 0u) << "consume-on-read";
}

TEST(DeviceFaults, DroppedD2HLeavesHostBufferUntouched) {
  sim::Device dev;
  FaultPlan plan;
  plan.add({Site::kD2H, 0, 0, 1, Action::kFail, 0.0});
  Injector inj(plan);
  dev.set_fault_injector(&inj);

  sim::Stream s;
  std::vector<std::uint32_t> src(16, 7u);
  sim::Buffer<std::uint32_t> buf(16);
  std::vector<std::uint32_t> dst(16, 0xFEEDu);
  dev.memcpy_h2d(s, std::span<const std::uint32_t>(src), buf);
  dev.memcpy_d2h(s, buf, std::span<std::uint32_t>(dst));  // dropped
  dev.synchronize();

  EXPECT_EQ(dst, std::vector<std::uint32_t>(16, 0xFEEDu));
  EXPECT_EQ(dev.take_transfer_faults(), 1u);
}

TEST(DeviceFaults, InjectedDelayExtendsSimulatedTime) {
  auto makespan = [](Injector* inj) {
    sim::Device dev;
    if (inj != nullptr) dev.set_fault_injector(inj);
    sim::Stream s;
    std::vector<std::uint32_t> src(64, 1u);
    sim::Buffer<std::uint32_t> buf(64);
    dev.memcpy_h2d(s, std::span<const std::uint32_t>(src), buf);
    return dev.synchronize();
  };
  FaultPlan plan;
  plan.add({Site::kH2D, kAnyTarget, 0, 1, Action::kDelay, 0.125});
  Injector inj(plan);
  const double clean = makespan(nullptr);
  const double delayed = makespan(&inj);
  EXPECT_NEAR(delayed, clean + 0.125, 1e-9);
}

// --------------------------------------------------- host::BitFeeder hooks

TEST(FeederFaults, UnderrunPreservesTheGeneratorPosition) {
  const auto spec = sim::DeviceSpec::tesla_c1060();
  host::BitFeeder faulty(spec, "glibc-lcg", 42);
  host::BitFeeder clean(spec, "glibc-lcg", 42);

  FaultPlan plan;
  plan.add({Site::kFeedFill, 0, 0, 1, Action::kFail, 0.0});
  Injector inj(plan);
  faulty.set_fault_injector(&inj);

  std::vector<std::uint32_t> a(32, 0xDEADu), b(32), ref(32);
  faulty.fill(a);  // underrun: produces nothing, does not advance
  EXPECT_EQ(a, std::vector<std::uint32_t>(32, 0xDEADu));
  EXPECT_EQ(faulty.take_faults(), 1u);
  EXPECT_EQ(faulty.take_faults(), 0u);

  // The next fill owes EXACTLY the words the failed one did.
  faulty.fill(b);
  clean.fill(ref);
  EXPECT_EQ(b, ref);
}

TEST(FeederFaults, InjectedDelayLengthensTheStall) {
  const auto spec = sim::DeviceSpec::tesla_c1060();
  host::BitFeeder feeder(spec, "glibc-lcg", 7);
  FaultPlan plan;
  plan.add({Site::kFeedFill, 0, 0, 1, Action::kDelay, 0.25});
  Injector inj(plan);
  feeder.set_fault_injector(&inj);

  std::vector<std::uint32_t> buf(64);
  const double stalled = feeder.fill(buf);
  EXPECT_GE(stalled, 0.25);
  const double normal = feeder.fill(buf);
  EXPECT_NEAR(stalled - normal, 0.25, 1e-9);
}

// --------------------------------------- core::HybridPrng leased-fill path

core::HybridPrngConfig small_cfg() {
  core::HybridPrngConfig cfg;
  cfg.seed = 0x5EED;
  cfg.walk_len = 8;
  cfg.init_walk_len = 16;
  cfg.num_threads = 4;
  return cfg;
}

/// Written into every caller buffer before a fill, so a failed fill that
/// touches it shows.
constexpr std::uint64_t kSentinel = 0x5E5E5E5E5E5E5E5Eull;

std::vector<std::uint64_t> fill_walks(core::HybridPrng& prng, int walks,
                                      std::size_t draws, bool* ok) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(walks) * draws,
                                 kSentinel);
  std::vector<core::HybridPrng::LeasedDraw> req;
  for (int w = 0; w < walks; ++w) {
    req.push_back({static_cast<std::uint64_t>(w),
                   std::span<std::uint64_t>(out).subspan(
                       static_cast<std::size_t>(w) * draws, draws)});
  }
  const auto r = prng.fill_leased(req);
  if (ok != nullptr) *ok = r.ok;
  return out;
}

TEST(HybridPrngFaults, TransferFaultRollsBackAndRetryIsBitIdentical) {
  // Fault-free reference: two fills of two walks.
  sim::Device ref_dev;
  core::HybridPrng ref(ref_dev, small_cfg());
  bool ok = false;
  const auto ref1 = fill_walks(ref, 2, 16, &ok);
  ASSERT_TRUE(ok);
  const auto ref2 = fill_walks(ref, 2, 16, &ok);
  ASSERT_TRUE(ok);

  // Faulty run: the first serve-path H2D transfer is dropped.
  sim::Device dev;
  core::HybridPrng prng(dev, small_cfg());
  ASSERT_TRUE(prng.initialize(2));  // init fault-free, like the reference
  FaultPlan plan;
  plan.add({Site::kH2D, 0, 0, 1, Action::kFail, 0.0});
  Injector inj(plan);
  prng.set_fault_injector(&inj);

  ok = true;
  const auto failed = fill_walks(prng, 2, 16, &ok);
  EXPECT_FALSE(ok) << "dropped transfer must surface as a failed fill";
  EXPECT_EQ(failed, std::vector<std::uint64_t>(32, kSentinel))
      << "a failed fill must leave the caller's buffer unchanged";

  // The fault window is exhausted; the retry must reproduce EXACTLY the
  // words the failed attempt owed — transactional rollback of both walk
  // states and feed positions.
  const auto retry1 = fill_walks(prng, 2, 16, &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(retry1, ref1);
  const auto retry2 = fill_walks(prng, 2, 16, &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(retry2, ref2);
}

TEST(HybridPrngFaults, FeedFaultRollsBackAndRetryIsBitIdentical) {
  sim::Device ref_dev;
  core::HybridPrng ref(ref_dev, small_cfg());
  bool ok = false;
  const auto ref1 = fill_walks(ref, 2, 8, &ok);
  ASSERT_TRUE(ok);

  sim::Device dev;
  core::HybridPrng prng(dev, small_cfg());
  ASSERT_TRUE(prng.initialize(2));
  FaultPlan plan;
  plan.add({Site::kFeedFill, 0, 0, 1, Action::kFail, 0.0});
  Injector inj(plan);
  prng.set_fault_injector(&inj);

  const auto failed = fill_walks(prng, 2, 8, &ok);
  EXPECT_FALSE(ok) << "a dropped feed slice must fail the fill";
  EXPECT_EQ(failed, std::vector<std::uint64_t>(16, kSentinel))
      << "a failed fill must leave the caller's buffer unchanged";
  const auto retry = fill_walks(prng, 2, 8, &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(retry, ref1);
}

TEST(HybridPrngFaults, InitFaultReportsFalseAndRetrySucceeds) {
  sim::Device dev;
  core::HybridPrng prng(dev, small_cfg());
  FaultPlan plan;
  plan.add({Site::kH2D, 0, 0, 1, Action::kFail, 0.0});
  Injector inj(plan);
  prng.set_fault_injector(&inj);

  EXPECT_FALSE(prng.initialize(2)) << "corrupted init must report failure";
  EXPECT_TRUE(prng.initialize(2)) << "retry re-runs Algorithm 1";
  bool ok = false;
  (void)fill_walks(prng, 2, 8, &ok);
  EXPECT_TRUE(ok);
}

TEST(HybridPrngFaults, InjectedDelayChargesSimTimeWithoutChangingWords) {
  sim::Device ref_dev;
  core::HybridPrng ref(ref_dev, small_cfg());
  std::vector<std::uint64_t> ref_out(16);
  std::vector<core::HybridPrng::LeasedDraw> draws{{0, ref_out}};
  const auto ref_fill = ref.fill_leased(draws);
  ASSERT_TRUE(ref_fill.ok);

  sim::Device dev;
  core::HybridPrng prng(dev, small_cfg());
  ASSERT_TRUE(prng.initialize(1));
  FaultPlan plan;
  plan.add({Site::kH2D, 0, 0, 1, Action::kDelay, 0.125});
  Injector inj(plan);
  prng.set_fault_injector(&inj);

  std::vector<std::uint64_t> out(16);
  std::vector<core::HybridPrng::LeasedDraw> d2{{0, out}};
  const auto fill = prng.fill_leased(d2);
  ASSERT_TRUE(fill.ok) << "a delay is not a failure";
  EXPECT_EQ(out, ref_out);
  EXPECT_GE(fill.sim_seconds, ref_fill.sim_seconds + 0.12);
}

// ------------------------------------------- serve::RngService in place

/// Two 16-word fills of one session pinned to shard 0 on an idle service:
/// the first queues (a session's first fill always does), the second is
/// served on this thread. Returns both fills' words; `*second_on_caller`
/// says where the second fill settled.
std::vector<std::uint64_t> two_fills(fault::Injector* injector,
                                     bool* second_on_caller,
                                     serve::RngService::Stats* stats) {
  serve::ServiceOptions opts;
  opts.backend = "hybrid";
  opts.num_shards = 2;
  opts.max_leases_per_shard = 4;
  opts.walk_len = 8;
  opts.max_fill_retries = 1;
  opts.retry_backoff_base_ms = 0.05;
  opts.retry_backoff_max_ms = 0.5;
  opts.injector = injector;
  serve::RngService service(opts);
  auto session = service.try_open_session(/*shard_key=*/0);
  EXPECT_TRUE(session.has_value());
  if (!session.has_value()) return {};

  std::vector<std::uint64_t> words(32);
  const std::span<std::uint64_t> all(words);
  EXPECT_EQ(session->fill(all.first(16)), serve::Status::kOk);
  service.drain();
  std::atomic<bool> on_caller{false};
  const std::thread::id caller = std::this_thread::get_id();
  serve::Ticket ticket = session->fill_async(
      all.last(16), std::chrono::seconds(10), [&](serve::Status) {
        on_caller.store(std::this_thread::get_id() == caller);
      });
  EXPECT_EQ(ticket.wait(), serve::Status::kOk);
  service.drain();  // a worker's settle hook has returned
  *second_on_caller = on_caller.load();
  *stats = service.stats();
  return words;
}

TEST(ServeFaults, FailedInPlacePassRetriesOnTheCaller) {
  bool on_caller = false;
  serve::RngService::Stats clean_stats;
  const std::vector<std::uint64_t> clean =
      two_fills(nullptr, &on_caller, &clean_stats);
  EXPECT_TRUE(on_caller) << "the clean second fill was not in place";
  EXPECT_EQ(clean_stats.retries, 0u);

  // Shard 0's dispatches 1 and 2 (the in-place pass and its one retry)
  // drop: the pass fails for good, and the submitting thread serves the
  // fill again itself (dispatch 3) instead of handing it to a worker.
  FaultPlan plan;
  plan.add({Site::kShardFill, 0, 1, 2, Action::kFail, 0.0});
  Injector injector(plan);
  serve::RngService::Stats stats;
  const std::vector<std::uint64_t> words =
      two_fills(&injector, &on_caller, &stats);
  EXPECT_TRUE(on_caller) << "the retried fill left the caller";
  EXPECT_EQ(words, clean) << "the retried fill changed the stream";
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(injector.events(Site::kShardFill, 0), 4u);
  // One worker batch (the first fill); the in-place attempt and its
  // second pass consult no worker site.
  EXPECT_EQ(injector.events(Site::kWorker, 0), 1u);
}

}  // namespace
}  // namespace hprng
