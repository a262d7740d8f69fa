#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/hybrid_prng.hpp"
#include "sim/device.hpp"
#include "simd/simd.hpp"

namespace hprng::core {
namespace {

TEST(HybridPrng, GeneratesRequestedCount) {
  sim::Device dev;
  HybridPrng prng(dev);
  const auto out = prng.generate(1000, 10);
  EXPECT_EQ(out.size(), 1000u);
}

TEST(HybridPrng, DeterministicGivenSeedAndConfig) {
  sim::Device dev1, dev2;
  HybridPrngConfig cfg;
  cfg.seed = 777;
  HybridPrng a(dev1, cfg), b(dev2, cfg);
  EXPECT_EQ(a.generate(500, 25), b.generate(500, 25));
}

TEST(HybridPrng, SeedChangesStream) {
  sim::Device dev1, dev2;
  HybridPrngConfig c1, c2;
  c1.seed = 1;
  c2.seed = 2;
  HybridPrng a(dev1, c1), b(dev2, c2);
  const auto va = a.generate(100, 10);
  const auto vb = b.generate(100, 10);
  int same = 0;
  for (std::size_t i = 0; i < va.size(); ++i) {
    if (va[i] == vb[i]) ++same;
  }
  EXPECT_LE(same, 2);
}

TEST(HybridPrng, OutputsLookUniform64Bit) {
  sim::Device dev;
  HybridPrng prng(dev);
  const auto out = prng.generate(20000, 100);
  // Mean of the top 53 bits as doubles ~ 0.5.
  double sum = 0.0;
  int high_bit = 0;
  for (auto v : out) {
    sum += static_cast<double>(v >> 11) * 0x1.0p-53;
    high_bit += static_cast<int>(v >> 63);
  }
  const double mean = sum / static_cast<double>(out.size());
  EXPECT_NEAR(mean, 0.5, 5.0 / std::sqrt(12.0 * static_cast<double>(out.size())));
  EXPECT_NEAR(high_bit, 10000, 500);
  // Essentially no duplicates among 20k draws from a 2^64 space.
  std::set<std::uint64_t> uniq(out.begin(), out.end());
  EXPECT_GE(uniq.size(), out.size() - 2);
}

TEST(HybridPrng, BatchSizeChangesScheduleNotValidity) {
  // Different batch sizes use different thread counts, so streams differ,
  // but each must be the full requested length and uniform-ish.
  sim::Device dev;
  HybridPrng prng(dev);
  for (std::uint64_t batch : {1ull, 7ull, 100ull, 1000ull}) {
    const auto out = prng.generate(1000, batch);
    EXPECT_EQ(out.size(), 1000u);
  }
}

TEST(HybridPrng, SimulatedTimeIsPositiveAndScalesWithN) {
  sim::Device dev;
  HybridPrng prng(dev);
  sim::Buffer<std::uint64_t> out;
  // Sizes large enough that per-round overheads (launch latency, PCIe
  // latency) do not dominate; a 10x size then costs ~10x the time.
  const double t1 = prng.generate_device(200000, 100, out);
  const double t2 = prng.generate_device(2000000, 100, out);
  EXPECT_GT(t1, 0.0);
  EXPECT_GT(t2, 4.0 * t1);
}

TEST(HybridPrng, ModeledThroughputNearPaper) {
  // The paper reports 0.07 GNumbers/s; the calibrated model should land in
  // the same decade at the paper's operating point (batch 100).
  sim::Device dev;
  HybridPrng prng(dev);
  sim::Buffer<std::uint64_t> out;
  const std::uint64_t n = 2000000;
  const double t = prng.generate_device(n, 100, out);
  const double gnumbers_per_s = static_cast<double>(n) / t / 1e9;
  EXPECT_GT(gnumbers_per_s, 0.07 / 2.5);
  EXPECT_LT(gnumbers_per_s, 0.07 * 2.5);
}

TEST(HybridPrng, OnDemandRoundsInsideKernels) {
  sim::Device dev;
  HybridPrngConfig cfg;
  cfg.num_threads = 64;
  HybridPrng prng(dev, cfg);
  prng.initialize(64);

  std::vector<std::uint64_t> draws(64 * 3, 0);
  sim::Stream compute;
  auto round = prng.begin_round(64, 3);
  const auto kernel = dev.launch(
      compute, "app", 64, sim::KernelCost{10.0, 0.0},
      [&](std::uint64_t tid) {
        auto rng = prng.thread_rng(round, tid);
        for (int i = 0; i < 3; ++i) {
          draws[tid * 3 + static_cast<std::uint64_t>(i)] = rng.next();
        }
      },
      {round.ready});
  prng.end_round(round, kernel);
  dev.synchronize();

  // All threads drew; values are distinct across threads with high prob.
  std::set<std::uint64_t> uniq(draws.begin(), draws.end());
  EXPECT_GE(uniq.size(), draws.size() - 2);
}

TEST(HybridPrng, NextDoubleInUnitInterval) {
  sim::Device dev;
  HybridPrng prng(dev);
  prng.initialize(4);
  sim::Stream compute;
  auto round = prng.begin_round(4, 8);
  std::vector<double> vals;
  const auto kernel = dev.launch(
      compute, "app", 4, sim::KernelCost{1.0, 0.0},
      [&](std::uint64_t tid) {
        auto rng = prng.thread_rng(round, tid);
        for (int i = 0; i < 8; ++i) {
          const double d = rng.next_double();
          EXPECT_GE(d, 0.0);
          EXPECT_LT(d, 1.0);
          if (tid == 0) vals.push_back(d);
        }
      },
      {round.ready});
  prng.end_round(round, kernel);
  dev.synchronize();
  EXPECT_EQ(vals.size(), 8u);
}

TEST(HybridPrng, FinalizerChangesOutputsButNotDeterminism) {
  sim::Device dev1, dev2, dev3;
  HybridPrngConfig raw, fin;
  raw.seed = fin.seed = 5;
  fin.finalize_output = true;
  HybridPrng a(dev1, raw), b(dev2, fin), c(dev3, fin);
  const auto va = a.generate(100, 10);
  const auto vb = b.generate(100, 10);
  const auto vc = c.generate(100, 10);
  EXPECT_NE(va, vb);
  EXPECT_EQ(vb, vc);
}

TEST(HybridPrng, WordsPerDrawMatchesPolicyBudget) {
  sim::Device dev;
  HybridPrngConfig cfg;
  cfg.walk_len = 16;  // 48 bits
  HybridPrng p16(dev, cfg);
  EXPECT_EQ(p16.words_per_draw(), 2u);
  cfg.walk_len = 8;  // 24 bits -> 1 word
  HybridPrng p8(dev, cfg);
  EXPECT_EQ(p8.words_per_draw(), 1u);
  cfg.policy = expander::NeighborPolicy::kRejection;  // 36 bits -> 2 words
  HybridPrng p8r(dev, cfg);
  EXPECT_EQ(p8r.words_per_draw(), 2u);
}

TEST(HybridPrng, TimelineShowsAllThreeWorkUnits) {
  sim::Device dev;
  HybridPrng prng(dev);
  sim::Buffer<std::uint64_t> out;
  prng.generate_device(50000, 100, out);
  bool feed = false, transfer = false, generate = false;
  for (const auto& e : dev.timeline().entries()) {
    if (e.label == "FEED") feed = true;
    if (e.label == "Transfer") transfer = true;
    if (e.label.rfind("Generate", 0) == 0) generate = true;
  }
  EXPECT_TRUE(feed);
  EXPECT_TRUE(transfer);
  EXPECT_TRUE(generate);
}

TEST(HybridPrngDeathTest, OverdrawingARoundAborts) {
  // The round provisions exactly draws_per_thread; drawing one more is a
  // contract violation caught by the BitReader.
  sim::Device dev;
  HybridPrng prng(dev);
  prng.initialize(2);
  auto round = prng.begin_round(2, 1);
  sim::Stream s;
  EXPECT_DEATH(
      {
        dev.launch(
            s, "overdraw", 1, sim::KernelCost{1.0, 0.0},
            [&](std::uint64_t tid) {
              auto rng = prng.thread_rng(round, tid);
              (void)rng.next();
              (void)rng.next();  // one too many
            },
            {round.ready});
        dev.synchronize();
      },
      "bit stream exhausted");
}

TEST(HybridPrngDeathTest, ThreadRngOutOfRangeAborts) {
  sim::Device dev;
  HybridPrng prng(dev);
  prng.initialize(4);
  auto round = prng.begin_round(4, 1);
  EXPECT_DEATH((void)prng.thread_rng(round, 4), "tid out of round range");
}

TEST(HybridPrng, DifferentDeviceSpecsSameStream) {
  // The cost model changes the schedule, never the numbers.
  sim::Device c1060(sim::DeviceSpec::tesla_c1060());
  sim::Device c2050(sim::DeviceSpec::tesla_c2050());
  HybridPrngConfig cfg;
  cfg.seed = 99;
  HybridPrng a(c1060, cfg), b(c2050, cfg);
  EXPECT_EQ(a.generate(2000, 50), b.generate(2000, 50));
}

TEST(HybridPrng, FasterDeviceDoesNotBreakFeedBound) {
  // The pipeline is CPU-feed-bound, so a much faster device (C2050) barely
  // changes the simulated time — the paper's resource-efficiency argument
  // in reverse.
  sim::Buffer<std::uint64_t> out1, out2;
  sim::Device c1060(sim::DeviceSpec::tesla_c1060());
  HybridPrng a(c1060);
  const double t1 = a.generate_device(500000, 100, out1);
  sim::Device c2050(sim::DeviceSpec::tesla_c2050());
  HybridPrng b(c2050);
  const double t2 = b.generate_device(500000, 100, out2);
  EXPECT_LT(std::abs(t1 - t2) / t1, 0.25);
}

TEST(HybridPrng, WalkLengthAblationChangesCost) {
  sim::Buffer<std::uint64_t> out;
  HybridPrngConfig c4, c32;
  c4.walk_len = 4;
  c32.walk_len = 32;
  sim::Device dev1, dev2;
  HybridPrng p4(dev1, c4), p32(dev2, c32);
  // Large enough that per-round fixed overheads don't mask the 8x work gap.
  const double t4 = p4.generate_device(500000, 100, out);
  sim::Buffer<std::uint64_t> out2;
  const double t32 = p32.generate_device(500000, 100, out2);
  EXPECT_GT(t32, 2.0 * t4);  // 8x walk work, feed-bound at ~8x bits
}

TEST(HybridPrng, ServeFillSimulatedClockIsPinned) {
  // A fixed sequence of serial serve fills: mixed lane counts, walk 0
  // revisited, and one call wider than simd::kWalkGroup (which also grows
  // the initialised walk range). Each fill's fenced simulated seconds and
  // the engine clock after it are pinned bit for bit, so a change to the
  // serve path's FEED/TRANSFER/GENERATE schedule cannot go unnoticed.
  // (Fills 0 and 2 also run Algorithm 1 for new walks: that shows in the
  // clock, not in the fenced fill time.)
  struct Step {
    std::vector<std::pair<std::uint64_t, std::size_t>> walks;  // walk, draws
    double sim_seconds;
    double now;
  };
  std::vector<Step> steps{
      {{{0, 5}, {1, 3}, {2, 7}}, 0x1.4609fc06a86fdp-15, 0x1.4bc087c41a33p-14},
      {{{0, 4}}, 0x1.ee64f96fb471p-16, 0x1.c759c620074f4p-14},
      {{}, 0x1.f12f5035d4d48p-16, 0x1.60eb532228155p-13},
      {{{3, 16}, {0, 1}}, 0x1.188284f4fc01cp-14, 0x1.ed2c959ca6163p-13},
  };
  for (std::uint64_t w = 0; w < 11; ++w) {
    steps[2].walks.emplace_back(w, static_cast<std::size_t>(2 + w % 3));
  }
  ASSERT_GT(steps[2].walks.size(), static_cast<std::size_t>(simd::kWalkGroup));

  sim::Device dev;
  HybridPrngConfig cfg;
  cfg.seed = 0x5EEDC10Cu;
  cfg.walk_len = 8;
  HybridPrng prng(dev, cfg);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    std::vector<std::vector<std::uint64_t>> bufs;
    std::vector<HybridPrng::LeasedDraw> draws;
    bufs.reserve(steps[i].walks.size());
    for (const auto& [walk, n] : steps[i].walks) {
      bufs.emplace_back(n);
      draws.push_back({walk, std::span(bufs.back())});
    }
    const HybridPrng::LeasedFill fill = prng.fill_leased(draws);
    ASSERT_TRUE(fill.ok) << "fill " << i;
    EXPECT_EQ(fill.sim_seconds, steps[i].sim_seconds) << "fill " << i;
    EXPECT_EQ(dev.engine().now(), steps[i].now) << "fill " << i;
  }
}

/// One serve pass: walk w advances n draws for every (w, n) listed;
/// returns the served words in listing order.
std::vector<std::uint64_t> serve_pass(
    HybridPrng& prng,
    const std::vector<std::pair<std::uint64_t, std::size_t>>& walks) {
  std::vector<std::vector<std::uint64_t>> bufs;
  std::vector<HybridPrng::LeasedDraw> draws;
  bufs.reserve(walks.size());
  for (const auto& [walk, n] : walks) {
    bufs.emplace_back(n);
    draws.push_back({walk, std::span(bufs.back())});
  }
  EXPECT_TRUE(prng.fill_leased(draws).ok);
  std::vector<std::uint64_t> flat;
  for (const auto& b : bufs) flat.insert(flat.end(), b.begin(), b.end());
  return flat;
}

TEST(HybridPrng, ServeFillsKeepEngineStorageFlat) {
  // A serve fill is one fenced chain: it must charge the simulated clock
  // without leaving ops or timeline entries behind, or a long-running
  // server grows without bound.
  sim::Device dev;
  HybridPrngConfig cfg;
  cfg.walk_len = 8;
  HybridPrng prng(dev, cfg);
  const std::vector<std::pair<std::uint64_t, std::size_t>> walks{
      {0, 16}, {1, 3}, {5, 7}};
  constexpr int kFills = 20;
  for (int i = 0; i < kFills; ++i) (void)serve_pass(prng, walks);
  const sim::OpId ops = dev.engine().next_id();
  const std::size_t entries = dev.timeline().entries().size();
  const double now = dev.engine().now();
  for (int i = 0; i < 10 * kFills; ++i) (void)serve_pass(prng, walks);
  EXPECT_EQ(dev.engine().next_id(), ops);
  EXPECT_EQ(dev.timeline().entries().size(), entries);
  EXPECT_GT(dev.engine().now(), now) << "the fills must still be charged";
}

/// 64-bit FNV-1a over every word's bytes, least significant first.
std::uint64_t fnv1a(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST(HybridPrng, ScalarServeStreamsArePinned) {
  // The configurations the SIMD lanes cannot run (kRejection's variable
  // consumption, the alternating walk) take the per-draw scalar path.
  // Five passes — mixed draw counts, walks out of tid order, a pass wider
  // than simd::kWalkGroup, walks revisited mid-stream — hashed per config.
  const std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>>
      passes{
          {{20, 5}, {18, 1}, {16, 9}, {14, 8}, {12, 2}, {10, 7},
           {8, 3}, {6, 4}, {4, 6}, {2, 1}, {0, 8}},
          {{0, 5}, {4, 5}, {8, 5}, {12, 5}},
          {{3, 16}},
          {{21, 2}, {2, 3}, {5, 4}, {9, 2}, {14, 3}, {17, 4}, {19, 2},
           {1, 3}, {6, 4}},
          {{0, 1}, {3, 2}, {20, 11}},
      };
  struct Case {
    expander::NeighborPolicy policy;
    expander::WalkMode mode;
    std::uint64_t hash;
  };
  for (const Case& c :
       {Case{expander::NeighborPolicy::kRejection,
             expander::WalkMode::kForwardOnly, 0x4df7b8fc81816f82ull},
        Case{expander::NeighborPolicy::kMod7,
             expander::WalkMode::kAlternating, 0x6d58e309d09e0448ull}}) {
    sim::Device dev;
    HybridPrngConfig cfg;
    cfg.seed = 0x5EEDFACEu;
    cfg.walk_len = 11;
    cfg.policy = c.policy;
    cfg.mode = c.mode;
    HybridPrng prng(dev, cfg);
    std::vector<std::uint64_t> served;
    for (const auto& pass : passes) {
      const std::vector<std::uint64_t> words = serve_pass(prng, pass);
      served.insert(served.end(), words.begin(), words.end());
    }
    EXPECT_EQ(fnv1a(served), c.hash)
        << "policy=" << static_cast<int>(c.policy)
        << " mode=" << static_cast<int>(c.mode) << std::hex
        << " got 0x" << fnv1a(served);
  }
}

}  // namespace
}  // namespace hprng::core
