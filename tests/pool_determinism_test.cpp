// Feed-parallelism determinism (docs/PERFORMANCE.md): every chunked
// parallel path introduced for the serve/feed hot paths must be
// bit-identical to its serial loop for ANY worker count — the chunk grids
// are fixed functions of the request size, never of the pool. This suite
// pins that property across BitFeeder refills, the generator jump-ahead
// hooks they rely on, batched generation, and the serve fills' counter
// feed.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/hybrid_prng.hpp"
#include "host/bit_feeder.hpp"
#include "prng/registry.hpp"
#include "sim/device.hpp"
#include "util/thread_pool.hpp"

namespace {

using hprng::core::HybridPrng;
using hprng::core::HybridPrngConfig;
using hprng::host::BitFeeder;
using hprng::util::ThreadPool;

constexpr std::uint64_t kSeed = 0x5EEDBA5Eu;

// -- Generator jump-ahead hooks ----------------------------------------------

TEST(JumpAheadTest, DiscardMatchesSequentialDraws) {
  // discard_u32(k) must land exactly where k sequential draws land, for
  // every generator advertising a cheap jump.
  const std::uint64_t skips[] = {0, 1, 2, 7, 4096, 12345, 100003};
  for (const std::string name : {"glibc-lcg", "minstd", "splitmix64",
                                 "philox4x32-10", "cudpp-md5"}) {
    for (const std::uint64_t k : skips) {
      auto jumped = hprng::prng::make_by_name(name, kSeed);
      auto drawn = hprng::prng::make_by_name(name, kSeed);
      ASSERT_TRUE(jumped->cheap_jump()) << name;
      jumped->discard_u32(k);
      for (std::uint64_t i = 0; i < k; ++i) (void)drawn->next_u32();
      for (int i = 0; i < 16; ++i) {
        ASSERT_EQ(jumped->next_u32(), drawn->next_u32())
            << name << " diverges after discard_u32(" << k << ")";
      }
    }
  }
}

TEST(JumpAheadTest, CounterDiscardComposesFromMidBlock) {
  // The counter generators emit 4 u32 lanes per block; a discard_u32
  // issued mid-block (after j draws) must land exactly where j + k
  // sequential draws land — the lane-carry path of the counter jump.
  const std::uint64_t ks[] = {0, 1, 2, 3, 4, 5, 9, 4097};
  for (const std::string name : {"philox4x32-10", "cudpp-md5"}) {
    for (const std::uint64_t j : {1u, 2u, 3u}) {
      for (const std::uint64_t k : ks) {
        auto jumped = hprng::prng::make_by_name(name, kSeed);
        auto drawn = hprng::prng::make_by_name(name, kSeed);
        for (std::uint64_t i = 0; i < j; ++i) {
          (void)jumped->next_u32();
          (void)drawn->next_u32();
        }
        jumped->discard_u32(k);
        for (std::uint64_t i = 0; i < k; ++i) (void)drawn->next_u32();
        for (int i = 0; i < 8; ++i) {
          ASSERT_EQ(jumped->next_u32(), drawn->next_u32())
              << name << " diverges after " << j << " draws + discard_u32("
              << k << ")";
        }
      }
    }
  }
}

TEST(JumpAheadTest, CloneStateContinuesTheStream) {
  for (const std::string name : {"glibc-lcg", "minstd", "splitmix64",
                                 "mt19937"}) {
    auto g = hprng::prng::make_by_name(name, kSeed);
    for (int i = 0; i < 37; ++i) (void)g->next_u32();
    auto clone = g->clone_state();
    ASSERT_NE(clone, nullptr) << name;
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(clone->next_u32(), g->next_u32()) << name;
    }
  }
}

TEST(JumpAheadTest, SequentialGeneratorsReportNoCheapJump) {
  // mt19937 has no closed-form u32 jump here: the feeder must keep its
  // serial path (falling back would cost as much as filling).
  auto g = hprng::prng::make_by_name("mt19937", kSeed);
  EXPECT_FALSE(g->cheap_jump());
}

// -- BitFeeder chunked refills -----------------------------------------------

std::vector<std::uint32_t> feeder_fill(const std::string& generator,
                                       std::size_t words, ThreadPool* pool) {
  BitFeeder feeder(hprng::sim::DeviceSpec::tesla_c1060(), generator, kSeed);
  feeder.set_pool(pool);
  std::vector<std::uint32_t> out(words);
  feeder.fill(out);
  return out;
}

TEST(BitFeederPoolTest, ChunkedFillMatchesSerialForAnyWorkerCount) {
  // Sizes straddling the chunk grid: below the parallel threshold, exactly
  // on chunk boundaries, and with a ragged tail.
  const std::size_t sizes[] = {1, BitFeeder::kChunkWords,
                               2 * BitFeeder::kChunkWords,
                               3 * BitFeeder::kChunkWords + 123};
  for (const std::string name : {"glibc-lcg", "minstd", "splitmix64",
                                 "philox4x32-10"}) {
    for (const std::size_t words : sizes) {
      const std::vector<std::uint32_t> serial =
          feeder_fill(name, words, nullptr);
      for (const std::size_t workers : {1u, 3u, 8u}) {
        ThreadPool pool(workers);
        EXPECT_EQ(serial, feeder_fill(name, words, &pool))
            << name << " with " << workers << " workers, " << words
            << " words";
      }
    }
  }
}

TEST(BitFeederPoolTest, SerialFallbackGeneratorIgnoresThePool) {
  // No cheap_jump -> the pooled fill must take the serial path and still
  // produce the serial stream.
  const std::size_t words = 3 * BitFeeder::kChunkWords;
  const std::vector<std::uint32_t> serial =
      feeder_fill("mt19937", words, nullptr);
  ThreadPool pool(3);
  EXPECT_EQ(serial, feeder_fill("mt19937", words, &pool));
}

TEST(BitFeederPoolTest, PooledFeederKeepsItsPositionAcrossFills) {
  // Successive pooled fills must continue the stream exactly where a
  // serial feeder would be (the master generator jumps past each block).
  BitFeeder serial(hprng::sim::DeviceSpec::tesla_c1060(), "glibc-lcg", kSeed);
  BitFeeder pooled(hprng::sim::DeviceSpec::tesla_c1060(), "glibc-lcg", kSeed);
  ThreadPool pool(3);
  pooled.set_pool(&pool);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint32_t> a(2 * BitFeeder::kChunkWords + 17);
    std::vector<std::uint32_t> b(a.size());
    serial.fill(a);
    pooled.fill(b);
    ASSERT_EQ(a, b) << "round " << round;
  }
}

// -- Batched generation under a pool -----------------------------------------

TEST(HybridPoolTest, GenerateMatchesSerialForAnyWorkerCount) {
  std::vector<std::uint64_t> serial;
  {
    hprng::sim::Device dev;
    HybridPrng prng(dev);
    serial = prng.generate(20000, 100);
  }
  for (const std::size_t workers : {1u, 3u, 8u}) {
    ThreadPool pool(workers);
    hprng::sim::Device dev(hprng::sim::DeviceSpec::tesla_c1060(), &pool);
    HybridPrng prng(dev);
    EXPECT_EQ(serial, prng.generate(20000, 100)) << workers << " workers";
  }
}

// -- Serve fills: serial vs pooled -------------------------------------------

struct ServeHarness {
  explicit ServeHarness(ThreadPool* pool)
      : dev(hprng::sim::DeviceSpec::tesla_c1060(), pool), prng(dev, config()) {}

  static HybridPrngConfig config() {
    HybridPrngConfig cfg;
    cfg.seed = kSeed;
    cfg.walk_len = 8;
    return cfg;
  }

  hprng::sim::Device dev;
  HybridPrng prng;
};

/// Build the draw lists for two serial passes over `bufs` (reused by every
/// harness so the outputs are comparable): pass 0 fills walks 0..2, pass 1
/// fills walks 0 and 3 — walk 0 appears in both, pinning the cross-pass
/// feed-position bookkeeping. Walk 1 draws 3 chunks plus a ragged tail of
/// one-word draws, so its counter feed is large enough for the pooled
/// branch (at least 2 * BitFeeder::kChunkWords words).
std::vector<std::vector<HybridPrng::LeasedDraw>> make_passes(
    std::vector<std::vector<std::uint64_t>>& bufs) {
  bufs.assign(5, std::vector<std::uint64_t>(32));
  bufs[1].resize(3 * BitFeeder::kChunkWords + 5);
  return {
      {{0, std::span(bufs[0])}, {1, std::span(bufs[1])},
       {2, std::span(bufs[2])}},
      {{0, std::span(bufs[3])}, {3, std::span(bufs[4])}},
  };
}

TEST(ServeFillPoolTest, PooledFillsMatchSerialFills) {
  std::vector<std::vector<std::uint64_t>> serial_bufs;
  {
    ServeHarness h(nullptr);
    ASSERT_EQ(h.prng.words_per_draw(), 1u);  // walk 1's draws = feed words
    const auto passes = make_passes(serial_bufs);
    for (const auto& pass : passes) ASSERT_TRUE(h.prng.fill_leased(pass).ok);
  }
  for (const std::size_t workers : {1u, 3u, 8u}) {
    ThreadPool pool(workers);
    ServeHarness h(&pool);
    std::vector<std::vector<std::uint64_t>> bufs;
    const auto passes = make_passes(bufs);
    for (const auto& pass : passes) ASSERT_TRUE(h.prng.fill_leased(pass).ok);
    EXPECT_EQ(serial_bufs, bufs) << workers << " workers";
  }
}

}  // namespace
