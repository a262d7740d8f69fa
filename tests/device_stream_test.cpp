// Quality and contract tests of the *device* generation path, via the
// DeviceStreamGenerator adapter (the actual FEED/TRANSFER/GENERATE pipeline
// with interleaved multi-thread output order).

#include <gtest/gtest.h>

#include <set>

#include "core/device_stream.hpp"
#include "stat/crush.hpp"
#include "stat/diehard.hpp"

namespace hprng::core {
namespace {

TEST(DeviceStream, DeterministicPerSeedAndDivergentAcrossSeeds) {
  HybridPrngConfig cfg;
  cfg.seed = 11;
  DeviceStreamGenerator a(cfg), b(cfg);
  cfg.seed = 12;
  DeviceStreamGenerator c(cfg);
  int same_ab = 0, same_ac = 0;
  for (int i = 0; i < 500; ++i) {
    const auto va = a.next_u64();
    same_ab += va == b.next_u64() ? 1 : 0;
    same_ac += va == c.next_u64() ? 1 : 0;
  }
  EXPECT_EQ(same_ab, 500);
  EXPECT_LE(same_ac, 2);
}

TEST(DeviceStream, U32HalvesComposeTheU64Stream) {
  DeviceStreamGenerator a, b;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t x = a.next_u64();
    const std::uint64_t hi = b.next_u32();
    const std::uint64_t lo = b.next_u32();
    ASSERT_EQ(x, (hi << 32) | lo);
  }
}

TEST(DeviceStream, CloneReseeded) {
  DeviceStreamGenerator g;
  auto h = g.clone_reseeded(999);
  EXPECT_EQ(h->name(), "hybrid-prng-device");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (g.next_u64() == h->next_u64()) ++same;
  }
  EXPECT_LE(same, 2);
}

TEST(DeviceStream, RefillsAcrossBatchBoundaries) {
  HybridPrngConfig cfg;
  DeviceStreamGenerator g(cfg, /*refill_batch=*/1000,
                          /*numbers_per_thread=*/10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3500; ++i) seen.insert(g.next_u64());  // 4 refills
  EXPECT_GE(seen.size(), 3498u);
}

TEST(DeviceStream, PassesQuickDiehardSubset) {
  DeviceStreamGenerator g;
  stat::DiehardConfig cfg;
  cfg.scale = 0.25;
  EXPECT_GT(stat::diehard_birthday_spacings(g, cfg).p, 1e-3);
  EXPECT_GT(stat::diehard_runs(g, cfg).p, 1e-3);
  EXPECT_GT(stat::diehard_count_ones_stream(g, cfg).p, 1e-3);
}

TEST(DeviceStream, PassesQuickCrushSubset) {
  DeviceStreamGenerator g;
  EXPECT_GT(stat::crush_gap(g, 0.5).p, 1e-3);
  EXPECT_GT(stat::crush_weight_distrib(g, 0.5).p, 1e-3);
  EXPECT_GT(stat::crush_hamming_indep(g, 0.5).p, 1e-3);
}

TEST(DeviceStream, InterleavingDoesNotCoupleNeighbours) {
  // Successive outputs come from *different* device threads; they must not
  // share coordinates (contrast with the single-walk l=1 pathology).
  DeviceStreamGenerator g;
  int shared = 0;
  std::uint64_t prev = g.next_u64();
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t cur = g.next_u64();
    if ((cur >> 32) == (prev >> 32) ||
        (cur & 0xFFFFFFFFull) == (prev & 0xFFFFFFFFull)) {
      ++shared;
    }
    prev = cur;
  }
  EXPECT_LE(shared, 3);
}

}  // namespace
}  // namespace hprng::core
