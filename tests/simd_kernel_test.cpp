// SIMD kernel equivalence (docs/PERFORMANCE.md §6): the hprng::simd
// dispatch layer may pick any supported kernel and the output stream must
// not move by a single bit. This suite pins that contract at every level —
// the raw fill kernels against their scalar references, Generator::fill_u32
// for EVERY registered generator, the lane-batched walk kernel against
// expander::walk, and the end-to-end serve/batch paths under each supported
// kernel.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/hybrid_prng.hpp"
#include "expander/bit_reader.hpp"
#include "expander/walk.hpp"
#include "host/bit_feeder.hpp"
#include "prng/lcg.hpp"
#include "prng/registry.hpp"
#include "prng/seed_seq.hpp"
#include "prng/splitmix64.hpp"
#include "sim/device.hpp"
#include "simd/simd.hpp"

namespace {

namespace simd = hprng::simd;
using hprng::core::HybridPrng;
using hprng::core::HybridPrngConfig;
using hprng::expander::NeighborPolicy;
using hprng::expander::WalkMode;
using hprng::host::BitFeeder;

constexpr std::uint64_t kSeed = 0x51D0BEEFu;

/// Every kernel this machine can actually run (always includes kScalar).
std::vector<simd::Kernel> supported_kernels() {
  std::vector<simd::Kernel> ks;
  for (const simd::Kernel k :
       {simd::Kernel::kScalar, simd::Kernel::kAvx2, simd::Kernel::kNeon}) {
    if (simd::supported(k)) ks.push_back(k);
  }
  return ks;
}

/// RAII: force a kernel for one scope, restore the previous dispatch after
/// (the dispatch slot is process-global — tests must not leak theirs).
class KernelScope {
 public:
  explicit KernelScope(simd::Kernel k) : prev_(simd::active_kernel()) {
    EXPECT_TRUE(simd::force_kernel(k));
  }
  ~KernelScope() { simd::force_kernel(prev_); }

 private:
  simd::Kernel prev_;
};

// -- Dispatch layer ----------------------------------------------------------

TEST(SimdDispatchTest, KernelNamesRoundTrip) {
  for (const simd::Kernel k :
       {simd::Kernel::kScalar, simd::Kernel::kAvx2, simd::Kernel::kNeon}) {
    simd::Kernel parsed = simd::Kernel::kScalar;
    ASSERT_TRUE(simd::parse_kernel(simd::to_string(k), &parsed));
    EXPECT_EQ(parsed, k);
  }
  simd::Kernel parsed = simd::Kernel::kAvx2;
  EXPECT_FALSE(simd::parse_kernel("sse9", &parsed));
  EXPECT_EQ(parsed, simd::Kernel::kAvx2);  // untouched on failure
}

TEST(SimdDispatchTest, ScalarIsAlwaysSupportedAndForceable) {
  EXPECT_TRUE(simd::supported(simd::Kernel::kScalar));
  KernelScope scope(simd::Kernel::kScalar);
  EXPECT_EQ(simd::active_kernel(), simd::Kernel::kScalar);
  EXPECT_STREQ(simd::kernel_name(), "scalar");
  EXPECT_EQ(simd::lane_width_u32(), 1);
}

TEST(SimdDispatchTest, ForcingAnUnsupportedKernelIsRejected) {
  const simd::Kernel before = simd::active_kernel();
  for (const simd::Kernel k : {simd::Kernel::kAvx2, simd::Kernel::kNeon}) {
    if (simd::supported(k)) continue;
    EXPECT_FALSE(simd::force_kernel(k));
    EXPECT_EQ(simd::active_kernel(), before);  // dispatch unchanged
  }
}

TEST(SimdDispatchTest, LaneWidthsMatchTheKernel) {
  EXPECT_EQ(simd::lane_width_u32(simd::Kernel::kScalar), 1);
  EXPECT_EQ(simd::lane_width_u32(simd::Kernel::kAvx2), 8);
  EXPECT_EQ(simd::lane_width_u32(simd::Kernel::kNeon), 4);
  EXPECT_TRUE(simd::supported(simd::best_supported()));
}

// -- Raw fill kernels vs scalar references -----------------------------------

TEST(SimdFillTest, DeriveFillMatchesSeedSequenceEveryKernel) {
  // Sizes straddle the vector width: sub-width, exact multiples, ragged
  // tails; positions exercise the 64-bit counter far from zero.
  const std::size_t sizes[] = {0, 1, 3, 7, 8, 9, 16, 64, 1000, 4097};
  const std::uint64_t positions[] = {0, 1, 12345, 0xFFFFFFFFull,
                                     0x123456789ABCull};
  const hprng::prng::SeedSequence seq(kSeed);
  for (const simd::Kernel k : supported_kernels()) {
    KernelScope scope(k);
    for (const std::size_t n : sizes) {
      for (const std::uint64_t pos : positions) {
        std::vector<std::uint32_t> got(n + 1, 0xA5A5A5A5u);
        simd::derive_fill_u32(kSeed, pos, got.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], static_cast<std::uint32_t>(seq.derive(pos + i)))
              << simd::to_string(k) << " n=" << n << " pos=" << pos
              << " i=" << i;
        }
        EXPECT_EQ(got[n], 0xA5A5A5A5u) << "overwrote past the end";
      }
    }
  }
}

TEST(SimdFillTest, SplitmixFillMatchesSerialDrawsAndState) {
  const std::size_t sizes[] = {0, 1, 5, 8, 13, 64, 4097};
  for (const simd::Kernel k : supported_kernels()) {
    KernelScope scope(k);
    for (const std::size_t n : sizes) {
      hprng::prng::SplitMix64 ref(kSeed);
      std::vector<std::uint32_t> want(n);
      for (auto& w : want) w = ref.next_u32();
      std::uint64_t state = kSeed;
      std::vector<std::uint32_t> got(n);
      simd::splitmix_fill_u32(&state, got.data(), n);
      EXPECT_EQ(want, got) << simd::to_string(k) << " n=" << n;
      EXPECT_EQ(state, ref.state) << "state diverged, n=" << n;
    }
  }
}

TEST(SimdFillTest, GlibcLcgFillMatchesSerialDrawsAndState) {
  const std::size_t sizes[] = {0, 1, 5, 8, 13, 64, 4097};
  for (const simd::Kernel k : supported_kernels()) {
    KernelScope scope(k);
    for (const std::size_t n : sizes) {
      hprng::prng::GlibcLcg ref(kSeed);
      std::vector<std::uint32_t> want(n);
      for (auto& w : want) w = ref.next_u32();
      hprng::prng::GlibcLcg g(kSeed);
      std::vector<std::uint32_t> got(n);
      simd::glibc_lcg_fill_u32(&g.state, got.data(), n);
      EXPECT_EQ(want, got) << simd::to_string(k) << " n=" << n;
      EXPECT_EQ(g.state, ref.state) << "state diverged, n=" << n;
    }
  }
}

// -- Generator::fill_u32 for every registered generator ----------------------

TEST(SimdFillTest, FillU32MatchesSerialDrawsForEveryRegisteredGenerator) {
  // The interface contract: fill_u32 produces exactly out.size() next_u32
  // draws AND leaves the stream at the same position, no matter which
  // kernel is dispatched — including generators on the default serial body.
  const std::size_t sizes[] = {1, 7, 8, 9, 255, 4096 + 17};
  for (const simd::Kernel k : supported_kernels()) {
    KernelScope scope(k);
    for (const std::string& name : hprng::prng::known_generators()) {
      for (const std::size_t n : sizes) {
        auto ref = hprng::prng::make_by_name(name, kSeed);
        auto bulk = hprng::prng::make_by_name(name, kSeed);
        std::vector<std::uint32_t> want(n);
        for (auto& w : want) w = ref->next_u32();
        std::vector<std::uint32_t> got(n);
        bulk->fill_u32(got);
        ASSERT_EQ(want, got)
            << name << " under " << simd::to_string(k) << ", n=" << n;
        for (int i = 0; i < 8; ++i) {
          ASSERT_EQ(bulk->next_u32(), ref->next_u32())
              << name << " stream position diverged after fill_u32(" << n
              << ") under " << simd::to_string(k);
        }
      }
    }
  }
}

// -- Lane-batched walks vs expander::walk ------------------------------------

/// Reference for walk_draws: per lane, the plain scalar walk over the same
/// feed slices.
void reference_walk(std::vector<simd::WalkLane> lanes, std::uint64_t draws,
                    std::uint32_t wpd, int len, NeighborPolicy policy,
                    bool finalize, std::vector<std::uint64_t>* out) {
  for (auto& lane : lanes) {
    hprng::expander::WalkState s;
    s.v = hprng::expander::Vertex{lane.x, lane.y};
    for (std::uint64_t j = 0; j < draws; ++j) {
      hprng::expander::BitReader bits(
          std::span<const std::uint32_t>(lane.bits + j * wpd, wpd));
      hprng::expander::walk(s, bits, len, policy, WalkMode::kForwardOnly);
      const std::uint64_t id = s.v.id();
      out->push_back(finalize ? hprng::prng::splitmix64_mix(id) : id);
    }
    out->push_back(s.v.x);
    out->push_back(s.v.y);
  }
}

TEST(SimdWalkTest, WalkDrawsMatchesScalarWalkEveryKernel) {
  // Walk lengths whose bit budget lands on and off word boundaries
  // (3 bits/step: len 32 = 96 bits = 3 words exact; len 11 = 33 bits,
  // ragged), both vectorizable policies, finalize on and off, and lane
  // counts straddling every vector width (1..8).
  hprng::prng::SplitMix64 feed(0xFEEDF00Dull);
  for (const int len : {1, 8, 11, 32}) {
    const std::uint32_t wpd = static_cast<std::uint32_t>(
        hprng::expander::BitReader::words_needed(1, 3 * len));
    const std::uint64_t draws = 5;
    for (const NeighborPolicy policy :
         {NeighborPolicy::kMod7, NeighborPolicy::kSevenStays}) {
      for (const bool finalize : {false, true}) {
        for (const int n_lanes : {1, 3, 4, 7, 8}) {
          // One shared feed pool, distinct slice per lane.
          std::vector<std::uint32_t> bits(
              static_cast<std::size_t>(n_lanes) * draws * wpd);
          for (auto& w : bits) w = feed.next_u32();
          std::vector<std::vector<std::uint64_t>> outs(
              static_cast<std::size_t>(n_lanes),
              std::vector<std::uint64_t>(draws));
          std::vector<simd::WalkLane> lanes(
              static_cast<std::size_t>(n_lanes));
          for (int l = 0; l < n_lanes; ++l) {
            lanes[static_cast<std::size_t>(l)] = simd::WalkLane{
                0x1234u * static_cast<std::uint32_t>(l + 1),
                0xABCDu + static_cast<std::uint32_t>(l),
                bits.data() + static_cast<std::size_t>(l) * draws * wpd,
                outs[static_cast<std::size_t>(l)].data()};
          }
          std::vector<std::uint64_t> want;
          reference_walk(lanes, draws, wpd, len, policy, finalize, &want);
          for (const simd::Kernel k : supported_kernels()) {
            KernelScope scope(k);
            auto trial = lanes;
            std::vector<std::vector<std::uint64_t>> trial_outs = outs;
            for (int l = 0; l < n_lanes; ++l) {
              trial[static_cast<std::size_t>(l)].out =
                  trial_outs[static_cast<std::size_t>(l)].data();
            }
            simd::walk_draws(trial.data(), n_lanes, draws, wpd, len, policy,
                             finalize);
            std::vector<std::uint64_t> got;
            for (int l = 0; l < n_lanes; ++l) {
              const auto& o = trial_outs[static_cast<std::size_t>(l)];
              got.insert(got.end(), o.begin(), o.end());
              got.push_back(trial[static_cast<std::size_t>(l)].x);
              got.push_back(trial[static_cast<std::size_t>(l)].y);
            }
            ASSERT_EQ(want, got)
                << simd::to_string(k) << " len=" << len
                << " policy=" << static_cast<int>(policy)
                << " finalize=" << finalize << " lanes=" << n_lanes;
          }
        }
      }
    }
  }
}

TEST(SimdWalkTest, Mod7AndSevenStaysAreVectorizableRejectionIsNot) {
  EXPECT_TRUE(
      simd::walk_vectorizable(NeighborPolicy::kMod7, WalkMode::kForwardOnly));
  EXPECT_TRUE(simd::walk_vectorizable(NeighborPolicy::kSevenStays,
                                      WalkMode::kForwardOnly));
  EXPECT_FALSE(simd::walk_vectorizable(NeighborPolicy::kRejection,
                                       WalkMode::kForwardOnly));
  EXPECT_FALSE(
      simd::walk_vectorizable(NeighborPolicy::kMod7, WalkMode::kAlternating));
}

// -- End-to-end: serve fills and batched generation --------------------------

/// One serve traffic pattern with mixed draw counts, walks out of tid
/// order, group-straddling fill sizes (> kWalkGroup walks) and a repeat
/// pass; returns every output word in a flat vector.
std::vector<std::uint64_t> serve_traffic(const HybridPrngConfig& cfg) {
  hprng::sim::Device dev;
  HybridPrng prng(dev, cfg);
  // 11 walks: more than one kWalkGroup group, with a ragged trailing group.
  std::vector<std::vector<std::uint64_t>> bufs;
  for (const std::size_t n : {5u, 1u, 9u, 8u, 2u, 7u, 3u, 4u, 6u, 1u, 8u}) {
    bufs.emplace_back(n);
  }
  std::vector<HybridPrng::LeasedDraw> pass1;
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    // Walks deliberately not in tid order and not dense.
    pass1.push_back({(bufs.size() - 1 - i) * 2, std::span(bufs[i])});
  }
  if (!prng.fill_leased(pass1).ok) ADD_FAILURE() << "pass1 failed";
  // Second pass revisits a subset so states continue mid-stream.
  std::vector<std::vector<std::uint64_t>> bufs2(4,
                                                std::vector<std::uint64_t>(5));
  std::vector<HybridPrng::LeasedDraw> pass2;
  for (std::size_t i = 0; i < bufs2.size(); ++i) {
    pass2.push_back({i * 4, std::span(bufs2[i])});
  }
  if (!prng.fill_leased(pass2).ok) ADD_FAILURE() << "pass2 failed";
  std::vector<std::uint64_t> flat;
  for (const auto& b : bufs) flat.insert(flat.end(), b.begin(), b.end());
  for (const auto& b : bufs2) flat.insert(flat.end(), b.begin(), b.end());
  return flat;
}

TEST(SimdEndToEndTest, ServeFillsBitIdenticalAcrossKernels) {
  for (const NeighborPolicy policy :
       {NeighborPolicy::kMod7, NeighborPolicy::kSevenStays,
        NeighborPolicy::kRejection}) {
    for (const int walk_len : {8, 11, 32}) {
      for (const bool finalize : {false, true}) {
        HybridPrngConfig cfg;
        cfg.seed = kSeed;
        cfg.policy = policy;
        cfg.walk_len = walk_len;
        cfg.finalize_output = finalize;
        std::vector<std::uint64_t> want;
        {
          KernelScope scope(simd::Kernel::kScalar);
          want = serve_traffic(cfg);
        }
        for (const simd::Kernel k : supported_kernels()) {
          KernelScope scope(k);
          ASSERT_EQ(want, serve_traffic(cfg))
              << simd::to_string(k) << " policy=" << static_cast<int>(policy)
              << " len=" << walk_len << " finalize=" << finalize;
        }
      }
    }
  }
}

TEST(SimdEndToEndTest, BatchedGenerateBitIdenticalAcrossKernels) {
  // 2500 numbers over 1000 threads: multiple rounds, a ragged final round,
  // and a thread count that is not a multiple of kWalkGroup.
  HybridPrngConfig cfg;
  cfg.seed = kSeed;
  cfg.walk_len = 8;
  cfg.num_threads = 1000;
  std::vector<std::uint64_t> want;
  {
    KernelScope scope(simd::Kernel::kScalar);
    hprng::sim::Device dev;
    HybridPrng prng(dev, cfg);
    want = prng.generate(2500, 3);
  }
  for (const simd::Kernel k : supported_kernels()) {
    KernelScope scope(k);
    hprng::sim::Device dev;
    HybridPrng prng(dev, cfg);
    ASSERT_EQ(want, prng.generate(2500, 3)) << simd::to_string(k);
  }
}

TEST(SimdEndToEndTest, FeederFillBitIdenticalAcrossKernels) {
  const std::size_t words = 12411;  // odd: a ragged tail after the lanes
  for (const std::string name : {"glibc-lcg", "splitmix64", "minstd"}) {
    std::vector<std::uint32_t> want(words);
    {
      KernelScope scope(simd::Kernel::kScalar);
      BitFeeder f(hprng::sim::DeviceSpec::tesla_c1060(), name, kSeed);
      f.fill(want);
    }
    for (const simd::Kernel k : supported_kernels()) {
      KernelScope scope(k);
      std::vector<std::uint32_t> got(words);
      BitFeeder f(hprng::sim::DeviceSpec::tesla_c1060(), name, kSeed);
      f.fill(got);
      ASSERT_EQ(want, got) << name << " " << simd::to_string(k);
    }
  }
}

}  // namespace
