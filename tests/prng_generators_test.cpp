#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <set>
#include <string>

#include "prng/lcg.hpp"
#include "prng/mt19937.hpp"
#include "prng/mwc.hpp"
#include "prng/philox.hpp"
#include "prng/registry.hpp"
#include "prng/splitmix64.hpp"
#include "prng/xorwow.hpp"

namespace hprng::prng {
namespace {

// --- Mersenne Twister: bit-exact against the C++ standard library ---------
TEST(Mt19937, MatchesStdMt19937) {
  Mt19937 ours(5489);
  std::mt19937 ref(5489);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(ours.next_u32(), ref()) << "draw " << i;
  }
}

TEST(Mt19937, MatchesStdMt19937OtherSeed) {
  Mt19937 ours(123456789);
  std::mt19937 ref(123456789);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(ours.next_u32(), ref());
  }
}

TEST(Mt19937_64, MatchesStdMt19937_64) {
  Mt19937_64 ours(5489);
  std::mt19937_64 ref(5489);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(ours.next_u64(), ref()) << "draw " << i;
  }
}

// --- MINSTD against std::minstd_rand ---------------------------------------
TEST(Minstd, MatchesStdMinstd) {
  Minstd ours(42);
  std::minstd_rand ref(42);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(ours.next_31(), ref()) << "draw " << i;
  }
}

// --- glibc rand(): bit-exact against the platform's glibc ------------------
TEST(GlibcRandom, MatchesPlatformRandom) {
  // This container runs glibc, whose random() is the TYPE_3 additive
  // feedback generator we re-implement.
  srandom(12345);
  GlibcRandom ours(12345);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(static_cast<long>(ours.next_31()), random()) << "draw " << i;
  }
}

TEST(GlibcRandom, MatchesPlatformRandomSeed1) {
  srandom(1);
  GlibcRandom ours(1);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(static_cast<long>(ours.next_31()), random());
  }
}

TEST(GlibcLcg, Type0Recurrence) {
  GlibcLcg g(1);
  // TYPE_0: state = state * 1103515245 + 12345, output = state & 0x7fffffff.
  std::uint32_t state = 1;
  for (int i = 0; i < 100; ++i) {
    state = state * 1103515245u + 12345u;
    EXPECT_EQ(g.next_31(), state & 0x7FFFFFFFu);
  }
}

// --- Philox: Random123 known-answer test -----------------------------------
TEST(Philox, KnownAnswerZero) {
  // Random123 kat_vectors: philox4x32 10 rounds, counter=0, key=0.
  const auto out = Philox4x32::block({0, 0, 0, 0}, {0, 0});
  EXPECT_EQ(out[0], 0x6627e8d5u);
  EXPECT_EQ(out[1], 0xe169c58du);
  EXPECT_EQ(out[2], 0xbc57ac4cu);
  EXPECT_EQ(out[3], 0x9b00dbd8u);
}

TEST(Philox, KnownAnswerAllOnes) {
  const auto out = Philox4x32::block(
      {0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
      {0xffffffffu, 0xffffffffu});
  EXPECT_EQ(out[0], 0x408f276du);
  EXPECT_EQ(out[1], 0x41c83b0eu);
  EXPECT_EQ(out[2], 0xa20bc7c6u);
  EXPECT_EQ(out[3], 0x6d5451fdu);
}

TEST(Philox, CounterIncrements) {
  Philox4x32 g(0);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(g.next_u32());
  EXPECT_GT(seen.size(), 60u);  // essentially all distinct
}

// --- XORWOW -----------------------------------------------------------------
TEST(Xorwow, MarsagliaRecurrence) {
  Xorwow g(7);
  // Replay the published recurrence by hand from the same state.
  Xorwow ref = g;
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t t = ref.x ^ (ref.x >> 2);
    ref.x = ref.y;
    ref.y = ref.z;
    ref.z = ref.w;
    ref.w = ref.v;
    ref.v = (ref.v ^ (ref.v << 4)) ^ (t ^ (t << 1));
    ref.d += 362437u;
    EXPECT_EQ(g.next_u32(), ref.v + ref.d);
  }
}

TEST(Xorwow, NonDegenerateSeeding) {
  // Even seed 0 must avoid the all-zero xorshift fixed point.
  Xorwow g(0);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(g.next_u32());
  EXPECT_GT(seen.size(), 95u);
}

// --- MWC ---------------------------------------------------------------------
TEST(Mwc, RecurrenceMatchesDefinition) {
  Mwc g(99);
  std::uint64_t state = 99;
  for (int i = 0; i < 1000; ++i) {
    state = static_cast<std::uint64_t>(Mwc::kDefaultMultiplier) *
                (state & 0xFFFFFFFFull) +
            (state >> 32);
    EXPECT_EQ(g.next_u32(), static_cast<std::uint32_t>(state));
  }
}

TEST(Mwc, AvoidsFixedPoints) {
  Mwc zero(0);
  EXPECT_NE(zero.state, 0u);
  // The absorbing state a*2^32-1 must be remapped too.
  const std::uint64_t absorbing =
      (static_cast<std::uint64_t>(Mwc::kDefaultMultiplier) << 32) - 1;
  Mwc trap(absorbing);
  EXPECT_NE(trap.state, absorbing);
}

// --- SplitMix64 ---------------------------------------------------------------
TEST(SplitMix64, KnownAnswer) {
  // Reference values from Vigna's splitmix64.c with seed 0.
  SplitMix64 g(0);
  EXPECT_EQ(g.next_u64(), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(g.next_u64(), 0x6E789E6AA1B965F4ull);
  EXPECT_EQ(g.next_u64(), 0x06C45D188009454Full);
}

TEST(SplitMix64, MixIsBijectivelyScrambling) {
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 1000; ++i) out.insert(splitmix64_mix(i));
  EXPECT_EQ(out.size(), 1000u);
}

// --- Jump-ahead: Generator::discard_u32 -------------------------------------

constexpr std::uint64_t kJumpSeed = 0x5EEDBA5Eu;

TEST(JumpAheadTest, DiscardMatchesSequentialDraws) {
  // discard_u32(k) must land exactly where k sequential draws land, for
  // every generator with a closed-form jump.
  const std::uint64_t skips[] = {0, 1, 2, 7, 4096, 12345, 100003};
  for (const std::string name : {"glibc-lcg", "minstd", "splitmix64",
                                 "philox4x32-10", "cudpp-md5"}) {
    for (const std::uint64_t k : skips) {
      auto jumped = make_by_name(name, kJumpSeed);
      auto drawn = make_by_name(name, kJumpSeed);
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
        auto jumped = make_by_name(name, kJumpSeed);
        auto drawn = make_by_name(name, kJumpSeed);
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

}  // namespace
}  // namespace hprng::prng
