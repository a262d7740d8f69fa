// Counter-backend family tests (docs/BACKENDS.md).
//
// Pins the whole chain from the pure block functions up through the
// serving layer: Philox4x32-10 against the Random123 known-answer
// vectors through the engine's coordinate mapping, the MD5 engine's
// block layout, the normative CounterStream word layout, partition
// disjointness between adjacent leases (wraparound near 2^64 included),
// O(1) jump equivalence with sequential draws (mid-block landings
// included), SmallCrush-equivalent statistical quality for both
// engines, and end-to-end serve determinism: client streams equal the
// closed-form coordinate streams, independent of worker count.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "prng/generator.hpp"
#include "prng/md5.hpp"
#include "prng/philox.hpp"
#include "prng/seed_seq.hpp"
#include "serve/counter_backend.hpp"
#include "serve/service.hpp"
#include "stat/battery.hpp"
#include "stat/crush.hpp"

namespace hprng {
namespace {

using serve::CounterBackend;
using serve::CounterStream;
using serve::make_counter_backend;

// --- Engine registry --------------------------------------------------------

TEST(CounterBackendRegistry, KnownEnginesConstruct) {
  const std::vector<std::string> names = serve::known_counter_backends();
  ASSERT_EQ(names.size(), 2u);
  for (const std::string& name : names) {
    auto engine = make_counter_backend(name);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(engine->name(), name);
  }
  EXPECT_EQ(make_counter_backend("no-such-engine"), nullptr);
  // The serve registry lists both counter engines and rejects typos.
  EXPECT_TRUE(serve::backend_known("philox"));
  EXPECT_TRUE(serve::backend_known("md5-counter"));
  EXPECT_FALSE(serve::backend_known("philox4x32"));
}

// --- Philox coordinate mapping vs the Random123 vectors ---------------------
//
// The engine maps (key, stream, index) onto the Philox counter as
// {index_lo, index_hi, stream_lo, stream_hi} with the key split into the
// two key words (docs/BACKENDS.md §3). Driving the published
// known-answer coordinates through that mapping must reproduce the
// Random123 kat_vectors outputs exactly.

TEST(PhiloxEngine, KnownAnswerZero) {
  auto engine = make_counter_backend("philox");
  const CounterBackend::Block out = engine->block(0, 0, 0);
  EXPECT_EQ(out[0], 0x6627e8d5u);
  EXPECT_EQ(out[1], 0xe169c58du);
  EXPECT_EQ(out[2], 0xbc57ac4cu);
  EXPECT_EQ(out[3], 0x9b00dbd8u);
}

TEST(PhiloxEngine, KnownAnswerAllOnes) {
  auto engine = make_counter_backend("philox");
  const CounterBackend::Block out =
      engine->block(~0ull, ~0ull, ~0ull);
  EXPECT_EQ(out[0], 0x408f276du);
  EXPECT_EQ(out[1], 0x41c83b0eu);
  EXPECT_EQ(out[2], 0xa20bc7c6u);
  EXPECT_EQ(out[3], 0x6d5451fdu);
}

TEST(PhiloxEngine, CoordinateMappingIsTheDocumentedOne) {
  // The normative layout, checked word by word against a direct
  // Philox4x32::block call with hand-assembled counter/key words.
  auto engine = make_counter_backend("philox");
  const std::uint64_t key = 0x299f31d0a4093822ull;
  const std::uint64_t stream = 0x0370734413198a2eull;
  const std::uint64_t index = 0x85a308d3243f6a88ull;
  const CounterBackend::Block direct = prng::Philox4x32::block(
      {0x243f6a88u, 0x85a308d3u, 0x13198a2eu, 0x03707344u},
      {0xa4093822u, 0x299f31d0u});
  EXPECT_EQ(engine->block(key, stream, index), direct);
}

// --- MD5 engine block layout ------------------------------------------------

TEST(Md5Engine, BlockLayoutMatchesSpec) {
  // Words 0-1 key, 2-3 stream, 4-5 index, 6-15 the CUDPP-style
  // domain-separation constants, through one compress_block.
  auto engine = make_counter_backend("md5-counter");
  const std::uint64_t key = 0x1122334455667788ull;
  const std::uint64_t stream = 0x99aabbccddeeff00ull;
  const std::uint64_t index = 0x0123456789abcdefull;
  std::array<std::uint32_t, 16> input{};
  input[0] = 0x55667788u;
  input[1] = 0x11223344u;
  input[2] = 0xddeeff00u;
  input[3] = 0x99aabbccu;
  input[4] = 0x89abcdefu;
  input[5] = 0x01234567u;
  for (int i = 6; i < 16; ++i) {
    input[static_cast<std::size_t>(i)] =
        0x5A827999u * static_cast<std::uint32_t>(i);
  }
  EXPECT_EQ(engine->block(key, stream, index),
            prng::Md5::compress_block(input));
}

// --- Purity and the normative word layout -----------------------------------

TEST(CounterEngines, BlockIsAPureFunction) {
  for (const std::string& name : serve::known_counter_backends()) {
    auto a = make_counter_backend(name);
    auto b = make_counter_backend(name);  // distinct instance, same math
    for (std::uint64_t i = 0; i < 8; ++i) {
      EXPECT_EQ(a->block(3, 5, i), a->block(3, 5, i)) << name;
      EXPECT_EQ(a->block(3, 5, i), b->block(3, 5, i)) << name;
    }
  }
}

TEST(CounterStreamLayout, DrawsFollowTheDocumentedWordOrder) {
  // Block b yields u64 draws 2b = (w0<<32)|w1 and 2b+1 = (w2<<32)|w3.
  for (const std::string& name : serve::known_counter_backends()) {
    auto engine = make_counter_backend(name);
    CounterStream s(engine.get(), 7, 11);
    for (std::uint64_t b = 0; b < 16; ++b) {
      const CounterBackend::Block w = engine->block(7, 11, b);
      EXPECT_EQ(s.next_u64(),
                (static_cast<std::uint64_t>(w[0]) << 32) | w[1])
          << name << " block " << b;
      EXPECT_EQ(s.next_u64(),
                (static_cast<std::uint64_t>(w[2]) << 32) | w[3])
          << name << " block " << b;
    }
  }
}

// --- Partition disjointness -------------------------------------------------

TEST(CounterPartitions, AdjacentStreamsNeverShareBlocks) {
  // Adjacent stream ids, sampled across the whole index range including
  // both ends: every (stream, index) block must be distinct. Index
  // arithmetic occupies its own coordinate, so no position in stream s
  // can ever produce a block of stream s+1.
  const std::uint64_t idxs[] = {0, 1, 2, 0x8000000000000000ull,
                                ~0ull - 1, ~0ull};
  for (const std::string& name : serve::known_counter_backends()) {
    auto engine = make_counter_backend(name);
    std::set<CounterBackend::Block> seen;
    for (const std::uint64_t stream : {42ull, 43ull, 44ull}) {
      for (const std::uint64_t i : idxs) {
        EXPECT_TRUE(seen.insert(engine->block(9, stream, i)).second)
            << name << " collision at stream " << stream << " index " << i;
      }
    }
  }
}

TEST(CounterPartitions, PositionWrapsIntoOwnStream) {
  // A stream pushed past 2^64 draws wraps to its own origin — never into
  // an adjacent partition. The draws after the wrap equal a fresh stream
  // from position 0.
  for (const std::string& name : serve::known_counter_backends()) {
    auto engine = make_counter_backend(name);
    CounterStream s(engine.get(), 5, 21);
    s.jump_to(~0ull - 1);  // the final block's two draws, then the wrap
    const std::uint64_t last_block_lo = s.next_u64();
    const std::uint64_t last_block_hi = s.next_u64();
    // The final block really is block 2^63 - 1 of stream 21...
    const CounterBackend::Block tail = engine->block(5, 21, ~0ull >> 1);
    EXPECT_EQ(last_block_lo,
              (static_cast<std::uint64_t>(tail[0]) << 32) | tail[1]);
    EXPECT_EQ(last_block_hi,
              (static_cast<std::uint64_t>(tail[2]) << 32) | tail[3]);
    // ...and the wrap lands on stream 21's own first draw.
    EXPECT_EQ(s.position(), 0u) << name;
    CounterStream fresh(engine.get(), 5, 21);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(s.next_u64(), fresh.next_u64()) << name;
    }
  }
}

// --- O(1) jumps -------------------------------------------------------------

TEST(CounterJump, JumpToMatchesSequentialDraws) {
  // jump_to(k) lands exactly where k sequential draws land — even and odd
  // (mid-block) positions alike.
  const std::uint64_t positions[] = {0, 1, 2, 3, 7, 8, 101, 4096, 12345};
  for (const std::string& name : serve::known_counter_backends()) {
    auto engine = make_counter_backend(name);
    for (const std::uint64_t k : positions) {
      CounterStream drawn(engine.get(), 13, 29);
      for (std::uint64_t i = 0; i < k; ++i) (void)drawn.next_u64();
      CounterStream jumped(engine.get(), 13, 29);
      jumped.jump_to(k);
      for (int i = 0; i < 16; ++i) {
        ASSERT_EQ(jumped.next_u64(), drawn.next_u64())
            << name << " diverges after jump_to(" << k << ")";
      }
    }
  }
}

// --- Statistical quality ----------------------------------------------------

/// CounterStream as a concrete u32 generator for the battery harness:
/// emits each u64 draw hi-half first, the same word order the serving
/// layer delivers.
struct CounterStreamGen {
  static constexpr const char* kName = "counter-stream";

  // shared_ptr (not unique) so prng::Adapter's clone_state copy works.
  explicit CounterStreamGen(std::uint64_t seed)
      : engine(make_counter_backend(seed == 0 ? "philox" : "md5-counter")),
        stream(engine.get(), 0x9E3779B97F4A7C15ull, seed) {}

  std::uint32_t next_u32() {
    if (!pending) {
      word = stream.next_u64();
      pending = true;
      return static_cast<std::uint32_t>(word >> 32);
    }
    pending = false;
    return static_cast<std::uint32_t>(word);
  }

  std::shared_ptr<CounterBackend> engine;
  CounterStream stream;
  std::uint64_t word = 0;
  bool pending = false;
};

TEST(CounterQuality, PhiloxStreamPassesSmallCrushEquivalent) {
  prng::Adapter<CounterStreamGen> g(0);  // seed 0 -> philox
  const auto report =
      stat::run_battery("SmallCrush", stat::crush_battery(
                            stat::small_crush_tier()),
                        g, 1e-3, 1.0 - 1e-3);
  EXPECT_GE(report.num_passed(), 14) << report.detail();
}

TEST(CounterQuality, Md5StreamPassesSmallCrushEquivalent) {
  prng::Adapter<CounterStreamGen> g(1);  // nonzero seed -> md5-counter
  const auto report =
      stat::run_battery("SmallCrush", stat::crush_battery(
                            stat::small_crush_tier()),
                        g, 1e-3, 1.0 - 1e-3);
  EXPECT_GE(report.num_passed(), 14) << report.detail();
}

// --- End-to-end serve determinism -------------------------------------------

serve::ServiceOptions counter_options(const std::string& backend,
                                      int workers) {
  serve::ServiceOptions opts;
  opts.backend = backend;
  opts.num_shards = 2;
  opts.max_leases_per_shard = 4;
  opts.num_workers = workers;
  opts.queue_capacity = 64;
  opts.max_coalesce = 4;
  return opts;
}

/// Serve `fills` rounds of `words` u64s to `clients` pinned sessions and
/// return the per-client streams.
std::vector<std::vector<std::uint64_t>> serve_streams(
    const std::string& backend, int workers, int clients, int fills,
    std::size_t words, std::vector<serve::Lease>* leases = nullptr) {
  serve::RngService service(counter_options(backend, workers));
  std::vector<serve::Session> sessions;
  for (int c = 0; c < clients; ++c) {
    auto s = service.try_open_session(static_cast<std::uint64_t>(c));
    EXPECT_TRUE(s.has_value());
    sessions.push_back(*s);
    if (leases != nullptr) leases->push_back(s->lease());
  }
  std::vector<std::vector<std::uint64_t>> streams(
      static_cast<std::size_t>(clients));
  for (int f = 0; f < fills; ++f) {
    for (std::size_t c = 0; c < sessions.size(); ++c) {
      std::vector<std::uint64_t> buf(words);
      EXPECT_EQ(sessions[c].fill(buf, std::chrono::seconds(30)),
                serve::Status::kOk);
      streams[c].insert(streams[c].end(), buf.begin(), buf.end());
    }
  }
  return streams;
}

TEST(CounterServe, ClientStreamsEqualTheClosedFormCoordinates) {
  // The full-stack pin: a served client's words are exactly the
  // CounterStream of (key = shard split root, stream = lease seed) —
  // the coalescing serving machinery adds nothing and loses
  // nothing. Odd fill sizes keep streams crossing block boundaries
  // mid-fill.
  constexpr int kClients = 5;
  for (const std::string& backend : serve::known_counter_backends()) {
    std::vector<serve::Lease> leases;
    const auto streams =
        serve_streams(backend, 2, kClients, 3, 33, &leases);
    auto engine = make_counter_backend(backend);
    const serve::ServiceOptions opts = counter_options(backend, 2);
    for (int c = 0; c < kClients; ++c) {
      const serve::Lease& lease = leases[static_cast<std::size_t>(c)];
      const std::uint64_t key =
          prng::SeedSequence(opts.seed)
              .split(static_cast<std::uint64_t>(lease.shard))
              .root();
      CounterStream expect(engine.get(), key, lease.seed);
      for (std::size_t i = 0;
           i < streams[static_cast<std::size_t>(c)].size(); ++i) {
        ASSERT_EQ(streams[static_cast<std::size_t>(c)][i],
                  expect.next_u64())
            << backend << " client " << c << " word " << i;
      }
    }
  }
}

TEST(CounterServe, StreamsAreWorkerCountInvariant) {
  // Serial (1 worker) vs concurrent (4 workers): bit-identical
  // per-client streams, the pool_determinism property for the counter
  // family.
  for (const std::string& backend : serve::known_counter_backends()) {
    const auto serial = serve_streams(backend, 1, 6, 4, 17);
    const auto parallel = serve_streams(backend, 4, 6, 4, 17);
    EXPECT_EQ(serial, parallel) << backend;
  }
}

TEST(CounterServe, LeasedStreamsAreDisjoint) {
  // No u64 value appears in two leased streams (the serving-layer
  // restatement of partition disjointness; ~8k words per backend).
  for (const std::string& backend : serve::known_counter_backends()) {
    const auto streams = serve_streams(backend, 2, 8, 4, 32);
    std::set<std::uint64_t> seen;
    std::size_t total = 0;
    for (const auto& stream : streams) {
      for (const std::uint64_t v : stream) {
        seen.insert(v);
        ++total;
      }
    }
    EXPECT_EQ(seen.size(), total) << backend;
  }
}

}  // namespace
}  // namespace hprng
