// RngService checkpoint/restore tests (docs/STATE.md).
//
// The headline guarantee this suite pins: a service checkpointed at an
// arbitrary pass boundary and restored in a fresh RngService emits, per
// lease, byte-identical continuation streams to a service that was never
// interrupted — for every backend family (hybrid pipeline, cpu-walk,
// registry baselines). Around that: corruption of any snapshot byte is
// rejected with a diagnostic and constructs nothing, injected
// checkpoint_write / restore_read faults fail cleanly while the service
// keeps serving, checkpoint-under-chaos replays deterministically from
// HPRNG_CHAOS_SEED, and the background checkpointer ticks.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "quality/quality.hpp"
#include "serve/service.hpp"
#include "state/checkpointer.hpp"
#include "state/sections.hpp"
#include "state/snapshot.hpp"
#include "util/file.hpp"

namespace hprng {
namespace {

using namespace std::chrono_literals;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "hprng_checkpoint_test_" + name;
}

serve::ServiceOptions small_options(const std::string& backend) {
  serve::ServiceOptions opts;
  opts.backend = backend;
  opts.num_shards = 2;
  opts.max_leases_per_shard = 4;
  opts.num_workers = 2;
  opts.queue_capacity = 64;
  opts.max_coalesce = 4;
  opts.walk_len = 8;
  return opts;
}

/// Open `clients` sessions pinned round-robin over the shards so two runs
/// assign identical (shard, slot, id) triples and streams compare 1:1.
std::vector<serve::Session> open_pinned(serve::RngService& service,
                                        int clients) {
  std::vector<serve::Session> sessions;
  sessions.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    auto session = service.try_open_session(static_cast<std::uint64_t>(c));
    EXPECT_TRUE(session.has_value());
    sessions.push_back(*session);
  }
  return sessions;
}

/// `fills` sequential fills of `words` each; appends to per-client streams.
void run_traffic(std::vector<serve::Session>& sessions, int fills,
                 std::size_t words,
                 std::vector<std::vector<std::uint64_t>>* streams) {
  streams->resize(sessions.size());
  for (int f = 0; f < fills; ++f) {
    for (std::size_t c = 0; c < sessions.size(); ++c) {
      std::vector<std::uint64_t> buf(words);
      ASSERT_EQ(sessions[c].fill(buf, 30s), serve::Status::kOk)
          << "client " << c << " fill " << f;
      (*streams)[c].insert((*streams)[c].end(), buf.begin(), buf.end());
    }
  }
}

/// The equivalence experiment, per backend: an uninterrupted reference run
/// vs. a run that checkpoints halfway, is destroyed, and continues in a
/// restored service via lease adoption. Streams must match byte-exactly.
/// `fills`/`words` shape each half's traffic (odd products park counter
/// backends mid-block at the checkpoint).
void expect_restore_equivalence(const std::string& backend, int fills = 4,
                                std::size_t words = 96) {
  SCOPED_TRACE("backend " + backend);
  constexpr int kClients = 5;
  const int kFills = fills;
  const std::size_t kWords = words;
  const std::string path = tmp_path("equiv_" + backend + ".snap");

  // Reference: one service, full streams, never interrupted.
  std::vector<std::vector<std::uint64_t>> reference;
  {
    serve::RngService service(small_options(backend));
    auto sessions = open_pinned(service, kClients);
    run_traffic(sessions, 2 * kFills, kWords, &reference);
  }

  // Checkpointed: first half, snapshot, destroy the process-equivalent.
  std::vector<std::vector<std::uint64_t>> streams;
  std::vector<std::uint64_t> lease_ids;
  {
    serve::RngService service(small_options(backend));
    auto sessions = open_pinned(service, kClients);
    run_traffic(sessions, kFills, kWords, &streams);
    for (const serve::Session& s : sessions) {
      lease_ids.push_back(s.lease().id);
    }
    service.drain();
    std::string error;
    ASSERT_TRUE(service.checkpoint(path, &error)) << error;
  }

  // Restored: a fresh service adopts the leases and continues.
  std::string error;
  auto restored = serve::RngService::restore(path, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->options().backend, backend);

  std::vector<std::uint64_t> adoptable = restored->adoptable_lease_ids();
  ASSERT_EQ(adoptable.size(), static_cast<std::size_t>(kClients));

  std::vector<serve::Session> adopted;
  for (const std::uint64_t id : lease_ids) {
    auto session = restored->adopt_session(id);
    ASSERT_TRUE(session.has_value()) << "lease " << id;
    EXPECT_EQ(session->lease().id, id);
    adopted.push_back(*session);
  }
  std::vector<std::vector<std::uint64_t>> second;
  run_traffic(adopted, kFills, kWords, &second);

  for (int c = 0; c < kClients; ++c) {
    auto& full = streams[static_cast<std::size_t>(c)];
    const auto& tail = second[static_cast<std::size_t>(c)];
    full.insert(full.end(), tail.begin(), tail.end());
    EXPECT_EQ(full, reference[static_cast<std::size_t>(c)])
        << "client " << c << " diverged across the checkpoint";
  }
  std::remove(path.c_str());
}

TEST(RestoreEquivalence, HybridStreamsAreBitExactAcrossCheckpoint) {
  expect_restore_equivalence("hybrid");
}

TEST(RestoreEquivalence, CpuWalkStreamsAreBitExactAcrossCheckpoint) {
  expect_restore_equivalence("cpu-walk");
}

TEST(RestoreEquivalence, BaselineStreamsAreBitExactAcrossCheckpoint) {
  expect_restore_equivalence("mt19937");
}

TEST(RestoreEquivalence, PhiloxStreamsAreBitExactAcrossCheckpoint) {
  expect_restore_equivalence("philox");
}

TEST(RestoreEquivalence, Md5CounterStreamsAreBitExactAcrossCheckpoint) {
  expect_restore_equivalence("md5-counter");
}

TEST(RestoreEquivalence, CounterBackendsRestoreMidBlock) {
  // 3 fills x 11 words = 33 u64 draws per client at the checkpoint — an
  // odd position, so the snapshot cuts each stream between the two u64
  // halves of one counter block. Restore must land on the same block
  // half (docs/BACKENDS.md §3), which the byte-exact continuation proves.
  expect_restore_equivalence("philox", 3, 11);
  expect_restore_equivalence("md5-counter", 3, 11);
}

TEST(CheckpointFormat, CounterShardSectionsAreFixedSizePerLease) {
  // The counter-backend checkpoint contract (docs/BACKENDS.md §5): a
  // shard's SHRD payload is the fixed framing plus exactly 20 bytes per
  // slot — {attached:u32, stream:u64, draws:u64} — regardless of how
  // much traffic ran (a position is an address, not a history). Well
  // under the 64-bytes-per-lease design budget.
  for (const std::string backend : {"philox", "md5-counter"}) {
    SCOPED_TRACE("backend " + backend);
    const std::string path = tmp_path("shrd_size_" + backend + ".snap");
    serve::RngService service(small_options(backend));
    auto sessions = open_pinned(service, 5);
    std::vector<std::vector<std::uint64_t>> streams;
    run_traffic(sessions, 2, 64, &streams);
    service.drain();
    std::string error;
    ASSERT_TRUE(service.checkpoint(path, &error)) << error;

    auto snap = state::Snapshot::read_file(path, &error);
    ASSERT_TRUE(snap.has_value()) << error;
    const auto shards = snap->find_all(state::kTagShrd);
    const serve::ServiceOptions opts = small_options(backend);
    ASSERT_EQ(shards.size(), static_cast<std::size_t>(opts.num_shards));
    // index:u32 + name str (u64 length + bytes) + count:u64 + 20/slot.
    const std::size_t expected =
        4 + 8 + backend.size() + 8 +
        20 * static_cast<std::size_t>(opts.max_leases_per_shard);
    for (const state::Section* s : shards) {
      EXPECT_EQ(s->payload.size(), expected);
    }
    std::remove(path.c_str());
  }
}

TEST(CheckpointFormat, PatchedOptsSlotsRestoreOrRejectCleanly) {
  // Each row patches one u32 slot of a CRC-valid hybrid snapshot's OPTS
  // section (docs/STATE.md §4) and restores it:
  //  - the retired full-queue policy slot: writers put 0; restore accepts
  //    any code an older writer could have put there (0..2);
  //  - the retired parallel_kernels slot: writers put 0; restore accepts
  //    0 or 1 (older writers put 1 by default);
  //  - walk_len 0, which HybridPrng refuses: a hybrid snapshot carrying it
  //    is rejected with a diagnostic instead of aborting the process.
  // Anything else is rejected as implausible.
  const std::string path = tmp_path("opts_slots.snap");
  {
    serve::RngService service(small_options("hybrid"));
    auto sessions = open_pinned(service, 1);
    std::vector<std::vector<std::uint64_t>> streams;
    run_traffic(sessions, 1, 8, &streams);
    service.drain();
    ASSERT_TRUE(service.checkpoint(path));
  }
  std::string error;
  auto snap = state::Snapshot::read_file(path, &error);
  ASSERT_TRUE(snap.has_value()) << error;
  // backend str (u64 length + bytes), num_shards:u32,
  // max_leases_per_shard:u64, num_workers:u32, queue_capacity:u64 and
  // max_coalesce:u64 precede the policy slot; default_timeout:u64 and
  // seed:u64 sit between it and walk_len:u32; parallel_kernels:u32 follows.
  const std::size_t policy =
      8 + std::string("hybrid").size() + 4 + 8 + 4 + 8 + 8;
  const std::size_t walk_len = policy + 4 + 8 + 8;
  const std::size_t parallel_kernels = walk_len + 4;
  struct Row {
    const char* slot;
    std::size_t offset;
    std::uint32_t written;  // what the writer put there
    std::uint32_t patched;
    bool accepted;
  };
  const Row rows[] = {
      {"policy", policy, 0, 0, true},
      {"policy", policy, 0, 1, true},
      {"policy", policy, 0, 2, true},
      {"policy", policy, 0, 3, false},
      {"parallel_kernels", parallel_kernels, 0, 0, true},
      {"parallel_kernels", parallel_kernels, 0, 1, true},
      {"parallel_kernels", parallel_kernels, 0, 2, false},
      {"walk_len", walk_len, 8, 0, false},
  };
  const std::string case_path = tmp_path("opts_slots_case.snap");
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(row.slot) + " = " + std::to_string(row.patched));
    state::SnapshotWriter w;
    for (const state::Section& sec : snap->sections()) {
      std::string payload(sec.payload);
      if (sec.tag == state::kTagOpts) {
        std::uint32_t written = 0;
        for (std::size_t i = 0; i < 4; ++i) {  // little-endian u32
          written |= static_cast<std::uint32_t>(
                         static_cast<unsigned char>(payload[row.offset + i]))
                     << (8 * i);
          payload[row.offset + i] = static_cast<char>(row.patched >> (8 * i));
        }
        ASSERT_EQ(written, row.written);
      }
      w.begin_section(sec.tag, sec.version);
      w.put_raw(payload);
    }
    ASSERT_TRUE(w.write_file(case_path, &error)) << error;
    error.clear();
    auto restored = serve::RngService::restore(case_path, &error);
    EXPECT_EQ(restored != nullptr, row.accepted) << error;
    if (!row.accepted) {
      EXPECT_NE(error.find("implausible service options"), std::string::npos)
          << error;
    }
  }
  std::remove(case_path.c_str());
  std::remove(path.c_str());
}

TEST(RestoreEquivalence, SurvivesReleaseAndRegrantBeforeCheckpoint) {
  // Slot reuse: released leases retire their ids; the restored manager
  // must keep granting fresh ids (never a collision with an adopted one).
  const std::string path = tmp_path("regrant.snap");
  std::vector<std::uint64_t> pre_ids;
  {
    serve::RngService service(small_options("cpu-walk"));
    {
      auto churn = open_pinned(service, 4);  // grant 4, release all
    }
    auto sessions = open_pinned(service, 3);
    std::vector<std::vector<std::uint64_t>> streams;
    run_traffic(sessions, 2, 32, &streams);
    for (const serve::Session& s : sessions) pre_ids.push_back(s.lease().id);
    service.drain();
    ASSERT_TRUE(service.checkpoint(path));
  }
  auto restored = serve::RngService::restore(path);
  ASSERT_NE(restored, nullptr);
  for (const std::uint64_t id : pre_ids) {
    ASSERT_TRUE(restored->adopt_session(id).has_value());
  }
  // Fresh leases in the restored service must not collide with any id
  // ever granted before the checkpoint (ids 1..7 were consumed).
  auto fresh = restored->try_open_session();
  ASSERT_TRUE(fresh.has_value());
  EXPECT_GT(fresh->lease().id, 7u);
  std::remove(path.c_str());
}

TEST(Adoption, EachLeaseAdoptsExactlyOnceAndUnknownIdsFail) {
  const std::string path = tmp_path("adopt_once.snap");
  {
    serve::RngService service(small_options("cpu-walk"));
    auto sessions = open_pinned(service, 2);
    std::vector<std::vector<std::uint64_t>> streams;
    run_traffic(sessions, 1, 16, &streams);
    service.drain();
    ASSERT_TRUE(service.checkpoint(path));
  }
  auto restored = serve::RngService::restore(path);
  ASSERT_NE(restored, nullptr);
  const auto ids = restored->adoptable_lease_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_FALSE(restored->adopt_session(999).has_value());
  auto first = restored->adopt_session(ids[0]);
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(restored->adopt_session(ids[0]).has_value());  // once only
  EXPECT_EQ(restored->adoptable_lease_ids().size(), 1u);
  // Releasing an adopted session returns its slot to the pool.
  first.reset();
  auto reopened = restored->try_open_session();
  EXPECT_TRUE(reopened.has_value());
  std::remove(path.c_str());
}

TEST(CheckpointDuringTraffic, QuiescesAndResumesAroundLiveFills) {
  // checkpoint() pauses internally at a pass boundary and resumes; client
  // fills issued around it must all land kOk and the file must parse.
  const std::string path = tmp_path("live.snap");
  serve::RngService service(small_options("hybrid"));
  auto sessions = open_pinned(service, 3);
  std::vector<std::vector<std::uint64_t>> streams;
  run_traffic(sessions, 1, 64, &streams);
  std::string error;
  ASSERT_TRUE(service.checkpoint(path, &error)) << error;
  run_traffic(sessions, 1, 64, &streams);
  EXPECT_TRUE(state::Snapshot::read_file(path, &error).has_value()) << error;
  std::remove(path.c_str());
}

TEST(CorruptSnapshots, EveryBitFlipIsRejectedWithoutConstructing) {
  const std::string path = tmp_path("flip.snap");
  {
    serve::RngService service(small_options("cpu-walk"));
    auto sessions = open_pinned(service, 2);
    std::vector<std::vector<std::uint64_t>> streams;
    run_traffic(sessions, 1, 16, &streams);
    service.drain();
    ASSERT_TRUE(service.checkpoint(path));
  }
  std::string image;
  ASSERT_TRUE(util::read_file(path, &image));

  // Flip one bit in a sample of positions across the whole image (every
  // byte would be minutes of service constructions; stride keeps it fast
  // while still covering header, every section header, payloads, CRCs).
  const std::string flip_path = tmp_path("flip_case.snap");
  for (std::size_t byte = 0; byte < image.size();
       byte += (byte < 64 ? 1 : 97)) {
    std::string bad = image;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x40);
    ASSERT_TRUE(util::write_file(flip_path, bad));
    std::string error;
    auto restored = serve::RngService::restore(flip_path, &error);
    if (restored != nullptr) {
      // A flip inside META's free-text JSON is CRC-detected, so reaching
      // here is impossible; keep the diagnostic if it ever regresses.
      FAIL() << "byte " << byte << " accepted a corrupt snapshot";
    }
    EXPECT_FALSE(error.empty()) << "byte " << byte;
  }

  // Truncations: drop tails of several lengths, including mid-section.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{20}, image.size() / 2,
        image.size() - 3}) {
    ASSERT_TRUE(util::write_file(flip_path, image.substr(0, keep)));
    std::string error;
    EXPECT_EQ(serve::RngService::restore(flip_path, &error), nullptr)
        << "keep " << keep;
    EXPECT_FALSE(error.empty());
  }
  std::remove(flip_path.c_str());
  std::remove(path.c_str());
}

TEST(CorruptSnapshots, BackendMismatchAndMissingSectionsAreRejected) {
  const std::string path = tmp_path("mismatch.snap");
  {
    serve::RngService service(small_options("mt19937"));
    auto sessions = open_pinned(service, 1);
    std::vector<std::vector<std::uint64_t>> streams;
    run_traffic(sessions, 1, 8, &streams);
    service.drain();
    ASSERT_TRUE(service.checkpoint(path));
  }
  // A structurally-valid file with no service sections must be rejected
  // by restore()'s section checks, not crash.
  state::SnapshotWriter w;
  w.begin_section(state::fourcc("META"));
  w.put_raw("{}");
  std::string error;
  ASSERT_TRUE(w.write_file(path + ".empty", &error)) << error;
  EXPECT_EQ(serve::RngService::restore(path + ".empty", &error), nullptr);
  EXPECT_NE(error.find("OPTS"), std::string::npos);
  std::remove((path + ".empty").c_str());
  std::remove(path.c_str());
}

TEST(CheckpointFaults, InjectedWriteFaultLeavesServiceServingAndNoFile) {
  fault::Injector injector(
      *fault::FaultPlan::parse("checkpoint_write:*:fail:0:1"));
  serve::ServiceOptions opts = small_options("cpu-walk");
  opts.injector = &injector;
  obs::MetricsRegistry registry;
  serve::RngService service(opts, obs::kEnabled ? &registry : nullptr);
  auto sessions = open_pinned(service, 2);
  std::vector<std::vector<std::uint64_t>> streams;
  run_traffic(sessions, 1, 16, &streams);
  service.drain();

  const std::string path = tmp_path("write_fault.snap");
  std::remove(path.c_str());
  std::string error;
  EXPECT_FALSE(service.checkpoint(path, &error));
  EXPECT_NE(error.find("checkpoint_write"), std::string::npos);
  std::string probe;
  EXPECT_FALSE(util::read_file(path, &probe));  // failed attempt left nothing

  // The service keeps serving, and the fault budget (1) is spent: the
  // retry succeeds.
  run_traffic(sessions, 1, 16, &streams);
  EXPECT_TRUE(service.checkpoint(path, &error)) << error;
  if (obs::kEnabled) {
    EXPECT_EQ(registry.counter("hprng.state.checkpoint_failures").value(), 1.0);
    EXPECT_EQ(registry.counter("hprng.state.checkpoints").value(), 1.0);
  }
  std::remove(path.c_str());
}

TEST(CheckpointFaults, InjectedRestoreReadFaultRejectsThenRetrySucceeds) {
  const std::string path = tmp_path("read_fault.snap");
  {
    serve::RngService service(small_options("cpu-walk"));
    auto sessions = open_pinned(service, 1);
    std::vector<std::vector<std::uint64_t>> streams;
    run_traffic(sessions, 1, 8, &streams);
    service.drain();
    ASSERT_TRUE(service.checkpoint(path));
  }
  fault::Injector injector(*fault::FaultPlan::parse("restore_read:*:fail:0:1"));
  serve::RngService::RestoreOptions ro;
  ro.injector = &injector;
  std::string error;
  EXPECT_EQ(serve::RngService::restore(path, ro, &error), nullptr);
  EXPECT_NE(error.find("restore_read"), std::string::npos);
  auto restored = serve::RngService::restore(path, ro, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->options().injector, &injector);  // rewired, not stored
  std::remove(path.c_str());
}

TEST(CheckpointChaos, MidFaultCheckpointReplaysDeterministically) {
  // Chaos replay: under a seeded FaultPlan (rotate with HPRNG_CHAOS_SEED),
  // run traffic, checkpoint mid-run, keep running — twice. Same seed, same
  // snapshot bytes, same post-restore streams: checkpointing composes with
  // fault injection without breaking determinism.
  std::uint64_t chaos_seed = 20260806;
  if (const char* env = std::getenv("HPRNG_CHAOS_SEED")) {
    chaos_seed = std::strtoull(env, nullptr, 10);
  }
  SCOPED_TRACE("HPRNG_CHAOS_SEED=" + std::to_string(chaos_seed));

  auto one_run = [&](std::string* image,
                     std::vector<std::vector<std::uint64_t>>* post) {
    // Delay-only plan: wall perturbation shakes worker interleaving while
    // every fill still succeeds, so streams stay comparable.
    fault::FaultPlan plan;
    const fault::FaultPlan random =
        fault::FaultPlan::random(chaos_seed, 6, 1, 32);
    for (fault::FaultPoint p : random.points()) {
      p.action = fault::Action::kDelay;
      p.delay_seconds = 0.0002;
      plan.add(p);
    }
    fault::Injector injector(plan);
    serve::ServiceOptions opts = small_options("cpu-walk");
    opts.injector = &injector;
    const std::string path = tmp_path("chaos.snap");
    std::vector<std::uint64_t> ids;
    {
      serve::RngService service(opts);
      auto sessions = open_pinned(service, 3);
      std::vector<std::vector<std::uint64_t>> streams;
      run_traffic(sessions, 2, 32, &streams);
      for (const serve::Session& s : sessions) ids.push_back(s.lease().id);
      service.drain();
      ASSERT_TRUE(service.checkpoint(path));
    }
    ASSERT_TRUE(util::read_file(path, image));
    auto restored = serve::RngService::restore(path);
    ASSERT_NE(restored, nullptr);
    std::vector<serve::Session> adopted;
    for (const std::uint64_t id : ids) {
      auto session = restored->adopt_session(id);
      ASSERT_TRUE(session.has_value());
      adopted.push_back(*session);
    }
    run_traffic(adopted, 2, 32, post);
    std::remove(path.c_str());
  };

  std::string image_a;
  std::string image_b;
  std::vector<std::vector<std::uint64_t>> post_a;
  std::vector<std::vector<std::uint64_t>> post_b;
  one_run(&image_a, &post_a);
  one_run(&image_b, &post_b);
  EXPECT_EQ(image_a, image_b) << "snapshot bytes diverged across replays";
  EXPECT_EQ(post_a, post_b) << "post-restore streams diverged across replays";
}

TEST(BackgroundCheckpointer, TicksAndCountsFailures) {
  const std::string path = tmp_path("periodic.snap");
  std::remove(path.c_str());
  {
    serve::RngService service(small_options("cpu-walk"));
    auto sessions = open_pinned(service, 2);
    std::atomic<int> ticks{0};
    state::BackgroundCheckpointer checkpointer(5ms, [&] {
      ++ticks;
      return service.checkpoint(path);
    });
    std::vector<std::vector<std::uint64_t>> streams;
    while (ticks.load() < 3) {
      run_traffic(sessions, 1, 16, &streams);
    }
    checkpointer.stop();
    EXPECT_GE(checkpointer.runs(), 3u);
    EXPECT_EQ(checkpointer.failures(), 0u);
    checkpointer.stop();  // idempotent
  }
  // The latest periodic snapshot restores like a manual one.
  std::string error;
  EXPECT_NE(serve::RngService::restore(path, &error), nullptr) << error;
  std::remove(path.c_str());

  // A failing tick is counted, not fatal.
  state::BackgroundCheckpointer failing(1ms, [] { return false; });
  while (failing.failures() < 2) {
    std::this_thread::sleep_for(1ms);
  }
  failing.stop();
  EXPECT_GE(failing.failures(), 2u);
}

TEST(Instruments, StateCatalogueAppearsAndCounts) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability disabled";
  obs::MetricsRegistry registry;
  const std::string path = tmp_path("instruments.snap");
  {
    serve::RngService service(small_options("cpu-walk"), &registry);
    // Resolved at construction: present at zero before any checkpoint.
    EXPECT_EQ(registry.counter("hprng.state.checkpoints").value(), 0.0);
    auto sessions = open_pinned(service, 1);
    std::vector<std::vector<std::uint64_t>> streams;
    run_traffic(sessions, 1, 8, &streams);
    service.drain();
    ASSERT_TRUE(service.checkpoint(path));
    EXPECT_EQ(registry.counter("hprng.state.checkpoints").value(), 1.0);
    EXPECT_GT(registry.counter("hprng.state.checkpoint_bytes").value(), 0.0);
    EXPECT_EQ(registry.histogram("hprng.state.checkpoint_seconds").count(),
              1u);
  }
  obs::MetricsRegistry restore_registry;
  serve::RngService::RestoreOptions ro;
  ro.metrics = &restore_registry;
  auto restored = serve::RngService::restore(path, ro);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restore_registry.counter("hprng.state.restores").value(), 1.0);
  EXPECT_EQ(restore_registry.counter("hprng.state.restore_failures").value(),
            0.0);

  std::string bad = tmp_path("instruments_bad.snap");
  ASSERT_TRUE(util::write_file(bad, "not a snapshot"));
  EXPECT_EQ(serve::RngService::restore(bad, ro), nullptr);
  EXPECT_EQ(restore_registry.counter("hprng.state.restore_failures").value(),
            1.0);
  std::remove(bad.c_str());
  std::remove(path.c_str());
}

TEST(RestoreOptions, WorkerCountOverrideApplies) {
  const std::string path = tmp_path("workers.snap");
  {
    serve::RngService service(small_options("cpu-walk"));
    auto sessions = open_pinned(service, 1);
    std::vector<std::vector<std::uint64_t>> streams;
    run_traffic(sessions, 1, 8, &streams);
    service.drain();
    ASSERT_TRUE(service.checkpoint(path));
  }
  serve::RngService::RestoreOptions ro;
  ro.num_workers = 1;
  auto restored = serve::RngService::restore(path, ro);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->options().num_workers, 1);
  // And the override still serves traffic.
  auto session = restored->try_open_session();
  ASSERT_TRUE(session.has_value());
  std::vector<std::uint64_t> buf(16);
  EXPECT_EQ(session->fill(buf, 30s), serve::Status::kOk);
  std::remove(path.c_str());
}

TEST(HealthSections, EjectedShardSurvivesTheRoundTrip) {
  // Eject shard 0 via injected fill failures, checkpoint, restore: the
  // restored pool must remember the ejection (permanently unhealthy).
  fault::Injector injector(*fault::FaultPlan::parse("shard:0:fail:0:64"));
  serve::ServiceOptions opts = small_options("cpu-walk");
  opts.injector = &injector;
  opts.max_fill_retries = 1;
  opts.retry_backoff_base_ms = 0.05;
  opts.retry_backoff_max_ms = 0.2;
  opts.shard_eject_failures = 2;
  const std::string path = tmp_path("health.snap");
  serve::RngService service(opts);
  auto sessions = open_pinned(service, 4);
  std::vector<std::vector<std::uint64_t>> streams;
  run_traffic(sessions, 2, 16, &streams);  // shard 0 ejects; leases fail over
  ASSERT_TRUE(service.shard_ejected(0));
  service.drain();
  ASSERT_TRUE(service.checkpoint(path));

  auto restored = serve::RngService::restore(path);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(restored->shard_ejected(0));
  EXPECT_FALSE(restored->shard_ejected(1));
  EXPECT_EQ(restored->healthy_shards(), 1);
  std::remove(path.c_str());
}

TEST(CheckpointHook, SidecarSectionRoundTripsThroughAuxStash) {
  // The layered-subsystem checkpoint mechanism (docs/QUALITY.md §6): the
  // hook fires prepare BEFORE the service quiesces (a sidecar still
  // filling must park first or its queued fill would deadlock against
  // paused workers), save appends its section while quiesced, release
  // fires after resume. The restored service stashes the unknown section
  // verbatim for the sidecar to re-attach.
  const std::string path = tmp_path("hook.snap");
  serve::RngService service(small_options("cpu-walk"));
  std::vector<std::string> order;
  serve::RngService::CheckpointHook hook;
  hook.prepare = [&order] { order.push_back("prepare"); };
  hook.save = [&order](state::SnapshotWriter& w) {
    order.push_back("save");
    w.begin_section(state::kTagQual);
    w.put_u64(0xFEEDC0DEu);
    w.put_str("sidecar");
  };
  hook.release = [&order] { order.push_back("release"); };
  service.set_checkpoint_hook(std::move(hook));
  std::string error;
  ASSERT_TRUE(service.checkpoint(path, &error)) << error;
  EXPECT_EQ(order,
            (std::vector<std::string>{"prepare", "save", "release"}));

  auto restored = serve::RngService::restore(path);
  ASSERT_NE(restored, nullptr);
  const std::vector<std::string> payloads =
      restored->aux_sections(state::kTagQual);
  ASSERT_EQ(payloads.size(), 1u);
  const state::Section section{state::kTagQual, 1, payloads.front()};
  state::SectionReader r(section);
  EXPECT_EQ(r.get_u64(), 0xFEEDC0DEu);
  EXPECT_EQ(r.get_str(), "sidecar");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(restored->aux_sections(state::kTagLeas).empty())
      << "known sections are consumed, not stashed";
  std::remove(path.c_str());
}

TEST(CheckpointHook, ScrubCursorsResumeBitExactAcrossRestore) {
  // The quality scrubber through the real hook: k passes -> checkpoint ->
  // M passes must produce the byte-identical report to restore -> M
  // passes (scrub cursors, tier and history all travel in QUAL).
  const std::string path = tmp_path("scrub_resume.snap");
  serve::ServiceOptions opts = small_options("cpu-walk");
  opts.scrub.enabled = true;
  opts.scrub.streams = 2;
  opts.scrub.pass_words = 256;

  std::string uninterrupted;
  {
    serve::RngService service(opts);
    quality::QualityScrubber scrubber(service);
    scrubber.run_passes(2);
    std::string error;
    ASSERT_TRUE(service.checkpoint(path, &error)) << error;
    scrubber.run_passes(2);
    uninterrupted = scrubber.report().to_json();
  }

  serve::RngService::RestoreOptions ro;
  ro.scrub = opts.scrub;
  std::string error;
  auto restored = serve::RngService::restore(path, ro, &error);
  ASSERT_NE(restored, nullptr) << error;
  quality::QualityScrubber scrubber(*restored);
  scrubber.run_passes(2);
  std::string resumed = scrubber.report().to_json();
  std::remove(path.c_str());

  // The resumed report marks its streams adopted; strip that field on
  // both sides, everything else must match to the byte.
  const auto strip_adopted = [](std::string s) {
    for (std::string::size_type pos;
         (pos = s.find(",\"adopted\":")) != std::string::npos;) {
      s.erase(pos, s.find_first_of(",}", pos + 11) - pos);
    }
    return s;
  };
  EXPECT_EQ(strip_adopted(uninterrupted), strip_adopted(resumed));
}

}  // namespace
}  // namespace hprng
