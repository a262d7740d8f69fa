// Continuous quality scrubbing tests (docs/QUALITY.md).
//
// The contracts pinned here: (1) a QualityReport after N synchronous
// passes is byte-identical from run to run — the smoke draws run in
// stream order on the scrub thread; (2) the report is deterministic per
// backend family through real leased serve streams; (3) the quality_feed / quality_verdict fault sites flip
// exactly the targeted backend anomalous and never perturb foreground
// lease streams (golden-pinned survivor check, HPRNG_CHAOS_SEED replay);
// (4) scrub cursors, tier and anomaly history survive checkpoint/restore
// bit-exactly: a restored scrubber's continuation report equals the
// uninterrupted original's.

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "quality/quality.hpp"
#include "serve/backend.hpp"
#include "serve/service.hpp"

namespace hprng {
namespace {

/// The five backend families of docs/BACKENDS.md: hybrid pipeline,
/// cpu-walk, the two counter backends, one registry baseline.
const char* const kBackendFamilies[] = {"hybrid", "cpu-walk", "philox",
                                        "md5-counter", "mt19937"};

serve::ServiceOptions scrub_options(const std::string& backend,
                                    int tier = 0) {
  serve::ServiceOptions opts;
  opts.backend = backend;
  opts.num_shards = 2;
  opts.max_leases_per_shard = 8;
  opts.num_workers = 2;
  opts.queue_capacity = 64;
  opts.walk_len = 8;
  opts.scrub.enabled = true;
  opts.scrub.tier = tier;
  opts.scrub.streams = 4;
  opts.scrub.pass_words = 512;
  // Tiny batteries: the suite pins determinism and control flow, not
  // statistical power (tier-2 suites own that).
  opts.scrub.battery_scale = 0.02;
  return opts;
}

std::string scrub_json(const serve::ServiceOptions& opts, int passes,
                       quality::QualityReport* out = nullptr) {
  serve::RngService service(opts);
  quality::QualityScrubber scrubber(service);
  scrubber.run_passes(passes);
  const quality::QualityReport rep = scrubber.report();
  if (out != nullptr) *out = rep;
  return rep.to_json();
}

TEST(ReportDeterminism, EveryBackendFamilyScrubsDeterministically) {
  for (const char* backend : kBackendFamilies) {
    SCOPED_TRACE(backend);
    ASSERT_TRUE(serve::backend_known(backend));
    quality::QualityReport rep;
    const std::string a = scrub_json(scrub_options(backend), 3, &rep);
    const std::string b = scrub_json(scrub_options(backend), 3);
    EXPECT_EQ(a, b) << "scrub report must be replayable";
    EXPECT_EQ(rep.backend, backend);
    EXPECT_EQ(rep.passes, 3u);
    EXPECT_EQ(rep.feed_failures, 0u);
    EXPECT_EQ(rep.words, 3u * 4u * 512u) << "4 streams x 512 words x 3";
    ASSERT_EQ(rep.streams.size(), 4u);
    for (const quality::StreamReport& s : rep.streams) {
      EXPECT_EQ(s.words, 3u * 512u);
      EXPECT_GT(s.freq_p, 0.0);
      EXPECT_LE(s.freq_p, 1.0);
    }
  }
}

TEST(ReportDeterminism, TieredBatteryRunsAreDeterministicToo) {
  // Resting tier 1: every pass runs the scaled SmallCrush-equivalent
  // battery through stream 0's lease. Two identical runs must agree to
  // the last serialized bit, battery verdict included.
  const std::string a = scrub_json(scrub_options("philox", /*tier=*/1), 2);
  const std::string b = scrub_json(scrub_options("philox", /*tier=*/1), 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"batteries\":2"), std::string::npos) << a;
  EXPECT_NE(a.find("\"last_battery\":\"scrub-smallcrush\""),
            std::string::npos);
  EXPECT_NE(a.find("\"last_ks_valid\":true"), std::string::npos);
}

TEST(QualityChaos, VerdictFaultFlipsExactlyTheTargetedBackend) {
  // One fault plan targeting philox's registry index: the philox
  // scrubber latches anomalous at tier 2; every other family's scrubber
  // stays clean under the very same plan (docs/FAULTS.md: target =
  // backend index in serve::known_backends()).
  int philox_index = -1;
  const std::vector<std::string> names = serve::known_backends();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "philox") philox_index = static_cast<int>(i);
  }
  ASSERT_GE(philox_index, 0);
  const std::string plan_text =
      "quality_verdict:" + std::to_string(philox_index) + ":fail:0:1";
  int anomalous_count = 0;
  for (const char* backend : kBackendFamilies) {
    SCOPED_TRACE(backend);
    const auto plan = fault::FaultPlan::parse(plan_text);
    ASSERT_TRUE(plan.has_value());
    fault::Injector injector(*plan);
    serve::ServiceOptions opts = scrub_options(backend);
    opts.injector = &injector;
    serve::RngService service(opts);
    quality::QualityScrubber scrubber(service);
    scrubber.run_passes(1);
    const quality::QualityReport rep = scrubber.report();
    if (rep.anomalous) {
      ++anomalous_count;
      EXPECT_STREQ(backend, "philox");
      EXPECT_EQ(rep.tier, 2) << "a confirmed anomaly escalates to tier 2";
      EXPECT_EQ(rep.anomalies, 1u);
      ASSERT_EQ(rep.history.size(), 1u);
      EXPECT_EQ(rep.history[0].what, "fault:verdict");
      EXPECT_EQ(rep.history[0].tier, 2);
    } else {
      EXPECT_EQ(rep.tier, rep.resting_tier);
      EXPECT_EQ(rep.anomalies, 0u);
    }
  }
  EXPECT_EQ(anomalous_count, 1) << "exactly one backend flips anomalous";
}

TEST(QualityChaos, VerdictFaultNeverPerturbsForegroundLeases) {
  // Golden-pinned survivor check: a foreground lease opened next to the
  // scrubber draws byte-identical streams whether or not the verdict
  // fault fires — scrubbing is observation, never interference.
  const auto run = [](bool faulted) {
    std::optional<fault::Injector> injector;
    serve::ServiceOptions opts = scrub_options("hybrid");
    if (faulted) {
      const auto plan = fault::FaultPlan::parse("quality_verdict:0:fail:0:1");
      EXPECT_TRUE(plan.has_value());
      injector.emplace(*plan);
      opts.injector = &*injector;
    }
    serve::RngService service(opts);
    quality::QualityScrubber scrubber(service);
    serve::Session foreground = service.open_session();
    std::vector<std::uint64_t> stream;
    for (int i = 0; i < 4; ++i) {
      scrubber.run_passes(1);
      std::vector<std::uint64_t> buf(64);
      EXPECT_EQ(foreground.fill(buf), serve::Status::kOk);
      stream.insert(stream.end(), buf.begin(), buf.end());
    }
    return stream;
  };
  const std::vector<std::uint64_t> clean = run(false);
  const std::vector<std::uint64_t> faulted = run(true);
  EXPECT_EQ(clean, faulted);
}

TEST(QualityChaos, FeedFaultIsCountedAndReplayable) {
  // HPRNG_CHAOS_SEED picks the victim stream (CI rotates it); the same
  // seed replays the identical report, and a feed fault only ever stalls
  // that stream's cursor — it is not an anomaly by itself.
  std::uint64_t chaos_seed = 0x5C2B;
  if (const char* env = std::getenv("HPRNG_CHAOS_SEED")) {
    chaos_seed = std::strtoull(env, nullptr, 0);
  }
  SCOPED_TRACE("HPRNG_CHAOS_SEED=" + std::to_string(chaos_seed));
  const int victim = static_cast<int>(chaos_seed % 4);
  const std::string plan_text =
      "quality_feed:" + std::to_string(victim) + ":fail:0:2";
  const auto run = [&] {
    const auto plan = fault::FaultPlan::parse(plan_text);
    EXPECT_TRUE(plan.has_value());
    fault::Injector injector(*plan);
    serve::ServiceOptions opts = scrub_options("cpu-walk");
    opts.injector = &injector;
    serve::RngService service(opts);
    quality::QualityScrubber scrubber(service);
    scrubber.run_passes(3);
    return scrubber.report();
  };
  const quality::QualityReport a = run();
  const quality::QualityReport b = run();
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.feed_failures, 2u) << "two planned feed losses";
  EXPECT_FALSE(a.anomalous);
  ASSERT_EQ(a.streams.size(), 4u);
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    const std::uint64_t expect_words =
        static_cast<int>(i) == victim ? 1u * 512u : 3u * 512u;
    EXPECT_EQ(a.streams[i].words, expect_words) << "stream " << i;
  }
}

TEST(Escalation, OnDemandEscalateRunsBatteryAndAcknowledgeClearsLatch) {
  serve::ServiceOptions opts = scrub_options("md5-counter");
  serve::RngService service(opts);
  quality::QualityScrubber scrubber(service);

  scrubber.run_passes(1);
  EXPECT_EQ(scrubber.report().batteries, 0u) << "tier 0 is smoke-only";

  scrubber.escalate(2);
  EXPECT_EQ(scrubber.report().tier, 2);
  scrubber.run_passes(1);
  const quality::QualityReport after = scrubber.report();
  EXPECT_EQ(after.batteries, 1u) << "escalation arms the Crush-tier run";
  EXPECT_EQ(after.last_battery, "scrub-crush");

  // A forced verdict latches `anomalous`; acknowledge() clears only the
  // latch — history and counters stay as the audit trail.
  const auto plan = fault::FaultPlan::parse(
      "quality_verdict:" + std::to_string(scrubber.backend_index()) +
      ":fail:0:1");
  ASSERT_TRUE(plan.has_value());
  fault::Injector injector(*plan);
  serve::ServiceOptions faulted = scrub_options("md5-counter");
  faulted.injector = &injector;
  serve::RngService service2(faulted);
  quality::QualityScrubber scrubber2(service2);
  scrubber2.run_passes(1);
  ASSERT_TRUE(scrubber2.report().anomalous);
  scrubber2.acknowledge();
  const quality::QualityReport acked = scrubber2.report();
  EXPECT_FALSE(acked.anomalous);
  EXPECT_EQ(acked.anomalies, 1u);
  EXPECT_EQ(acked.history.size(), 1u);
}

TEST(ScrubCheckpoint, CursorsAndHistoryResumeBitExact) {
  // k passes -> checkpoint -> M more passes must equal restore -> M
  // passes: the QUAL section carries cursors/tier/history and lease
  // adoption resumes every scrub stream mid-substream (docs/QUALITY.md
  // §6). Resting tier 1 so batteries (and their stream-0 cursor
  // advancement) cross the snapshot boundary too.
  const std::string path =
      testing::TempDir() + "hprng_quality_scrub_resume.snap";
  serve::ServiceOptions opts = scrub_options("hybrid", /*tier=*/1);

  std::string original_json;
  {
    serve::RngService service(opts);
    quality::QualityScrubber scrubber(service);
    scrubber.run_passes(2);
    std::string error;
    ASSERT_TRUE(service.checkpoint(path, &error)) << error;
    scrubber.run_passes(3);
    original_json = scrubber.report().to_json();
  }

  std::string restored_json;
  {
    serve::RngService::RestoreOptions ro;
    ro.scrub = opts.scrub;
    std::string error;
    auto service = serve::RngService::restore(path, ro, &error);
    ASSERT_NE(service, nullptr) << error;
    quality::QualityScrubber scrubber(*service);
    const quality::QualityReport at_resume = scrubber.report();
    EXPECT_EQ(at_resume.passes, 2u);
    for (const quality::StreamReport& s : at_resume.streams) {
      EXPECT_TRUE(s.adopted) << "scrub leases re-adopt from the snapshot";
    }
    scrubber.run_passes(3);
    restored_json = scrubber.report().to_json();
  }
  std::remove(path.c_str());

  // adopted flags differ by construction (false on the uninterrupted
  // side), so compare everything else by erasing that field.
  const auto strip_adopted = [](std::string s) {
    for (std::string::size_type pos;
         (pos = s.find(",\"adopted\":")) != std::string::npos;) {
      const auto end = s.find_first_of(",}", pos + 11);
      s.erase(pos, end - pos);
    }
    return s;
  };
  EXPECT_EQ(strip_adopted(original_json), strip_adopted(restored_json));
}

TEST(ScrubCheckpoint, RestoreWithoutScrubOptionsStillServes) {
  // A deployment may restore with scrubbing disabled: the QUAL section
  // rides along ignored, and the service serves normally.
  const std::string path =
      testing::TempDir() + "hprng_quality_scrub_plain.snap";
  {
    serve::RngService service(scrub_options("cpu-walk"));
    quality::QualityScrubber scrubber(service);
    scrubber.run_passes(1);
    ASSERT_TRUE(service.checkpoint(path));
  }
  auto service = serve::RngService::restore(path);
  ASSERT_NE(service, nullptr);
  EXPECT_FALSE(service->options().scrub.enabled);
  serve::Session session = service->open_session();
  std::vector<std::uint64_t> buf(32);
  EXPECT_EQ(session.fill(buf), serve::Status::kOk);
  std::remove(path.c_str());
}

TEST(Instruments, QualityGaugesAndCountersPublish) {
  obs::MetricsRegistry metrics;
  serve::RngService service(scrub_options("hybrid"));
  quality::QualityScrubber scrubber(service, &metrics);
  scrubber.run_passes(2);
  if (obs::kEnabled) {
    EXPECT_EQ(metrics.counter("hprng.quality.passes").value(), 2.0);
    EXPECT_EQ(metrics.counter("hprng.quality.words").value(),
              2.0 * 4.0 * 512.0);
    EXPECT_EQ(metrics.gauge("hprng.quality.tier").value(), 0.0);
    EXPECT_EQ(metrics.gauge("hprng.quality.streams").value(), 4.0);
    EXPECT_EQ(metrics.gauge("hprng.quality.anomalous").value(), 0.0);
    EXPECT_EQ(metrics.gauge("hprng.quality.pass_ratio").value(), 1.0)
        << "no battery yet: ratio rests at 1.0";
  }
}

}  // namespace
}  // namespace hprng
