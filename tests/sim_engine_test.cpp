#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/engine.hpp"

namespace hprng::sim {
namespace {

TEST(Engine, SingleOpTiming) {
  Engine e;
  const OpId a = e.submit(Resource::kHost, "a", 2.0, {}, nullptr);
  e.run_all();
  EXPECT_DOUBLE_EQ(e.start_time(a), 0.0);
  EXPECT_DOUBLE_EQ(e.end_time(a), 2.0);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, SameResourceSerialises) {
  Engine e;
  const OpId a = e.submit(Resource::kDevice, "a", 1.0, {}, nullptr);
  const OpId b = e.submit(Resource::kDevice, "b", 1.0, {}, nullptr);
  e.run_all();
  EXPECT_DOUBLE_EQ(e.end_time(a), 1.0);
  EXPECT_DOUBLE_EQ(e.start_time(b), 1.0);
  EXPECT_DOUBLE_EQ(e.end_time(b), 2.0);
}

TEST(Engine, DifferentResourcesOverlap) {
  Engine e;
  const OpId a = e.submit(Resource::kHost, "a", 3.0, {}, nullptr);
  const OpId b = e.submit(Resource::kDevice, "b", 2.0, {}, nullptr);
  e.run_all();
  EXPECT_DOUBLE_EQ(e.start_time(a), 0.0);
  EXPECT_DOUBLE_EQ(e.start_time(b), 0.0);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, DependenciesDelayStart) {
  Engine e;
  const OpId a = e.submit(Resource::kHost, "feed", 2.0, {}, nullptr);
  const OpId b = e.submit(Resource::kPcieH2D, "copy", 0.5, {a}, nullptr);
  const OpId c = e.submit(Resource::kDevice, "gen", 1.0, {b}, nullptr);
  e.run_all();
  EXPECT_DOUBLE_EQ(e.start_time(b), 2.0);
  EXPECT_DOUBLE_EQ(e.start_time(c), 2.5);
  EXPECT_DOUBLE_EQ(e.end_time(c), 3.5);
}

TEST(Engine, PipelineOverlapAlgebra) {
  // Two rounds of FEED(2) -> COPY(0.5) -> GEN(1.5): with double buffering
  // the second FEED starts right after the first (same resource), and the
  // steady state is gated by the slowest stage.
  Engine e;
  const OpId f0 = e.submit(Resource::kHost, "F0", 2.0, {}, nullptr);
  const OpId c0 = e.submit(Resource::kPcieH2D, "C0", 0.5, {f0}, nullptr);
  e.submit(Resource::kDevice, "G0", 1.5, {c0}, nullptr);
  const OpId f1 = e.submit(Resource::kHost, "F1", 2.0, {}, nullptr);
  const OpId c1 = e.submit(Resource::kPcieH2D, "C1", 0.5, {f1}, nullptr);
  const OpId g1 = e.submit(Resource::kDevice, "G1", 1.5, {c1}, nullptr);
  e.run_all();
  EXPECT_DOUBLE_EQ(e.start_time(f1), 2.0);  // host FIFO
  EXPECT_DOUBLE_EQ(e.start_time(c1), 4.0);
  EXPECT_DOUBLE_EQ(e.start_time(g1), 4.5);  // GPU was free at 4.0
  EXPECT_DOUBLE_EQ(e.now(), 6.0);
}

TEST(Engine, CrossBatchPipelining) {
  // An op submitted after run_all() may still start (in virtual time)
  // before the previous batch's ops on other resources finish.
  Engine e;
  e.submit(Resource::kDevice, "long", 10.0, {}, nullptr);
  e.run_all();
  const OpId h = e.submit(Resource::kHost, "host", 1.0, {}, nullptr);
  e.run_all();
  EXPECT_DOUBLE_EQ(e.start_time(h), 0.0);
  EXPECT_DOUBLE_EQ(e.end_time(h), 1.0);
  EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

TEST(Engine, FunctionalPayloadsRunInSubmissionOrder) {
  Engine e;
  std::vector<int> order;
  e.submit(Resource::kDevice, "1", 5.0, {},
           [&] { order.push_back(1); });
  e.submit(Resource::kHost, "2", 0.1, {}, [&] { order.push_back(2); });
  e.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, DynamicDurationOps) {
  Engine e;
  const OpId a = e.submit_dynamic(Resource::kDevice, "dyn", 1.0, {},
                                  [] { return 2.5; });
  e.run_all();
  EXPECT_DOUBLE_EQ(e.end_time(a), 3.5);
}

TEST(Engine, RunAllReturnsBatchMakespan) {
  Engine e;
  e.submit(Resource::kHost, "a", 1.0, {}, nullptr);
  e.submit(Resource::kDevice, "b", 4.0, {}, nullptr);
  EXPECT_DOUBLE_EQ(e.run_all(), 4.0);
  EXPECT_DOUBLE_EQ(e.run_all(), 0.0);  // nothing pending
}

TEST(Engine, FenceBlocksShadowOverlap) {
  Engine e;
  e.submit(Resource::kDevice, "long", 10.0, {}, nullptr);
  e.run_all();
  e.fence();
  const OpId h = e.submit(Resource::kHost, "host", 1.0, {}, nullptr);
  e.run_all();
  // Without the fence this would start at 0 (see CrossBatchPipelining);
  // with it, the timed window starts on an idle machine.
  EXPECT_DOUBLE_EQ(e.start_time(h), 10.0);
  EXPECT_DOUBLE_EQ(e.end_time(h), 11.0);
}

TEST(Engine, FenceIsIdempotent) {
  Engine e;
  e.submit(Resource::kHost, "a", 2.0, {}, nullptr);
  e.run_all();
  e.fence();
  e.fence();
  const OpId b = e.submit(Resource::kHost, "b", 1.0, {}, nullptr);
  e.run_all();
  EXPECT_DOUBLE_EQ(e.start_time(b), 2.0);
}

TEST(Engine, ChainMatchesRunAllOnAFencedChainAndRecordsNothing) {
  // Both engines start mid-run with the resources free at different times
  // (non-dyadic durations, so any change in the arithmetic shows).
  Engine ref, e;
  for (Engine* x : {&ref, &e}) {
    x->submit(Resource::kHost, "a", 1.0 / 3.0, {}, nullptr);
    x->submit(Resource::kDevice, "b", 0.7, {}, nullptr);
    x->submit(Resource::kPcieD2H, "c", 0.1, {}, nullptr);
    x->run_all();
  }
  ref.fence();
  const OpId f = ref.submit(Resource::kHost, "FEED", 0.1, {}, nullptr);
  const OpId c = ref.submit(Resource::kPcieH2D, "Transfer", 0.2, {f}, nullptr);
  const OpId g = ref.submit(Resource::kDevice, "Generate", 0.3, {c}, nullptr);
  ref.run_all();

  const OpId ops = e.next_id();
  const std::size_t entries = e.timeline().entries().size();
  const double seconds = e.chain({{Resource::kHost, 0.1},
                                  {Resource::kPcieH2D, 0.2},
                                  {Resource::kDevice, 0.3}});
  EXPECT_EQ(seconds, ref.end_time(g) - ref.start_time(f));
  EXPECT_EQ(e.now(), ref.now());
  EXPECT_EQ(e.next_id(), ops) << "chain() must record no op";
  EXPECT_EQ(e.timeline().entries().size(), entries)
      << "chain() must record no timeline entry";

  // Each resource's free time shows as the start of a later op on it.
  std::vector<OpId> ref_probe, probe;
  for (int r = 0; r < kNumResources; ++r) {
    const auto res = static_cast<Resource>(r);
    ref_probe.push_back(ref.submit(res, "probe", 1.0, {}, nullptr));
    probe.push_back(e.submit(res, "probe", 1.0, {}, nullptr));
  }
  ref.run_all();
  e.run_all();
  for (int r = 0; r < kNumResources; ++r) {
    EXPECT_EQ(e.start_time(probe[static_cast<std::size_t>(r)]),
              ref.start_time(ref_probe[static_cast<std::size_t>(r)]))
        << to_string(static_cast<Resource>(r));
  }
  EXPECT_EQ(e.now(), ref.now());
}

TEST(Engine, ForwardDependenciesAreRejected) {
  Engine e;
  EXPECT_DEATH(e.submit(Resource::kHost, "bad", 1.0, {5}, nullptr),
               "earlier ops");
}

TEST(Engine, TimelineRecordsEntries) {
  Engine e;
  e.submit(Resource::kHost, "FEED", 1.0, {}, nullptr);
  e.submit(Resource::kDevice, "Generate", 2.0, {}, nullptr);
  e.run_all();
  ASSERT_EQ(e.timeline().entries().size(), 2u);
  EXPECT_EQ(e.timeline().entries()[0].label, "FEED");
  EXPECT_DOUBLE_EQ(e.timeline().busy_time(Resource::kDevice, 0.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(e.timeline().idle_fraction(Resource::kHost, 0.0, 2.0),
                   0.5);
}

TEST(Timeline, RenderAsciiShowsMarks) {
  Timeline t;
  t.add({Resource::kHost, "FEED", 0.0, 1.0});
  t.add({Resource::kDevice, "Generate", 0.5, 2.0});
  const std::string s = t.render_ascii(0.0, 2.0, 20);
  EXPECT_NE(s.find('F'), std::string::npos);
  EXPECT_NE(s.find('G'), std::string::npos);
  EXPECT_NE(s.find("CPU"), std::string::npos);
  EXPECT_NE(s.find("GPU"), std::string::npos);
}

TEST(Timeline, BusyClipsToWindow) {
  Timeline t;
  t.add({Resource::kHost, "x", 0.0, 10.0});
  EXPECT_DOUBLE_EQ(t.busy_time(Resource::kHost, 2.0, 5.0), 3.0);
  EXPECT_DOUBLE_EQ(t.busy_time(Resource::kDevice, 2.0, 5.0), 0.0);
}

TEST(Timeline, BusyClampsPartialOverlaps) {
  // Entries sticking out of the window on either side contribute only the
  // part inside it.
  Timeline t;
  t.add({Resource::kHost, "pre", -1.0, 1.0});   // 1.0 inside [0, 4]
  t.add({Resource::kHost, "post", 3.0, 6.0});   // 1.0 inside [0, 4]
  t.add({Resource::kHost, "out", 8.0, 9.0});    // fully outside
  EXPECT_DOUBLE_EQ(t.busy_time(Resource::kHost, 0.0, 4.0), 2.0);
}

TEST(Timeline, BusyMergesOverlappingEntries) {
  // Two overlapping entries on the same resource must not double-count the
  // overlapped span: busy time is the measure of the union.
  Timeline t;
  t.add({Resource::kHost, "a", 0.0, 3.0});
  t.add({Resource::kHost, "b", 2.0, 5.0});
  t.add({Resource::kHost, "inside", 0.5, 1.0});  // contained in "a"
  EXPECT_DOUBLE_EQ(t.busy_time(Resource::kHost, 0.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(t.idle_fraction(Resource::kHost, 0.0, 10.0), 0.5);
}

TEST(Timeline, DegenerateWindowIsSafe) {
  // t1 <= t0 used to divide by zero in idle_fraction; both queries must
  // return well-defined values (0 busy, 0 idle fraction, never NaN).
  Timeline t;
  t.add({Resource::kHost, "x", 0.0, 10.0});
  EXPECT_DOUBLE_EQ(t.busy_time(Resource::kHost, 5.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(t.busy_time(Resource::kHost, 7.0, 3.0), 0.0);
  const double f_empty = t.idle_fraction(Resource::kHost, 5.0, 5.0);
  const double f_inv = t.idle_fraction(Resource::kHost, 7.0, 3.0);
  EXPECT_FALSE(std::isnan(f_empty));
  EXPECT_FALSE(std::isnan(f_inv));
  EXPECT_DOUBLE_EQ(f_empty, 0.0);
  EXPECT_DOUBLE_EQ(f_inv, 0.0);
}

TEST(Timeline, IdleFractionStaysInUnitInterval) {
  Timeline t;
  t.add({Resource::kHost, "a", 0.0, 4.0});
  t.add({Resource::kHost, "b", 1.0, 3.0});  // nested: union is still [0,4]
  const double f = t.idle_fraction(Resource::kHost, 0.0, 4.0);
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
  EXPECT_DOUBLE_EQ(f, 0.0);
}

}  // namespace
}  // namespace hprng::sim
