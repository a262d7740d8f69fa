// Ablation: how the 3-bit draw maps onto 7 neighbours (DESIGN.md §5.1).
// mod-7 (paper-style fixed budget) vs rejection (unbiased, variable budget)
// vs seven-stays (lazy walk). Measures feed budget, throughput and quality.

#include <cstdio>

#include "bench/common.hpp"
#include "core/hybrid_prng.hpp"
#include "core/quality_streams.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/device.hpp"
#include "stat/battery.hpp"
#include "stat/diehard.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hprng;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t n = cli.get_u64("n", 1000000);

  bench::banner("Ablation — neighbour-selection policy",
                "(design study; no direct paper figure) the paper's fixed "
                "3-bit budget implies a mod-7 style mapping; rejection "
                "removes the 2/8 bias on neighbour 0 at ~1.5x bit cost",
                "quick 15-test DIEHARD battery at scale 0.25");

  stat::DiehardConfig quick;
  quick.scale = 0.25;
  const auto battery = stat::diehard_battery(quick);

  util::Table t({"policy", "feed words/number", "simulated (ms)",
                 "DIEHARD passed"});
  // Counters accumulate across all three policies; the trace shows the
  // LAST policy's pipeline rounds.
  obs::MetricsRegistry metrics;
  obs::TraceWriter trace;
  constexpr auto kLastPolicy = expander::NeighborPolicy::kSevenStays;
  int min_passed = 15;
  for (auto policy : {expander::NeighborPolicy::kMod7,
                      expander::NeighborPolicy::kRejection,
                      kLastPolicy}) {
    core::HybridPrngConfig cfg;
    cfg.policy = policy;
    sim::Device dev;
    core::HybridPrng prng(dev, cfg);
    prng.set_metrics(&metrics);
    sim::Buffer<std::uint64_t> out;
    const double sec = prng.generate_device(n, 100, out);
    if (policy == kLastPolicy && cli.has("trace-json")) {
      trace = obs::TraceWriter();
      trace.add_timeline(dev.timeline());
      prng.annotate_trace(trace);
    }

    core::CpuWalkConfig scfg;
    scfg.policy = policy;
    auto stream = core::make_hybrid_stream(7, scfg);
    const auto report = stat::run_battery("diehard", battery, *stream);
    min_passed = std::min(min_passed, report.num_passed());
    metrics.gauge("hprng.bench.policy_" +
                  bench::metric_slug(expander::to_string(policy)) +
                  "_passed").set(report.num_passed());

    t.add_row({expander::to_string(policy),
               util::strf("%llu", static_cast<unsigned long long>(
                                      prng.words_per_draw())),
               bench::ms(sec), report.summary()});
  }
  std::printf("%s", t.to_string().c_str());
  bench::export_metrics_json(cli, metrics);
  if (cli.has("trace-json")) bench::export_trace_json(cli, trace);

  const bool shape = min_passed >= 12;
  if (!bench::reject_unread_flags(cli)) return 2;
  bench::verdict(shape,
                 "all three policies yield statistically sound streams at "
                 "the default l; the choice is a budget/bias trade, not a quality "
                 "cliff");
  return shape ? 0 : 1;
}
