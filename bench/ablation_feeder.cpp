// Ablation: what does the expander walk add over its feed source?
// (Sec. IV-C: "our technique can be seen as improving the quality of a
// naive random number generator ... this increase in quality is obtained
// by using a little amount of initial randomness.")
//
// For each feeder we run the quick DIEHARD battery on (a) the raw feeder
// stream and (b) the walk stream driven by that feeder's bits.

#include <cstdio>

#include "bench/common.hpp"
#include "core/quality_streams.hpp"
#include "obs/metrics.hpp"
#include "stat/battery.hpp"
#include "stat/diehard.hpp"
#include "stat/extended.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hprng;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t seed = cli.get_u64("seed", 7);

  bench::banner(
      "Ablation — the walk as a quality amplifier of its feed source",
      "Sec. IV-C: the expander walk improves a naive generator using "
      "little initial randomness (it cannot launder a broken one)",
      "quick 15-test DIEHARD battery at scale 0.25 + the long-block "
      "linearity catcher");

  stat::DiehardConfig quick;
  quick.scale = 0.25;
  const auto battery = stat::diehard_battery(quick);

  util::Table t({"feeder", "raw feeder passed", "walk-on-feeder passed",
                 "raw linear?", "walk linear?"});
  // Host-only harness: per-feeder raw/walk battery scores land in
  // hprng.bench.feeder.* gauges.
  obs::MetricsRegistry metrics;
  int lcg_raw = 0, lcg_walk = 0;
  for (const char* feeder : {"glibc-lcg", "minstd", "glibc-rand", "xorwow"}) {
    auto raw = core::make_quality_generator(feeder, seed);
    const auto raw_report = stat::run_battery("diehard", battery, *raw);

    core::CpuWalkConfig cfg;  // default l = 32
    auto walk = core::make_walk_stream_with_feeder(seed, cfg, feeder);
    const auto walk_report = stat::run_battery("diehard", battery, *walk);

    // Structural linearity before/after (the amplification mechanism:
    // composed affine maps of the walk are not F2-linear in the feed).
    auto raw2 = core::make_quality_generator(feeder, seed);
    auto walk2 = core::make_walk_stream_with_feeder(seed, cfg, feeder);
    const auto raw_lin =
        stat::long_block_linear_complexity_test(*raw2, 20000);
    const auto walk_lin =
        stat::long_block_linear_complexity_test(*walk2, 20000);

    t.add_row({feeder, raw_report.summary(), walk_report.summary(),
               raw_lin.p < 1e-4 ? "LINEAR (fails)" : "no",
               walk_lin.p < 1e-4 ? "LINEAR (fails)" : "no"});
    const std::string slug = bench::metric_slug(feeder);
    metrics.gauge("hprng.bench.feeder." + slug + "_raw_passed")
        .set(raw_report.num_passed());
    metrics.gauge("hprng.bench.feeder." + slug + "_walk_passed")
        .set(walk_report.num_passed());
    if (std::string(feeder) == "glibc-lcg") {
      lcg_raw = raw_report.num_passed();
      lcg_walk = walk_report.num_passed();
    }
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\nthe paper's configuration is the first row: a glibc LCG "
              "feed, amplified by the walk.\n");
  bench::export_metrics_json(cli, metrics);

  // One-off borderline p-values (0.005-0.01) are noise at a 0.01/0.99 pass
  // band; require near-parity plus a near-perfect absolute score.
  const bool shape = lcg_walk + 1 >= lcg_raw && lcg_walk >= 13;
  if (!bench::reject_unread_flags(cli)) return 2;
  bench::verdict(shape,
                 "walk-on-lcg passes at least as much as the raw LCG and "
                 "nearly everything overall");
  return shape ? 0 : 1;
}
