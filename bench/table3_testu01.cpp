// Table III: TestU01-style SmallCrush / Crush / BigCrush pass counts for
// CURAND, Mersenne-Twister and the hybrid PRNG. Paper: all pass SmallCrush
// 15/15; Crush 14/13/14; BigCrush 13/13/13.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/quality_streams.hpp"
#include "obs/metrics.hpp"
#include "stat/battery.hpp"
#include "stat/crush.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hprng;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t seed = cli.get_u64("seed", 424242);
  const bool detail = cli.get_bool("detail", false);
  const bool quick = cli.get_bool("quick", false);

  bench::banner(
      "Table III — TestU01-style battery results",
      "SmallCrush 15/15 for all three; Crush: CURAND 14, MT 13, Hybrid 14; "
      "BigCrush: 13 / 13 / 13",
      "15-statistic batteries mirroring the SmallCrush statistics; Crush/"
      "BigCrush = same statistics at 4x/16x samples (full TestU01 is ~100 "
      "tests; the paper reports the x/15 view)");

  const std::vector<std::string> generators = {"xorwow", "mt19937",
                                               "hybrid-prng"};
  const char* display[] = {"CURAND (xorwow)", "M.Twister", "Hybrid PRNG"};
  const char* paper[][3] = {{"15/15", "14/15", "13/15"},
                            {"15/15", "13/15", "13/15"},
                            {"15/15", "14/15", "13/15"}};

  std::vector<stat::CrushTier> tiers = {stat::small_crush_tier(),
                                        stat::crush_tier(),
                                        stat::big_crush_tier()};
  if (quick) tiers.resize(1);

  util::Table t({"PRNG", "Test Suite", "Tests Passed", "paper"});
  // Stat-only harness: pass counts land in hprng.bench.crush.* gauges,
  // one per (generator, tier) cell.
  obs::MetricsRegistry metrics;
  int min_passed = 15;
  for (std::size_t gi = 0; gi < generators.size(); ++gi) {
    for (std::size_t ti = 0; ti < tiers.size(); ++ti) {
      auto g = core::make_quality_generator(generators[gi], seed);
      const auto battery = stat::crush_battery(tiers[ti]);
      // TestU01 convention: a test fails on p outside [1e-3, 1 - 1e-3].
      const auto report = stat::run_battery(tiers[ti].name, battery, *g,
                                            1e-3, 1.0 - 1e-3);
      if (detail) std::printf("%s\n", report.detail().c_str());
      t.add_row({display[gi], tiers[ti].name, report.summary(),
                 paper[gi][ti]});
      metrics.gauge("hprng.bench.crush." +
                    bench::metric_slug(generators[gi]) + "_" +
                    bench::metric_slug(tiers[ti].name) + "_passed")
          .set(report.num_passed());
      min_passed = std::min(min_passed, report.num_passed());
    }
  }
  std::printf("%s", t.to_string().c_str());
  bench::export_metrics_json(cli, metrics);

  const bool shape = min_passed >= 13;
  if (!bench::reject_unread_flags(cli)) return 2;
  bench::verdict(shape,
                 "every generator passes >= 13/15 at every tier, like the "
                 "paper's 13-15 range");
  return shape ? 0 : 1;
}
