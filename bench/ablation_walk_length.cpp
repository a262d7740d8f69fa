// Ablation: walk length per output (Algorithm 2's l) — the quality vs
// throughput dial (DESIGN.md §5.2/5.3). Short walks are fast but the raw
// vertex ids stay correlated; l >= 8 passes the quick battery.

#include <cstdio>
#include <vector>

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

  bench::banner("Ablation — walk length per output",
                "(design study; no direct paper figure) quality rises and "
                "throughput falls with l; l = 32 is the generator default "
                "(smallest l passing BigCrush scale), l = 8 the application "
                "operating point",
                "quick 15-test DIEHARD battery at scale 0.25");

  stat::DiehardConfig quick;
  quick.scale = 0.25;
  const auto battery = stat::diehard_battery(quick);

  util::Table t({"walk length l", "feed bits/number", "simulated (ms)",
                 "GNumbers/s", "DIEHARD passed", "+finaliser passed"});
  std::vector<int> lengths = {1, 2, 4, 8, 16, 32, 64};
  // Counters accumulate across the whole sweep; the trace shows the
  // longest walk's pipeline, and each l gets a battery-score gauge.
  obs::MetricsRegistry metrics;
  obs::TraceWriter trace;
  int passed_l16 = 0, passed_l1 = 0;
  for (int l : lengths) {
    core::HybridPrngConfig cfg;
    cfg.walk_len = l;
    sim::Device dev;
    core::HybridPrng prng(dev, cfg);
    prng.set_metrics(&metrics);
    sim::Buffer<std::uint64_t> out;
    const double sec = prng.generate_device(n, 100, out);
    if (l == lengths.back() && cli.has("trace-json")) {
      trace = obs::TraceWriter();
      trace.add_timeline(dev.timeline());
      prng.annotate_trace(trace);
    }

    core::CpuWalkConfig scfg;
    scfg.walk_len = l;
    auto stream = core::make_hybrid_stream(99, scfg);
    const auto report = stat::run_battery("diehard", battery, *stream);

    core::CpuWalkConfig fcfg = scfg;
    fcfg.finalize_output = true;
    auto fstream = core::make_hybrid_stream(99, fcfg);
    const auto freport = stat::run_battery("diehard", battery, *fstream);

    if (l == 16) passed_l16 = report.num_passed();
    if (l == 1) passed_l1 = report.num_passed();
    metrics.gauge(util::strf("hprng.bench.walk_len_%d_passed", l))
        .set(report.num_passed());
    t.add_row({util::strf("%d", l), util::strf("%d", 3 * l),
               bench::ms(sec),
               util::strf("%.3f", static_cast<double>(n) / sec / 1e9),
               report.summary(), freport.summary()});
  }
  std::printf("%s", t.to_string().c_str());
  bench::export_metrics_json(cli, metrics);
  if (cli.has("trace-json")) bench::export_trace_json(cli, trace);

  const bool shape = passed_l16 >= 13 && passed_l1 <= 11;
  if (!bench::reject_unread_flags(cli)) return 2;
  bench::verdict(shape,
                 "short walks fail the battery, l >= 16 passes cleanly; "
                 "the optional finaliser substantially helps from l >= 4 "
                 "(it cannot create entropy at l <= 2)");
  return shape ? 0 : 1;
}
