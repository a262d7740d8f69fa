// Figure 4: the overlapped execution of the FEED / TRANSFER / GENERATE work
// units at batch size 100. Paper: FEED ~81-87 ns/unit, TRANSFER 6.2 ns,
// GENERATE ~100 ns; "the CPU is almost never idle, and the GPU is idle for
// about 20% during each iteration".

#include <cstdio>
#include <string>

#include "bench/common.hpp"
#include "core/hybrid_prng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/device.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hprng;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t n = cli.get_u64("n", 2000000);
  const std::uint64_t batch = cli.get_u64("batch", 100);

  bench::banner("Figure 4 — work-unit overlap at batch size 100",
                "CPU almost never idle; GPU ~20% idle; TRANSFER tiny",
                util::strf("N = %llu, batch = %llu",
                           static_cast<unsigned long long>(n),
                           static_cast<unsigned long long>(batch))
                    .c_str());

  sim::Device dev;
  core::HybridPrng prng(dev);
  obs::MetricsRegistry metrics;
  prng.set_metrics(&metrics);
  prng.initialize((n + batch - 1) / batch);
  dev.engine().clear_timeline();  // drop the init ops; steady state only
  const double t0 = dev.engine().now();
  sim::Buffer<std::uint64_t> out;
  prng.generate_device(n, batch, out);
  const double t1 = dev.engine().now();

  const auto& tl = dev.timeline();

  // Per-work-unit totals and per-round means.
  double feed = 0, xfer = 0, gen = 0;
  std::size_t feed_n = 0, xfer_n = 0, gen_n = 0;
  for (const auto& e : tl.entries()) {
    const double d = e.end - e.start;
    if (e.label == "FEED") {
      feed += d;
      ++feed_n;
    } else if (e.label == "Transfer") {
      xfer += d;
      ++xfer_n;
    } else if (e.label.rfind("Generate", 0) == 0) {
      gen += d;
      ++gen_n;
    }
  }
  const double threads = static_cast<double>((n + batch - 1) / batch);

  util::Table t({"work unit", "rounds", "mean per round (us)",
                 "per number (ns)", "paper per unit (ns)"});
  t.add_row({"FEED", util::strf("%zu", feed_n),
             util::strf("%.2f", feed / feed_n * 1e6),
             util::strf("%.2f", feed / feed_n / threads * 1e9),
             "81.2 / 86.6"});
  t.add_row({"TRANSFER", util::strf("%zu", xfer_n),
             util::strf("%.2f", xfer / xfer_n * 1e6),
             util::strf("%.2f", xfer / xfer_n / threads * 1e9), "6.2"});
  t.add_row({"GENERATE", util::strf("%zu", gen_n),
             util::strf("%.2f", gen / gen_n * 1e6),
             util::strf("%.2f", gen / gen_n / threads * 1e9),
             "100.67"});
  std::printf("%s", t.to_string().c_str());

  const double cpu_idle = tl.idle_fraction(sim::Resource::kHost, t0, t1);
  const double gpu_idle = tl.idle_fraction(sim::Resource::kDevice, t0, t1);
  std::printf("\nCPU idle: %5.1f%% (paper: ~never idle)\n", cpu_idle * 100);
  std::printf("GPU idle: %5.1f%% (paper: ~20%%)\n", gpu_idle * 100);

  // Render a steady-state window covering a handful of rounds.
  const double window = (t1 - t0) / 12.0;
  const double mid = t0 + (t1 - t0) * 0.5;
  std::printf("\nsteady-state window (F = FEED, T = TRANSFER, "
              "G = GENERATE):\n%s",
              tl.render_ascii(mid, mid + window, 96).c_str());

  // Pipeline-stall picture from the metrics registry: how often a stage
  // waited, and how much virtual time each resource lost to waiting.
  std::printf("\npipeline stalls (from hprng.core.* / hprng.sim.*):\n");
  std::printf("  FEED waited for a previous TRANSFER: %.0f of %.0f rounds\n",
              metrics.counter("hprng.core.feed_refill_stalls").value(),
              metrics.counter("hprng.core.rounds").value());
  std::printf("  TRANSFER waited for a consumer kernel: %.0f rounds\n",
              metrics.counter("hprng.core.transfer_consumer_stalls").value());
  for (int r = 0; r < sim::kNumResources; ++r) {
    const auto res = static_cast<sim::Resource>(r);
    const std::string suffix = sim::metric_suffix(res);
    std::printf(
        "  %-9s idle on dependencies: %8.2f us over %.0f waits\n",
        sim::to_string(res),
        metrics.counter("hprng.sim.dep_stall_seconds." + suffix).value() * 1e6,
        metrics.counter("hprng.sim.dep_stalls." + suffix).value());
  }

  // Machine-readable exports (--metrics-json / --trace-json).
  bench::export_metrics_json(cli, metrics);
  if (cli.has("trace-json")) {
    obs::TraceWriter trace;
    trace.add_timeline(tl);
    prng.annotate_trace(trace);
    bench::export_trace_json(cli, trace);
  }

  const bool shape = cpu_idle < 0.10 && gpu_idle > 0.05 && gpu_idle < 0.45;
  if (!bench::reject_unread_flags(cli)) return 2;
  bench::verdict(shape,
                 "CPU busy ~always, GPU idle in the vicinity of 20%, "
                 "transfers negligible");
  return shape ? 0 : 1;
}
