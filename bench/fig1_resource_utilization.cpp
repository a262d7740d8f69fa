// Figure 1: "The case for hybrid computing" — the paper's motivating
// diagram contrasts a pure-device computation (host idle while the GPU
// works) with a hybrid one (computation and transfers interleaved on both
// processors). We reproduce it as a *measurement*: the same generation
// workload run pure-device (batch MT) and hybrid, with the per-resource
// busy fractions and ASCII timelines of both.

#include <cstdio>

#include "bench/common.hpp"
#include "core/device_baselines.hpp"
#include "core/hybrid_prng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/device.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hprng;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t n = cli.get_u64("n", 1000000);

  bench::banner("Figure 1 — pure-device vs hybrid resource utilisation",
                "pure device: CPU idles during GPU compute; hybrid: "
                "interleaved compute and transfer on both",
                util::strf("N = %llu numbers generated both ways",
                           static_cast<unsigned long long>(n))
                    .c_str());

  double pure_cpu_busy, pure_gpu_busy, hyb_cpu_busy, hyb_gpu_busy;
  // One trace, two processes: the pure-device and hybrid schedules load
  // side by side in Perfetto — the paper's Figure 1, machine-readable.
  obs::TraceWriter trace;  // default process (pid 1): "hprng"
  const int pure_pid = trace.add_process("pure-device (batch MT)");
  const int hyb_pid = trace.add_process("hybrid (FEED||TRANSFER||GENERATE)");
  obs::MetricsRegistry metrics;  // hybrid pipeline metrics
  {
    sim::Device dev;
    core::DeviceBatchGenerator g(
        dev, core::DeviceBatchGenerator::Kind::kMersenneTwister, 1);
    sim::Buffer<std::uint64_t> out;
    dev.engine().clear_timeline();
    const double t0 = dev.engine().now();
    g.generate_device(n, out);
    const double t1 = dev.engine().now();
    pure_cpu_busy = 1.0 - dev.timeline().idle_fraction(
                              sim::Resource::kHost, t0, t1);
    pure_gpu_busy = 1.0 - dev.timeline().idle_fraction(
                              sim::Resource::kDevice, t0, t1);
    std::printf("PURE DEVICE (batch Mersenne-Twister):\n%s\n",
                dev.timeline().render_ascii(t0, t1, 96).c_str());
    trace.add_timeline(dev.timeline(), pure_pid);
  }
  {
    sim::Device dev;
    core::HybridPrng prng(dev);
    prng.set_metrics(&metrics);
    prng.initialize((n + 99) / 100);
    dev.engine().clear_timeline();
    dev.engine().fence();
    const double t0 = dev.engine().now();
    sim::Buffer<std::uint64_t> out;
    prng.generate_device(n, 100, out);
    const double t1 = dev.engine().now();
    hyb_cpu_busy = 1.0 - dev.timeline().idle_fraction(
                             sim::Resource::kHost, t0, t1);
    hyb_gpu_busy = 1.0 - dev.timeline().idle_fraction(
                             sim::Resource::kDevice, t0, t1);
    std::printf("HYBRID (FEED || TRANSFER || GENERATE):\n%s\n",
                dev.timeline().render_ascii(t0, t1, 96).c_str());
    trace.add_timeline(dev.timeline(), hyb_pid);
    prng.annotate_trace(trace, hyb_pid);
  }
  bench::export_metrics_json(cli, metrics);
  bench::export_trace_json(cli, trace);

  util::Table t({"configuration", "CPU busy", "GPU busy"});
  t.add_row({"pure device", util::strf("%.0f%%", pure_cpu_busy * 100),
             util::strf("%.0f%%", pure_gpu_busy * 100)});
  t.add_row({"hybrid", util::strf("%.0f%%", hyb_cpu_busy * 100),
             util::strf("%.0f%%", hyb_gpu_busy * 100)});
  std::printf("%s", t.to_string().c_str());

  const bool shape = pure_cpu_busy < 0.05 && hyb_cpu_busy > 0.9 &&
                     hyb_gpu_busy > 0.5;
  if (!bench::reject_unread_flags(cli)) return 2;
  bench::verdict(shape,
                 "pure device leaves the CPU ~idle; the hybrid keeps both "
                 "processors busy");
  return shape ? 0 : 1;
}
