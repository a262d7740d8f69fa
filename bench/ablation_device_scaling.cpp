// Ablation: device-generation scaling. The hybrid pipeline is CPU-feed
// bound at the paper's operating point, so moving from the Tesla C1060 to a
// Fermi C2050 barely moves the hybrid curve while the pure-GPU baselines
// speed up proportionally — the flip side of the paper's Fig. 1 argument
// (feeding the GPU from the CPU couples the generator to host throughput).

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

namespace {

struct Point {
  double hybrid_ms;
  double mt_ms;
};

// metrics accumulates across devices (attached to the hybrid run); when
// trace is non-null, it captures THIS device's hybrid pipeline rounds.
Point measure(const sim::DeviceSpec& spec, std::uint64_t n,
              obs::MetricsRegistry* metrics, obs::TraceWriter* trace) {
  Point p{};
  {
    sim::Device dev(spec);
    core::HybridPrng prng(dev);
    prng.set_metrics(metrics);
    sim::Buffer<std::uint64_t> out;
    p.hybrid_ms = prng.generate_device(n, 100, out) * 1e3;
    if (trace != nullptr) {
      *trace = obs::TraceWriter();
      trace->add_timeline(dev.timeline());
      prng.annotate_trace(*trace);
    }
  }
  {
    sim::Device dev(spec);
    core::DeviceBatchGenerator g(
        dev, core::DeviceBatchGenerator::Kind::kMersenneTwister, 1);
    sim::Buffer<std::uint64_t> out;
    p.mt_ms = g.generate_device(n, out) * 1e3;
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t n = cli.get_u64("n", 2000000);

  bench::banner("Ablation — cross-device scaling",
                "(design study) the hybrid generator is host-feed bound: "
                "faster devices help the batch baselines, not the hybrid",
                util::strf("N = %llu",
                           static_cast<unsigned long long>(n))
                    .c_str());

  obs::MetricsRegistry metrics;
  obs::TraceWriter trace;
  obs::TraceWriter* last_trace = cli.has("trace-json") ? &trace : nullptr;
  const auto c1060 = measure(sim::DeviceSpec::tesla_c1060(), n, &metrics,
                             nullptr);
  const auto c2050 = measure(sim::DeviceSpec::tesla_c2050(), n, &metrics,
                             last_trace);
  const auto single = measure(sim::DeviceSpec::single_sm(), n, &metrics,
                              nullptr);

  util::Table t({"device", "Hybrid (ms)", "M.Twister batch (ms)"});
  t.add_row({"single-sm (1x8 cores)", bench::ms(single.hybrid_ms / 1e3),
             bench::ms(single.mt_ms / 1e3)});
  t.add_row({"tesla-c1060 (30x8)", bench::ms(c1060.hybrid_ms / 1e3),
             bench::ms(c1060.mt_ms / 1e3)});
  t.add_row({"tesla-c2050 (14x32)", bench::ms(c2050.hybrid_ms / 1e3),
             bench::ms(c2050.mt_ms / 1e3)});
  std::printf("%s", t.to_string().c_str());

  const double hybrid_gain = c1060.hybrid_ms / c2050.hybrid_ms;
  const double mt_gain = c1060.mt_ms / c2050.mt_ms;
  std::printf("\nC1060 -> C2050 speedup: hybrid %.2fx vs MT batch %.2fx\n",
              hybrid_gain, mt_gain);
  bench::export_metrics_json(cli, metrics);
  if (cli.has("trace-json")) bench::export_trace_json(cli, trace);

  // Shapes: on the crippled device the GPU becomes the bottleneck (hybrid
  // slows down a lot); on the faster device the hybrid barely moves while
  // the batch baseline gains.
  const bool shape = single.hybrid_ms > 2.0 * c1060.hybrid_ms &&
                     hybrid_gain < 1.15 && mt_gain > 1.15;
  if (!bench::reject_unread_flags(cli)) return 2;
  bench::verdict(shape,
                 "hybrid time ~flat across C1060 -> C2050 (feed-bound) "
                 "while the batch baseline scales with the device");
  return shape ? 0 : 1;
}
