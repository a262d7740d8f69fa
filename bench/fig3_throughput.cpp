// Figure 3: time to produce a stream of N numbers, N from 5M..1000M in the
// paper (scaled here), for Hybrid vs the SDK Mersenne-Twister sample vs the
// cuRAND device API. Paper: "the hybrid generator outperforms both ... by a
// factor of 2 in most cases".

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/device_baselines.hpp"
#include "core/hybrid_prng.hpp"
#include "obs/metrics.hpp"
#include "sim/device.hpp"
#include "simd/simd.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hprng;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  // Paper sweeps 5M..1000M; default scale 1/16 keeps the functional
  // execution fast on one core while preserving the series shape.
  const std::uint64_t scale_div = cli.get_u64("scale-div", 32);
  // --simd=scalar|avx2|neon forces the serve/feed fill kernels (the
  // wall-clock rows; simulated seconds are kernel-independent by
  // construction). Default: hardware probe, overridable via HPRNG_SIMD.
  if (const std::string simd_name = cli.get_string("simd", "");
      !simd_name.empty()) {
    simd::Kernel k = simd::Kernel::kScalar;
    if (!simd::parse_kernel(simd_name, &k) || !simd::force_kernel(k)) {
      std::fprintf(stderr, "--simd=%s: unknown or unsupported kernel "
                   "(want scalar|avx2|neon)\n", simd_name.c_str());
      return 2;
    }
  }

  bench::banner("Figure 3 — generation time vs stream size",
                "Hybrid beats Mersenne-Twister and CURAND by ~2x across "
                "5M..1000M numbers",
                util::strf("paper sizes divided by %llu",
                           static_cast<unsigned long long>(scale_div))
                    .c_str());

  const std::vector<std::uint64_t> paper_sizes_m = {5,   10,  50,  100,
                                                    250, 500, 1000};
  util::Table t({"paper N (M)", "run N", "Hybrid (ms)", "M.Twister (ms)",
                 "CURAND (ms)", "MT/Hybrid", "CURAND/Hybrid"});

  bool hybrid_always_fastest = true;
  // Cross-check (docs/OBSERVABILITY.md): per-resource busy fractions
  // derived from the hprng.sim.busy_seconds.* counters must agree with the
  // legacy Timeline::idle_fraction over the same timed window.
  obs::MetricsRegistry metrics;
  double max_busy_disagreement = 0.0;
  double ratio_sum = 0.0;
  double ratio_sum_xw = 0.0;
  double hybrid_wall_seconds = 0.0;  ///< functional-execution wall time
  double hybrid_sim_seconds = 0.0;
  std::uint64_t total_numbers = 0;
  std::string sizes_json = "[", hybrid_ms_json = "[", mt_ms_json = "[",
              xw_ms_json = "[";
  for (const std::uint64_t m : paper_sizes_m) {
    const std::uint64_t n = m * 1000000ull / scale_div;
    double t_h, t_mt, t_xw;
    {
      sim::Device dev;
      core::HybridPrng prng(dev);
      prng.set_metrics(&metrics);
      sim::Buffer<std::uint64_t> out;
      // Counter snapshot after initialisation: the deltas below then cover
      // exactly the fenced window generate_device() times.
      prng.initialize((n + 99) / 100);
      double busy0[sim::kNumResources];
      for (int r = 0; r < sim::kNumResources; ++r) {
        busy0[r] = metrics
                       .counter(std::string("hprng.sim.busy_seconds.") +
                                sim::metric_suffix(static_cast<sim::Resource>(r)))
                       .value();
      }
      const auto wall0 = std::chrono::steady_clock::now();
      t_h = prng.generate_device(n, 100, out);
      hybrid_wall_seconds +=
          std::chrono::duration_cast<std::chrono::duration<double>>(
              std::chrono::steady_clock::now() - wall0)
              .count();
      hybrid_sim_seconds += t_h;
      total_numbers += n;
      const double t1 = dev.engine().now();
      const double t0 = t1 - t_h;
      for (int r = 0; r < sim::kNumResources; ++r) {
        const auto res = static_cast<sim::Resource>(r);
        const double busy = metrics
                                .counter(std::string("hprng.sim.busy_seconds.") +
                                         sim::metric_suffix(res))
                                .value() -
                            busy0[r];
        const double metric_fraction = busy / t_h;
        const double timeline_fraction =
            1.0 - dev.timeline().idle_fraction(res, t0, t1);
        max_busy_disagreement =
            std::max(max_busy_disagreement,
                     std::abs(metric_fraction - timeline_fraction));
      }
    }
    {
      sim::Device dev;
      core::DeviceBatchGenerator g(
          dev, core::DeviceBatchGenerator::Kind::kMersenneTwister, 1);
      sim::Buffer<std::uint64_t> out;
      t_mt = g.generate_device(n, out);
    }
    {
      sim::Device dev;
      core::DeviceBatchGenerator g(
          dev, core::DeviceBatchGenerator::Kind::kCurandXorwow, 1);
      sim::Buffer<std::uint64_t> out;
      t_xw = g.generate_device(n, out);
    }
    hybrid_always_fastest &= t_h < t_mt && t_h < t_xw;
    ratio_sum += t_mt / t_h;
    ratio_sum_xw += t_xw / t_h;
    const char* sep = sizes_json.size() > 1 ? ", " : "";
    sizes_json += util::strf("%s%llu", sep, static_cast<unsigned long long>(n));
    hybrid_ms_json += util::strf("%s%.6f", sep, t_h * 1e3);
    mt_ms_json += util::strf("%s%.6f", sep, t_mt * 1e3);
    xw_ms_json += util::strf("%s%.6f", sep, t_xw * 1e3);
    t.add_row({util::strf("%llu", static_cast<unsigned long long>(m)),
               util::strf("%llu", static_cast<unsigned long long>(n)),
               bench::ms(t_h), bench::ms(t_mt), bench::ms(t_xw),
               util::strf("%.2f", t_mt / t_h),
               util::strf("%.2f", t_xw / t_h)});
  }
  std::printf("%s", t.to_string().c_str());
  const double mean_ratio = ratio_sum / static_cast<double>(paper_sizes_m.size());
  std::printf("mean MT/Hybrid speedup: %.2fx (paper: ~2x)\n", mean_ratio);
  const double sim_numbers_per_s =
      hybrid_sim_seconds > 0.0
          ? static_cast<double>(total_numbers) / hybrid_sim_seconds
          : 0.0;
  const double wall_numbers_per_s =
      hybrid_wall_seconds > 0.0
          ? static_cast<double>(total_numbers) / hybrid_wall_seconds
          : 0.0;
  std::printf("hybrid throughput: %.3g numbers/sim-second, "
              "%.3g numbers/wall-second (functional execution)\n",
              sim_numbers_per_s, wall_numbers_per_s);

  const bool metrics_agree = max_busy_disagreement <= 1e-9;
  std::printf("metrics vs timeline busy fractions: max |delta| = %.3g [%s]\n",
              max_busy_disagreement, metrics_agree ? "OK" : "MISMATCH");
  bench::export_metrics_json(cli, metrics);

  const bool shape = hybrid_always_fastest && mean_ratio > 1.3 &&
                     metrics_agree;

  {
    // Flat perf summary (BENCH_throughput.json in CI): simulated and wall
    // throughput plus the per-size series, one parseable file per run.
    bench::BenchJson json;
    json.add("bench", std::string("fig3_throughput"));
    json.add("simd_kernel", std::string(simd::kernel_name()));
    json.add("simd_lanes", static_cast<double>(simd::lane_width_u32()));
    json.add("scale_div", static_cast<double>(scale_div));
    json.add("total_numbers", static_cast<double>(total_numbers));
    json.add("hybrid_sim_seconds", hybrid_sim_seconds);
    json.add("hybrid_wall_seconds", hybrid_wall_seconds);
    json.add("sim_numbers_per_s", sim_numbers_per_s);
    json.add("wall_numbers_per_s", wall_numbers_per_s);
    json.add("mean_mt_over_hybrid", mean_ratio);
    json.add("mean_curand_over_hybrid",
             ratio_sum_xw / static_cast<double>(paper_sizes_m.size()));
    json.add("shape_ok", shape ? 1.0 : 0.0);
    json.add_raw("run_n", sizes_json + "]");
    json.add_raw("hybrid_sim_ms", hybrid_ms_json + "]");
    json.add_raw("mt_sim_ms", mt_ms_json + "]");
    json.add_raw("curand_sim_ms", xw_ms_json + "]");
    bench::export_bench_json(cli, json);
  }

  if (!bench::reject_unread_flags(cli)) return 2;
  bench::verdict(shape, "hybrid fastest at every size, baselines ~2x slower");
  return shape ? 0 : 1;
}
