// A minimal Monte-Carlo consumer of the on-demand device API: estimate pi
// by dart throwing, with every device thread pulling uniforms on demand —
// the "rand() inside a kernel" usage the paper motivates in Sec. I.
//
// Usage: ./build/examples/monte_carlo_pi [--threads=4096] [--darts=64]

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/hybrid_prng.hpp"
#include "sim/device.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace hprng;
  util::Cli cli(argc, argv);
  const std::uint64_t threads = cli.get_u64("threads", 4096);
  const std::uint64_t darts = cli.get_u64("darts", 64);
  const std::vector<std::string> unread = cli.unread();
  for (const std::string& key : unread) {
    std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
  }
  if (!unread.empty()) return 2;

  sim::Device dev;
  core::HybridPrng prng(dev);
  prng.initialize(threads);

  std::vector<std::uint64_t> hits(threads, 0);
  sim::Stream stream;
  // Each dart needs two uniforms; provision exactly that per round.
  auto round = prng.begin_round(threads, 2 * darts);
  const auto kernel = dev.launch(
      stream, "darts", threads,
      sim::KernelCost{
          prng.device_ops_for_draws_inline(2.0 * static_cast<double>(darts)),
          16.0},
      [&](std::uint64_t tid) {
        auto rng = prng.thread_rng(round, tid);
        std::uint64_t h = 0;
        for (std::uint64_t d = 0; d < darts; ++d) {
          const double x = rng.next_double();
          const double y = rng.next_double();
          if (x * x + y * y < 1.0) ++h;
        }
        hits[tid] = h;
      },
      {round.ready});
  prng.end_round(round, kernel);
  dev.synchronize();

  std::uint64_t total = 0;
  for (const auto h : hits) total += h;
  const double n = static_cast<double>(threads * darts);
  const double pi = 4.0 * static_cast<double>(total) / n;
  const double sigma = 4.0 * std::sqrt(0.25 * (M_PI / 4.0) *
                                       (1.0 - M_PI / 4.0) * 4.0 / n);
  std::printf("darts: %llu x %llu = %.0f\n",
              static_cast<unsigned long long>(threads),
              static_cast<unsigned long long>(darts), n);
  std::printf("pi estimate: %.5f (true %.5f, |err| %.5f, ~sigma %.5f)\n", pi,
              M_PI, std::abs(pi - M_PI), sigma);
  std::printf("simulated device time: %.3f us\n", dev.engine().now() * 1e6);
  return std::abs(pi - M_PI) < 10.0 * sigma ? 0 : 1;
}
