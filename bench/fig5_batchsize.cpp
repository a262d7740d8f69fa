// Figure 5: generation time vs batch size S (numbers per thread) for a
// fixed N. Paper: a U-shaped curve with its minimum around S = 100 — small
// S leaves the pipeline unoverlapped (CPU idles), large S starves the GPU
// of threads and overloads the CPU feed.

#include <algorithm>
#include <cstdio>
#include <vector>

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

  bench::banner("Figure 5 — time vs batch size S",
                "U-shaped curve, minimum near S = 100",
                util::strf("N = %llu (paper plots a fixed larger N)",
                           static_cast<unsigned long long>(n))
                    .c_str());

  const std::vector<std::uint64_t> batches = {1,   5,    20,   50,  100,
                                              200, 500,  1000, 2000, 5000};
  util::Table t({"S (numbers/thread)", "threads", "simulated (ms)",
                 "ns/number"});
  // One registry across the sweep (counters accumulate; --metrics-json
  // snapshots the whole run); the trace export shows the LAST sweep
  // point's pipeline rounds.
  obs::MetricsRegistry metrics;
  obs::TraceWriter trace;
  std::vector<double> times;
  for (const std::uint64_t s : batches) {
    sim::Device dev;
    core::HybridPrng prng(dev);
    prng.set_metrics(&metrics);
    sim::Buffer<std::uint64_t> out;
    const double sec = prng.generate_device(n, s, out);
    times.push_back(sec);
    if (s == batches.back() && cli.has("trace-json")) {
      trace = obs::TraceWriter();
      trace.add_timeline(dev.timeline());
      prng.annotate_trace(trace);
    }
    t.add_row({util::strf("%llu", static_cast<unsigned long long>(s)),
               util::strf("%llu",
                          static_cast<unsigned long long>((n + s - 1) / s)),
               bench::ms(sec),
               util::strf("%.2f", sec / static_cast<double>(n) * 1e9)});
  }
  std::printf("%s", t.to_string().c_str());
  bench::export_metrics_json(cli, metrics);
  if (cli.has("trace-json")) bench::export_trace_json(cli, trace);

  const std::size_t best =
      static_cast<std::size_t>(std::min_element(times.begin(), times.end()) -
                               times.begin());
  std::printf("minimum at S = %llu (paper: ~100)\n",
              static_cast<unsigned long long>(batches[best]));

  // Shape: interior minimum (U curve) within S in [20, 1000].
  const bool interior = best > 0 && best + 1 < times.size();
  const bool near_paper = batches[best] >= 20 && batches[best] <= 1000;
  if (!bench::reject_unread_flags(cli)) return 2;
  bench::verdict(interior && near_paper,
                 "U-shaped with an interior minimum near S = 100");
  return interior && near_paper ? 0 : 1;
}
