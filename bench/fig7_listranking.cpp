// Figure 7: list-ranking Phase I (ReduceList) time vs list size for the
// three randomness strategies. Paper: on-demand hybrid beats the pregen
// hybrid of [3] by ~40%, and the pure-GPU-MT variant is slowest; sizes up
// to 128M nodes.

#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "core/hybrid_prng.hpp"
#include "listrank/hybrid_rank.hpp"
#include "listrank/list.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prng/registry.hpp"
#include "sim/device.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hprng;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t scale_div = cli.get_u64("scale-div", 64);

  bench::banner(
      "Figure 7 — list ranking Phase I across randomness strategies",
      "Hybrid(our PRNG) ~40% faster than Hybrid(glibc pregen); "
      "Pure-GPU-MT slowest; sizes 8M..128M",
      util::strf("paper sizes divided by %llu; random lists",
                 static_cast<unsigned long long>(scale_div))
          .c_str());

  const std::vector<std::uint64_t> paper_sizes_m = {8, 16, 32, 64, 128};
  util::Table t({"paper n (M)", "run n", "Pure GPU MT (ms)",
                 "Hybrid glibc (ms)", "Hybrid our PRNG (ms)",
                 "win vs glibc"});

  // One registry across the sweep, attached to the on-demand runs only
  // (the strategy under study); the trace shows the LAST size's pipeline.
  obs::MetricsRegistry metrics;
  obs::TraceWriter trace;
  bool ordering = true;
  double win_sum = 0.0;
  for (const std::uint64_t m : paper_sizes_m) {
    const auto n = static_cast<std::uint32_t>(m * 1000000ull / scale_div);
    auto list_rng = prng::make_by_name("mt19937", 1000 + m);
    const auto list = listrank::make_random_list(n, *list_rng);

    double t_mt, t_glibc, t_ours;
    {
      sim::Device dev;
      listrank::HybridListRanker r(
          dev, nullptr, listrank::RngStrategy::kPregenDeviceMt, 7);
      t_mt = r.reduce_only(list).sim_seconds;
    }
    {
      sim::Device dev;
      listrank::HybridListRanker r(
          dev, nullptr, listrank::RngStrategy::kPregenHostGlibc, 7);
      t_glibc = r.reduce_only(list).sim_seconds;
    }
    {
      sim::Device dev;
      core::HybridPrngConfig cfg;
      cfg.walk_len = 8;  // the application operating point (DESIGN.md §5)
      core::HybridPrng prng(dev, cfg);
      prng.set_metrics(&metrics);
      listrank::HybridListRanker r(
          dev, &prng, listrank::RngStrategy::kOnDemandHybrid, 7);
      t_ours = r.reduce_only(list).sim_seconds;
      if (m == paper_sizes_m.back() && cli.has("trace-json")) {
        trace = obs::TraceWriter();
        trace.add_timeline(dev.timeline());
        prng.annotate_trace(trace);
      }
    }
    ordering &= t_ours < t_glibc && t_glibc < t_mt;
    const double win = (t_glibc - t_ours) / t_glibc;
    win_sum += win;
    t.add_row({util::strf("%llu", static_cast<unsigned long long>(m)),
               util::strf("%u", n), bench::ms(t_mt), bench::ms(t_glibc),
               bench::ms(t_ours), util::strf("%.0f%%", win * 100)});
  }
  std::printf("%s", t.to_string().c_str());
  const double mean_win =
      win_sum / static_cast<double>(paper_sizes_m.size()) * 100;
  std::printf("mean on-demand win over pregen-glibc: %.0f%% (paper: ~40%%)\n",
              mean_win);
  std::printf("(paper Sec. V: Phases II+III add ~20%% of total time and are "
              "identical across strategies)\n");
  bench::export_metrics_json(cli, metrics);
  if (cli.has("trace-json")) bench::export_trace_json(cli, trace);

  const bool shape = ordering && mean_win > 15.0;
  if (!bench::reject_unread_flags(cli)) return 2;
  bench::verdict(shape,
                 "our-PRNG < glibc-pregen < pure-GPU-MT at every size, "
                 "with a substantial on-demand win");
  return shape ? 0 : 1;
}
