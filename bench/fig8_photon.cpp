// Figure 8: Monte-Carlo photon migration time vs photon count for the
// original pre-generated-MWC implementation [1] and the hybrid on-demand
// version (Algorithm 4). Paper: hybrid ~20% faster, 1M..256M photons.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "core/hybrid_prng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "photon/mc.hpp"
#include "sim/device.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hprng;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t scale_div = cli.get_u64("scale-div", 128);

  bench::banner(
      "Figure 8 — photon migration: original vs hybrid PRNG",
      "HybridResult ~20% below Original across 1M..256M photons",
      util::strf("paper photon counts divided by %llu; 3-layer tissue",
                 static_cast<unsigned long long>(scale_div))
          .c_str());

  const std::vector<std::uint64_t> paper_photons_m = {1, 4, 16, 64, 256};
  const auto tissue = photon::Tissue::three_layer();

  util::Table t({"paper photons (M)", "run photons", "Original (ms)",
                 "Hybrid (ms)", "win", "R (orig)", "R (hybrid)"});
  // One registry across the sweep, attached to the hybrid runs only (the
  // on-demand strategy under study); the trace shows the LAST count's run.
  obs::MetricsRegistry metrics;
  obs::TraceWriter trace;
  bool hybrid_wins = true;
  double win_sum = 0.0;
  for (const std::uint64_t m : paper_photons_m) {
    const std::uint64_t p = m * 1000000ull / scale_div;
    // Keep the iteration structure of the paper's (much larger) runs: at
    // least a handful of feed rounds, so the overlap regime is the one the
    // paper operates in, even at scaled-down photon counts.
    const std::uint64_t slots =
        std::max<std::uint64_t>(512, std::min<std::uint64_t>(16384, p / 32));
    photon::McResult orig, hyb;
    {
      sim::Device dev;
      photon::PhotonMigration mc(dev, nullptr,
                                 photon::PhotonRngStrategy::kPregenMwc, 5);
      orig = mc.run(p, tissue, slots);
    }
    {
      sim::Device dev;
      core::HybridPrngConfig cfg;
      cfg.walk_len = 8;  // application operating point
      core::HybridPrng prng(dev, cfg);
      prng.set_metrics(&metrics);
      photon::PhotonMigration mc(
          dev, &prng, photon::PhotonRngStrategy::kOnDemandHybrid, 5);
      hyb = mc.run(p, tissue, slots);
      if (m == paper_photons_m.back() && cli.has("trace-json")) {
        trace = obs::TraceWriter();
        trace.add_timeline(dev.timeline());
        prng.annotate_trace(trace);
      }
    }
    hybrid_wins &= hyb.sim_seconds < orig.sim_seconds;
    const double win = (orig.sim_seconds - hyb.sim_seconds) /
                       orig.sim_seconds;
    win_sum += win;
    t.add_row({util::strf("%llu", static_cast<unsigned long long>(m)),
               util::strf("%llu", static_cast<unsigned long long>(p)),
               bench::ms(orig.sim_seconds), bench::ms(hyb.sim_seconds),
               util::strf("%.0f%%", win * 100),
               util::strf("%.4f", orig.diffuse_reflectance),
               util::strf("%.4f", hyb.diffuse_reflectance)});
  }
  std::printf("%s", t.to_string().c_str());
  const double mean_win =
      win_sum / static_cast<double>(paper_photons_m.size()) * 100;
  std::printf("mean hybrid win: %.0f%% (paper: ~20%%)\n", mean_win);
  bench::export_metrics_json(cli, metrics);
  if (cli.has("trace-json")) bench::export_trace_json(cli, trace);

  const bool shape = hybrid_wins && mean_win > 8.0;
  if (!bench::reject_unread_flags(cli)) return 2;
  bench::verdict(shape,
                 "hybrid below original at every photon count with a win "
                 "in the vicinity of 20%");
  return shape ? 0 : 1;
}
