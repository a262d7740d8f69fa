// Application II (Sec. VI): multi-layer Monte-Carlo photon migration with
// the hybrid PRNG supplying the on-demand initialisation randomness
// (Algorithm 4). Prints the optical quantities and compares against the
// pre-generated-MWC "Original" of [1].
//
// Usage: ./build/examples/photon_migration [--photons=100000]

#include <cstdio>
#include <string>
#include <vector>

#include "core/hybrid_prng.hpp"
#include "photon/mc.hpp"
#include "photon/tissue.hpp"
#include "sim/device.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace hprng;
  util::Cli cli(argc, argv);
  const std::uint64_t photons = cli.get_u64("photons", 100000);
  const std::vector<std::string> unread = cli.unread();
  for (const std::string& key : unread) {
    std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
  }
  if (!unread.empty()) return 2;

  const auto tissue = photon::Tissue::three_layer();
  std::printf("3-layer tissue (depths in cm, coefficients in 1/cm):\n");
  for (const auto& layer : tissue.layers) {
    std::printf("  [%.2f..%.2f] mu_a=%.2f mu_s=%.1f g=%.2f n=%.2f\n",
                layer.z0, layer.z1, layer.mu_a, layer.mu_s, layer.g,
                layer.n);
  }

  auto report = [](const char* name, const photon::McResult& r) {
    std::printf("%s\n", name);
    std::printf("  diffuse reflectance : %.4f\n", r.diffuse_reflectance);
    std::printf("  transmittance       : %.4f\n", r.transmittance);
    std::printf("  absorbed fraction   : %.4f\n", r.absorbed_fraction);
    std::printf("  energy balance      : %.4f (1.0 = conserved)\n",
                r.diffuse_reflectance + r.transmittance +
                    r.absorbed_fraction);
    std::printf("  interaction steps   : %llu (%.1f per photon)\n",
                static_cast<unsigned long long>(r.total_steps),
                static_cast<double>(r.total_steps) /
                    static_cast<double>(r.photons));
    std::printf("  weight clashes      : %llu\n",
                static_cast<unsigned long long>(r.weight_clashes));
    std::printf("  simulated time      : %.3f ms over %d rounds\n",
                r.sim_seconds * 1e3, r.rounds);
  };

  {
    sim::Device dev;
    core::HybridPrngConfig cfg;
    cfg.walk_len = 8;
    core::HybridPrng prng(dev, cfg);
    photon::PhotonMigration mc(dev, &prng,
                               photon::PhotonRngStrategy::kOnDemandHybrid,
                               2012);
    report("hybrid on-demand PRNG (Algorithm 4):", mc.run(photons, tissue));
  }
  {
    sim::Device dev;
    photon::PhotonMigration mc(dev, nullptr,
                               photon::PhotonRngStrategy::kPregenMwc, 2012);
    report("original pre-generated MWC [1]:", mc.run(photons, tissue));
  }
  return 0;
}
