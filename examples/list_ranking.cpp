// Application I (Sec. V): rank a random linked list with the 3-phase hybrid
// algorithm, using the on-demand PRNG for the fractional-independent-set
// coin flips, and cross-check against Wyllie pointer jumping and the
// sequential ranking.
//
// Usage: ./build/examples/list_ranking [--n=200000] [--seed=7]

#include <cstdio>
#include <string>
#include <vector>

#include "core/hybrid_prng.hpp"
#include "listrank/hybrid_rank.hpp"
#include "listrank/list.hpp"
#include "listrank/wyllie.hpp"
#include "prng/registry.hpp"
#include "sim/device.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace hprng;
  util::Cli cli(argc, argv);
  const auto n = static_cast<std::uint32_t>(cli.get_u64("n", 200000));
  const std::uint64_t seed = cli.get_u64("seed", 7);
  const std::vector<std::string> unread = cli.unread();
  for (const std::string& key : unread) {
    std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
  }
  if (!unread.empty()) return 2;

  auto list_rng = prng::make_by_name("mt19937", seed);
  std::printf("building a random list of %u nodes...\n", n);
  const auto list = listrank::make_random_list(n, *list_rng);

  // 3-phase hybrid ranking with on-demand randomness (Algorithm 3).
  sim::Device dev;
  core::HybridPrngConfig cfg;
  cfg.walk_len = 8;  // coin flips need few mixing steps
  core::HybridPrng prng(dev, cfg);
  listrank::HybridListRanker ranker(
      dev, &prng, listrank::RngStrategy::kOnDemandHybrid, seed);

  util::WallTimer wall;
  const auto result = ranker.rank(list);
  std::printf("3-phase hybrid ranking:\n");
  std::printf("  phase I  (FIS reduce): %8.3f ms simulated, %d iterations, "
              "%u nodes left\n",
              result.reduce.sim_seconds * 1e3, result.reduce.iterations,
              result.reduce.remaining_nodes);
  std::printf("  phase II (base rank) : %8.3f ms simulated\n",
              result.phase2_sim_seconds * 1e3);
  std::printf("  phase III (reinsert) : %8.3f ms simulated\n",
              result.phase3_sim_seconds * 1e3);
  std::printf("  total                : %8.3f ms simulated "
              "(%.0f ms wall on this host)\n",
              result.total_sim_seconds() * 1e3, wall.millis());
  std::printf("  random words used / provisioned: %llu / %llu\n",
              static_cast<unsigned long long>(result.reduce.random_words_used),
              static_cast<unsigned long long>(
                  result.reduce.random_words_provisioned));

  // Cross-checks.
  const bool ok = listrank::verify_ranks(list, result.ranks);
  std::printf("ranks match sequential reference: %s\n", ok ? "YES" : "NO");

  // Independent cross-check with a second parallel algorithm.
  sim::Device dev2;
  const auto wyllie = listrank::wyllie_rank(dev2, list);
  std::printf("Wyllie pointer-jumping cross-check: %.3f ms simulated "
              "(%d rounds), ranks match: %s\n",
              wyllie.sim_seconds * 1e3, wyllie.iterations,
              wyllie.ranks == result.ranks ? "YES" : "NO");
  return ok ? 0 : 1;
}
