// The theory behind the paper's construction (Sec. IV-C): expander walks
// recycle randomness. A randomized procedure erring on a beta fraction of
// its 64-bit seed space is amplified by majority voting over k runs; k
// positions of ONE expander walk achieve almost the error decay of k
// independent seeds at a fraction of the random bits.
//
// Usage: ./build/examples/probability_amplification [--beta=0.2]
//        [--trials=20000] [--steps=16]

#include <cstdio>
#include <string>
#include <vector>

#include "expander/amplifier.hpp"
#include "prng/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hprng;
  util::Cli cli(argc, argv);
  const double beta = cli.get_double("beta", 0.2);
  const int trials = static_cast<int>(cli.get_u64("trials", 20000));
  const int steps = static_cast<int>(cli.get_u64("steps", 16));
  const std::vector<std::string> unread = cli.unread();
  for (const std::string& key : unread) {
    std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
  }
  if (!unread.empty()) return 2;

  std::printf("bad-set density beta = %.2f, %d trials, %d walk steps "
              "between samples\n\n",
              beta, trials, steps);

  auto rng = prng::make_by_name("mt19937", 20120707);
  util::Table t({"k (votes)", "independent err", "indep bits",
                 "walk err", "walk bits", "bit savings"});
  for (int k : {1, 3, 5, 9, 15, 25}) {
    const auto ind =
        expander::amplify_independent(*rng, beta, k, trials);
    const auto wlk =
        expander::amplify_walk(*rng, beta, k, steps, trials);
    t.add_row(
        {util::strf("%d", k), util::strf("%.5f", ind.failure_rate),
         util::strf("%llu",
                    static_cast<unsigned long long>(ind.bits_per_trial)),
         util::strf("%.5f", wlk.failure_rate),
         util::strf("%llu",
                    static_cast<unsigned long long>(wlk.bits_per_trial)),
         util::strf("%.1fx", static_cast<double>(ind.bits_per_trial) /
                                 static_cast<double>(wlk.bits_per_trial))});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf(
      "\nboth columns decay exponentially in k (expander Chernoff bound); "
      "the walk\npays ~%d x 3 bits per extra vote instead of 64.\n",
      steps);
  return 0;
}
