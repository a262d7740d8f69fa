// Extended quality battery: the structural tests (linear complexity via
// Berlekamp-Massey, autocorrelation, serial) that mechanistically explain
// the paper's Table III — the real TestU01 Crush/BigCrush failures of
// Mersenne-Twister-class generators are exactly F2-linearity catches, and
// here MT19937 is pinned at its 19937-bit state while the hybrid walk,
// MWC-carry and Philox streams sail through.

#include <cstdio>

#include "bench/common.hpp"
#include "core/quality_streams.hpp"
#include "stat/battery.hpp"
#include "stat/extended.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hprng;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t seed = cli.get_u64("seed", 20120707);

  bench::banner(
      "Extended battery — structural tests beyond the paper's line-up",
      "(companion to Table III) MT-class generators fail linearity tests "
      "at scale; the hybrid expander walk is not F2-linear",
      "linear complexity (NIST blocks + 50k-bit long block), "
      "autocorrelation, serial");

  const auto battery = stat::extended_battery();
  util::Table t({"generator", "passed", "L (50k-bit block)",
                 "expected L (random)"});
  int mt_passed = 5, hybrid_passed = 0;
  for (const char* name :
       {"hybrid-prng", "mt19937", "xorwow", "mwc", "philox4x32-10",
        "glibc-rand"}) {
    auto g = core::make_quality_generator(name, seed);
    const auto report =
        stat::run_battery("extended", battery, *g, 1e-4, 1.0 - 1e-4);
    double long_L = 0.0;
    for (const auto& r : report.results) {
      if (r.name == "linear-complexity-long") long_L = r.statistic;
    }
    t.add_row({name, report.summary(), util::strf("%.0f", long_L),
               "~25000"});
    if (std::string(name) == "mt19937") mt_passed = report.num_passed();
    if (std::string(name) == "hybrid-prng") {
      hybrid_passed = report.num_passed();
    }
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\nMT19937's 50k-bit-per-output-bit stream is pinned at "
              "linear complexity 19937 (its state size);\nthis is the "
              "mechanism behind its real-TestU01 BigCrush failures "
              "(Table III, paper row 'M.Twister 13/15').\n");

  const bool shape = hybrid_passed == 5 && mt_passed <= 4;
  if (!bench::reject_unread_flags(cli)) return 2;
  bench::verdict(shape,
                 "hybrid passes all five statistics; MT19937 fails the "
                 "long-block linear complexity");
  return shape ? 0 : 1;
}
