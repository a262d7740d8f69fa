// bench_diff: the CI perf-regression gate (docs/PERFORMANCE.md §5).
//
//   bench_diff --baseline=bench/baselines/BENCH_serve.json
//              --current=BENCH_serve.json
//              --keys=wall_req_per_s,wall_words_per_s
//              --min-ratio=0.1 [--report=diff.txt]
//
// Exit codes: 0 = every key within threshold, 1 = regression (ratio below
// --min-ratio, or a gated key missing / non-finite in either artifact),
// 2 = usage or IO error. The default --min-ratio=0.1 is the collapse
// detector CI runs with; pass a tighter ratio for local A/B comparisons.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_diff.hpp"
#include "bench/common.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const hprng::util::Cli cli(argc, argv);
  const std::string baseline_path = cli.get_string("baseline", "");
  const std::string current_path = cli.get_string("current", "");
  const std::vector<std::string> keys =
      hprng::bench::split_keys(cli.get_string("keys", ""));
  const double min_ratio = cli.get_double("min-ratio", 0.1);
  const std::string report_path = cli.get_string("report", "");
  if (!hprng::bench::reject_unread_flags(cli)) return 2;

  if (baseline_path.empty() || current_path.empty() || keys.empty()) {
    std::fprintf(stderr,
                 "usage: bench_diff --baseline=<json> --current=<json> "
                 "--keys=<k1,k2,...> [--min-ratio=0.1] [--report=<path>]\n");
    return 2;
  }

  hprng::bench::BenchFields baseline;
  if (!baseline.parse_file(baseline_path)) {
    std::fprintf(stderr, "bench_diff: cannot parse baseline %s\n",
                 baseline_path.c_str());
    return 2;
  }
  hprng::bench::BenchFields current;
  if (!current.parse_file(current_path)) {
    std::fprintf(stderr, "bench_diff: cannot parse current %s\n",
                 current_path.c_str());
    return 2;
  }

  const hprng::bench::DiffResult result =
      hprng::bench::diff_bench(baseline, current, keys, min_ratio);
  const std::string report = hprng::bench::format_report(
      baseline_path, current_path, result, min_ratio);
  std::fputs(report.c_str(), stdout);

  if (!report_path.empty()) {
    std::FILE* f = std::fopen(report_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_diff: cannot write %s\n",
                   report_path.c_str());
      return 2;
    }
    std::fputs(report.c_str(), f);
    std::fclose(f);
  }
  return result.regressed() ? 1 : 0;
}
