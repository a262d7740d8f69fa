// Perf-baseline diff gate (bench/bench_diff.hpp; docs/PERFORMANCE.md §5):
// the flat-JSON parser must round-trip exactly what BenchJson writes
// (numbers, escaped strings, the null that non-finite values degrade to),
// and the threshold semantics must fail on collapses and on silently
// missing keys — never on healthy noise.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_diff.hpp"
#include "bench/common.hpp"

namespace {

using hprng::bench::BenchFields;
using hprng::bench::BenchJson;
using hprng::bench::diff_bench;
using hprng::bench::DiffResult;
using hprng::bench::format_report;
using hprng::bench::split_keys;

BenchFields fields_from(const std::string& text) {
  BenchFields f;
  EXPECT_TRUE(f.parse(text));
  return f;
}

TEST(BenchFieldsTest, ParsesWhatBenchJsonWrites) {
  BenchJson json;
  json.add("bench", std::string("serve_load"));
  json.add("simd_kernel", std::string("avx2"));
  json.add("wall_req_per_s", 11378.644830513864);
  json.add("clients", 8.0);
  json.add("broken_rate", std::numeric_limits<double>::quiet_NaN());
  json.add("quoted", std::string("a\"b\\c"));
  const std::string path = ::testing::TempDir() + "bench_diff_rt.json";
  ASSERT_TRUE(json.write(path));

  BenchFields f;
  ASSERT_TRUE(f.parse_file(path));
  EXPECT_EQ(f.text("bench"), "serve_load");
  EXPECT_EQ(f.text("simd_kernel"), "avx2");
  double v = 0.0;
  ASSERT_TRUE(f.number("wall_req_per_s", &v));
  EXPECT_DOUBLE_EQ(v, 11378.644830513864);  // %.17g round-trips exactly
  ASSERT_TRUE(f.number("clients", &v));
  EXPECT_EQ(v, 8.0);
  EXPECT_FALSE(f.number("broken_rate", &v)) << "null must not parse";
  EXPECT_FALSE(f.number("bench", &v)) << "strings are not numbers";
  EXPECT_EQ(f.text("quoted"), "a\"b\\c");
  EXPECT_TRUE(f.has("broken_rate"));
  EXPECT_FALSE(f.has("absent"));
  std::remove(path.c_str());
}

TEST(BenchFieldsTest, RejectsNonFlatText) {
  BenchFields f;
  EXPECT_FALSE(f.parse("{\n  nested: {\n}\n"));
  EXPECT_FALSE(f.parse_file("/nonexistent/bench.json"));
  EXPECT_TRUE(f.parse(""));  // empty artifact parses to zero fields
  EXPECT_TRUE(f.fields().empty());
}

TEST(SplitKeysTest, SplitsAndDropsEmptySegments) {
  EXPECT_EQ(split_keys("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_keys(",a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_keys("").empty());
}

TEST(DiffBenchTest, HealthyNoisePassesCollapseFails) {
  const BenchFields base = fields_from(
      "{\n  \"req_per_s\": 1000,\n  \"words_per_s\": 50000\n}\n");
  // 20% down on one key, 5x up on the other: noise, not a collapse.
  const BenchFields noisy = fields_from(
      "{\n  \"req_per_s\": 800,\n  \"words_per_s\": 250000\n}\n");
  DiffResult r =
      diff_bench(base, noisy, {"req_per_s", "words_per_s"}, 0.1);
  EXPECT_FALSE(r.regressed());
  ASSERT_EQ(r.entries.size(), 2u);
  EXPECT_DOUBLE_EQ(r.entries[0].ratio, 0.8);
  EXPECT_DOUBLE_EQ(r.entries[1].ratio, 5.0);

  // A 20x collapse on one key trips the gate even with the other healthy.
  const BenchFields collapsed = fields_from(
      "{\n  \"req_per_s\": 50,\n  \"words_per_s\": 50000\n}\n");
  r = diff_bench(base, collapsed, {"req_per_s", "words_per_s"}, 0.1);
  EXPECT_TRUE(r.regressed());
  EXPECT_TRUE(r.entries[0].regressed);
  EXPECT_FALSE(r.entries[1].regressed);

  // Exactly at the threshold passes (>= min_ratio).
  const BenchFields at = fields_from("{\n  \"req_per_s\": 100\n}\n");
  EXPECT_FALSE(diff_bench(base, at, {"req_per_s"}, 0.1).regressed());
}

TEST(DiffBenchTest, MissingOrUnusableKeysRegress) {
  const BenchFields base =
      fields_from("{\n  \"req_per_s\": 1000,\n  \"bad\": 0\n}\n");
  const BenchFields cur =
      fields_from("{\n  \"req_per_s\": null\n}\n");
  // Key null in current, key absent from both, key with a zero baseline:
  // every one must fail loudly instead of silently skipping the gate.
  const DiffResult r =
      diff_bench(base, cur, {"req_per_s", "ghost", "bad"}, 0.1);
  ASSERT_EQ(r.entries.size(), 3u);
  EXPECT_TRUE(r.entries[0].regressed);
  EXPECT_TRUE(r.entries[1].regressed);
  EXPECT_TRUE(r.entries[2].regressed);
  EXPECT_NE(r.entries[0].note.find("current"), std::string::npos);
  EXPECT_NE(r.entries[1].note.find("baseline"), std::string::npos);
}

TEST(DiffBenchTest, ReportNamesEveryKeyAndTheVerdict) {
  const BenchFields base = fields_from("{\n  \"req_per_s\": 1000\n}\n");
  const BenchFields cur = fields_from("{\n  \"req_per_s\": 900\n}\n");
  const DiffResult ok = diff_bench(base, cur, {"req_per_s"}, 0.1);
  const std::string good = format_report("base.json", "cur.json", ok, 0.1);
  EXPECT_NE(good.find("req_per_s"), std::string::npos);
  EXPECT_NE(good.find("verdict: ok"), std::string::npos);

  const DiffResult bad = diff_bench(base, cur, {"ghost"}, 0.1);
  const std::string fail =
      format_report("base.json", "cur.json", bad, 0.1);
  EXPECT_NE(fail.find("[FAIL]"), std::string::npos);
  EXPECT_NE(fail.find("verdict: REGRESSED"), std::string::npos);
}

TEST(DiffBenchTest, CommittedBaselinesAreParseableAndGateable) {
  // The real committed artifacts must stay in the dialect the gate reads:
  // this is the test that breaks when someone hand-edits a baseline into
  // nested JSON.
  const std::string dir = std::string(HPRNG_SOURCE_DIR) + "/bench/baselines/";
  for (const auto& [file, key] :
       std::vector<std::pair<std::string, std::string>>{
           {"BENCH_net.json", "wall_req_per_s"},
           {"BENCH_serve.json", "wall_req_per_s"},
           {"BENCH_throughput.json", "wall_numbers_per_s"}}) {
    BenchFields f;
    ASSERT_TRUE(f.parse_file(dir + file)) << file;
    // Every baseline gates against itself at ratio 1.0.
    const DiffResult self = diff_bench(f, f, {key}, 1.0);
    EXPECT_FALSE(self.regressed()) << file << " key " << key;
  }
}

// The flag helpers the serving binaries share (bench/common.hpp).
hprng::util::Cli cli_of(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return hprng::util::Cli(static_cast<int>(args.size()),
                          const_cast<char**>(args.data()));
}

TEST(BenchFlagsTest, ServiceShapeSizesDefaultSlotsForTheLeaseDemand) {
  using hprng::bench::read_service_shape;
  hprng::serve::ServiceOptions opts;
  ASSERT_TRUE(read_service_shape(
      cli_of({"--backend=cpu-walk", "--shards=3", "--walk-len=32"}), 7,
      &opts));
  EXPECT_EQ(opts.backend, "cpu-walk");
  EXPECT_EQ(opts.num_shards, 3);
  EXPECT_EQ(opts.max_leases_per_shard, 3u);  // 7 leases over 3 shards
  EXPECT_EQ(opts.walk_len, 32);

  hprng::serve::ServiceOptions fixed;
  fixed.max_leases_per_shard = 16;
  ASSERT_TRUE(read_service_shape(cli_of({"--shards=2"}), 0, &fixed));
  EXPECT_EQ(fixed.max_leases_per_shard, 16u);  // demand 0 keeps the count
  ASSERT_TRUE(read_service_shape(cli_of({"--slots=5"}), 100, &fixed));
  EXPECT_EQ(fixed.max_leases_per_shard, 5u);

  EXPECT_FALSE(read_service_shape(cli_of({"--backend=nope"}), 1, &opts));
}

TEST(BenchFlagsTest, FaultPlanAndUnreadFlagsAreChecked) {
  std::optional<hprng::fault::Injector> injector;
  ASSERT_TRUE(hprng::bench::read_fault_plan(cli_of({}), &injector));
  EXPECT_FALSE(injector.has_value());
  ASSERT_TRUE(hprng::bench::read_fault_plan(
      cli_of({"--fault-plan=shard:1:fail:0:4"}), &injector));
  ASSERT_TRUE(injector.has_value());
  EXPECT_EQ(injector->plan().to_string(), "shard:1:fail:0:4");
  std::optional<hprng::fault::Injector> bad;
  EXPECT_FALSE(hprng::bench::read_fault_plan(
      cli_of({"--fault-plan=shard:x"}), &bad));
  EXPECT_FALSE(bad.has_value());

  // What every strict binary does after its last flag read.
  const hprng::util::Cli cli = cli_of({"--n=4", "--bogus-flag"});
  EXPECT_EQ(cli.get_u64("n", 0), 4u);
  EXPECT_FALSE(hprng::bench::reject_unread_flags(cli));
  EXPECT_TRUE(cli.has("bogus-flag"));
  EXPECT_TRUE(hprng::bench::reject_unread_flags(cli));
}

}  // namespace
