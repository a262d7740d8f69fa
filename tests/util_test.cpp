#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace hprng::util {
namespace {

TEST(Table, AlignsColumnsAndCounts) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "123456"});
  EXPECT_EQ(t.num_rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("123456"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, CsvRendering) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Strf, FormatsLikePrintf) {
  EXPECT_EQ(strf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strf("%.2f", 1.005), "1.00");
  // Long outputs are not truncated.
  const std::string big = strf("%0128d", 7);
  EXPECT_EQ(big.size(), 128u);
}

TEST(Cli, ParsesFlags) {
  const char* argv[] = {"prog", "--n=100", "--ratio=0.5", "--name=mt19937",
                        "--verbose"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_u64("n", 0), 100u);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 0.5);
  EXPECT_EQ(cli.get_string("name", ""), "mt19937");
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_FALSE(cli.get_bool("quiet", false));
  EXPECT_EQ(cli.get_u64("missing", 7), 7u);
  EXPECT_TRUE(cli.has("n"));
  EXPECT_FALSE(cli.has("m"));
}

TEST(ThreadPool, InlineModeRunsEverything) {
  ThreadPool pool(0);
  int counter = 0;
  pool.submit([&] { ++counter; });
  pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter, 2);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  for (std::size_t workers : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, 1000,
                      [&](std::uint64_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

// parallel_for's completion latch lives on the caller's stack and dies as
// soon as the call returns. Thousands of short back-to-back calls give a
// late-finishing task every chance to touch a dead frame; the TSan CI leg
// runs this.
TEST(ThreadPool, BackToBackParallelForsNeverTouchAReturnedFrame) {
  constexpr std::uint64_t kCalls = 5000;
  for (std::size_t workers : {std::size_t{3}, std::size_t{8}}) {
    ThreadPool pool(workers);
    const std::uint64_t n = 2 * workers;
    std::uint64_t total = 0;
    for (std::uint64_t call = 0; call < kCalls; ++call) {
      std::vector<std::uint64_t> out(n);
      pool.parallel_for(0, n, [&](std::uint64_t i) { out[i] = i + 1; });
      total += std::accumulate(out.begin(), out.end(), std::uint64_t{0});
    }
    EXPECT_EQ(total, kCalls * n * (n + 1) / 2) << workers << " workers";
  }
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SubmitFromWorkers) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(WallTimer, MeasuresForwardTime) {
  WallTimer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace hprng::util
