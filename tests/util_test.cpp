#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/table.hpp"
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

TEST(Cli, UnreadNamesFlagsNoLookupAskedFor) {
  // The misspelled window flag must show up, not silently run the default.
  const char* argv[] = {"prog", "--clients=1", "--inflght=4", "--n=16",
                        "--open-loop", "--zeta"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.unread(), (std::vector<std::string>{
                              "clients", "inflght", "n", "open-loop", "zeta"}));
  EXPECT_EQ(cli.get_u64("clients", 8), 1u);
  EXPECT_EQ(cli.get_u64("inflight", 1), 1u);  // asked for, never given
  EXPECT_EQ(cli.get_double("n", 0.0), 16.0);
  EXPECT_TRUE(cli.has("open-loop"));
  EXPECT_EQ(cli.unread(), (std::vector<std::string>{"inflght", "zeta"}));
  EXPECT_TRUE(cli.get_bool("zeta", false));  // a bare flag reads "true"
  EXPECT_EQ(cli.get_string("inflght", ""), "4");
  EXPECT_TRUE(cli.unread().empty());
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
