// Tests for the utility layer: PRNG, statistics, timer, table printer,
// FLOP counters.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <thread>

#include "la/flops.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace gofmm {
namespace {

TEST(Prng, DeterministicFromSeed) {
  Prng a(42);
  Prng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Prng c(43);
  bool differs = false;
  Prng a2(42);
  for (int i = 0; i < 10; ++i) differs |= (a2() != c());
  EXPECT_TRUE(differs);
}

TEST(Prng, UniformInRange) {
  Prng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Prng, BelowCoversSupport) {
  Prng rng(8);
  std::set<index_t> seen;
  for (int i = 0; i < 500; ++i) {
    const index_t v = rng.below(7);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(rng.below(0), 0);
}

TEST(Prng, NormalHasSaneMoments) {
  Prng rng(9);
  double sum = 0;
  double sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Stats, MeanStddevPercentile) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(TableTest, AlignsColumnsAndFormats) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(3.14159, 3)});
  t.add_row({"b", Table::sci(0.000123)});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("1E-04"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Flops, CostFormulas) {
  EXPECT_EQ(la::FlopCounter::gemm_flops(2, 3, 4), 48u);
  EXPECT_EQ(la::FlopCounter::qr_flops(10, 5, 3), 300u);
  EXPECT_EQ(la::FlopCounter::trsm_flops(4, 2), 32u);
}

TEST(Common, CeilDivAndRoundUp) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(round_up(10, 4), 12);
  EXPECT_EQ(round_up(8, 4), 8);
}

TEST(Common, RequireThrowsWithMessage) {
  EXPECT_NO_THROW(require(true, "ok"));
  try {
    require(false, "specific message");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "specific message");
  }
}

}  // namespace
}  // namespace gofmm
