/**
 * @file
 * Unit tests for the util module: Rng, stats, tables, options, strings.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "topo/util/error.hh"
#include "topo/util/options.hh"
#include "topo/util/rng.hh"
#include "topo/util/stats.hh"
#include "topo/util/string_utils.hh"
#include "topo/util/table.hh"

namespace topo
{
namespace
{

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowZeroThrows)
{
    Rng rng(1);
    EXPECT_THROW(rng.nextBelow(0), TopoError);
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const std::int64_t v = rng.nextInRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    RunningStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(rng.nextGaussian());
    EXPECT_NEAR(stats.mean(), 0.0, 0.03);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, LogNormalIsPositive)
{
    Rng rng(17);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GT(rng.nextLogNormal(0.0, 2.0), 0.0);
}

TEST(Rng, BoolExtremes)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, BoolProbability)
{
    Rng rng(23);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic)
{
    Rng base(31);
    Rng c1 = base.split(0);
    Rng c2 = base.split(1);
    Rng c1_again = Rng(31).split(0);
    EXPECT_EQ(c1.next(), c1_again.next());
    EXPECT_NE(c1.next(), c2.next());
}

TEST(Rng, ShufflePermutes)
{
    Rng rng(37);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> orig = v;
    rng.shuffle(v);
    std::vector<int> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, orig);
}

TEST(Rng, FingerprintMixKnownVectors)
{
    // SplitMix64's first output from seed 0, then one more fold. Store
    // ids (and so bit-identical stores across reproducible runs) hang
    // on these exact values.
    EXPECT_EQ(fingerprintMix(0, 0), 0xE220A8397B1DCDAFULL);
    EXPECT_EQ(fingerprintMix(0xE220A8397B1DCDAFULL, 1),
              0x2A98F501AF37E97FULL);
}

TEST(Stats, RunningBasics)
{
    RunningStats s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(Stats, PercentileInterpolates)
{
    std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
}

TEST(Stats, PercentileRejectsBadInput)
{
    EXPECT_THROW(percentile({}, 50.0), TopoError);
    EXPECT_THROW(percentile({1.0}, 101.0), TopoError);
}

TEST(Stats, PearsonPerfectCorrelation)
{
    std::vector<double> xs{1, 2, 3, 4, 5};
    std::vector<double> ys{2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
    std::vector<double> neg{10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVariance)
{
    std::vector<double> xs{1, 1, 1};
    std::vector<double> ys{1, 2, 3};
    EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, LeastSquaresRecoversLine)
{
    std::vector<double> xs{0, 1, 2, 3};
    std::vector<double> ys{1, 3, 5, 7}; // y = 2x + 1
    const LinearFit fit = leastSquares(xs, ys);
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.offset, 1.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, EmpiricalCdfSortedAndNormalised)
{
    const auto cdf = empiricalCdf({3.0, 1.0, 2.0});
    ASSERT_EQ(cdf.size(), 3u);
    EXPECT_DOUBLE_EQ(cdf[0].first, 1.0);
    EXPECT_DOUBLE_EQ(cdf[2].first, 3.0);
    EXPECT_DOUBLE_EQ(cdf[2].second, 1.0);
    EXPECT_NEAR(cdf[0].second, 1.0 / 3.0, 1e-12);
}

TEST(Table, RendersAlignedText)
{
    TextTable t({"a", "bb"});
    t.addRow({"1", "2"});
    std::ostringstream oss;
    t.render(oss, "title");
    const std::string out = oss.str();
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("bb"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 1u);
}

TEST(Table, RowWidthChecked)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), TopoError);
}

TEST(Table, CsvQuoting)
{
    TextTable t({"x"});
    t.addRow({"a,b\"c"});
    std::ostringstream oss;
    t.renderCsv(oss);
    EXPECT_NE(oss.str().find("\"a,b\"\"c\""), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtPercent(0.0486), "4.86%");
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtBytes(2048), "2 K");
    EXPECT_EQ(fmtCount(1500), "1.5 K");
    EXPECT_EQ(fmtCount(33000000), "33.0 M");
}

TEST(Options, ParsesFlagsAndValues)
{
    const char *argv[] = {"prog", "--alpha=3", "--flag", "--name=x"};
    const Options opts = Options::parse(4, argv);
    EXPECT_EQ(opts.getInt("alpha", 0), 3);
    EXPECT_TRUE(opts.getBool("flag", false));
    EXPECT_EQ(opts.getString("name", ""), "x");
    EXPECT_EQ(opts.getInt("missing", 7), 7);
}

TEST(Options, RejectsPositional)
{
    const char *argv[] = {"prog", "oops"};
    EXPECT_THROW(Options::parse(2, argv), TopoError);
}

TEST(Options, HelpDetected)
{
    const char *argv[] = {"prog", "--help"};
    EXPECT_TRUE(Options::parse(2, argv).helpRequested());
}

TEST(Options, BadNumbersThrow)
{
    Options opts;
    opts.set("n", "abc");
    EXPECT_THROW(opts.getInt("n", 0), TopoError);
    EXPECT_THROW(opts.getDouble("n", 0.0), TopoError);
    opts.set("b", "maybe");
    EXPECT_THROW(opts.getBool("b", false), TopoError);
}

TEST(Strings, SplitAndTrim)
{
    const auto fields = split("a,,b", ',');
    ASSERT_EQ(fields.size(), 3u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[2], "b");
    EXPECT_EQ(trim("  x \t"), "x");
    EXPECT_EQ(trim(""), "");
}

TEST(Strings, ParseIntSuffixes)
{
    EXPECT_EQ(parseInt("2K", "t"), 2000);
    EXPECT_EQ(parseInt("3M", "t"), 3000000);
    EXPECT_EQ(parseInt("-5", "t"), -5);
    EXPECT_THROW(parseInt("1.5", "t"), TopoError);
    EXPECT_THROW(parseInt("", "t"), TopoError);
}

TEST(Strings, ParseDouble)
{
    EXPECT_DOUBLE_EQ(parseDouble("0.25", "t"), 0.25);
    EXPECT_THROW(parseDouble("x", "t"), TopoError);
}

} // namespace
} // namespace topo
