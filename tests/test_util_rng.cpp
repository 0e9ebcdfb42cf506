#include "util/rng.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/contracts.h"
#include "util/hash.h"
#include "util/stats.h"

namespace {

using mpsram::util::Rng;
using mpsram::util::Running_stats;

TEST(Rng, SameSeedSameStream)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_DOUBLE_EQ(a.normal(), b.normal());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.normal() == b.normal()) ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, ChildStreamsAreDeterministic)
{
    const Rng parent(42);
    Rng c1 = parent.child("extraction");
    Rng c2 = parent.child("extraction");
    for (int i = 0; i < 50; ++i) {
        EXPECT_DOUBLE_EQ(c1.normal(), c2.normal());
    }
}

TEST(Rng, ChildStreamsWithDifferentNamesDecorrelate)
{
    const Rng parent(42);
    Rng a = parent.child("a");
    Rng b = parent.child("b");

    std::vector<double> xs(4000);
    std::vector<double> ys(4000);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        xs[i] = a.normal();
        ys[i] = b.normal();
    }
    EXPECT_NEAR(mpsram::util::correlation(xs, ys), 0.0, 0.06);
}

TEST(Rng, NormalMoments)
{
    Rng rng(5);
    Running_stats s;
    for (int i = 0; i < 40000; ++i) s.add(rng.normal(2.0, 3.0));
    EXPECT_NEAR(s.mean(), 2.0, 0.06);
    EXPECT_NEAR(s.stddev(), 3.0, 0.06);
}

TEST(Rng, NormalZeroSigmaIsDeterministic)
{
    Rng rng(5);
    EXPECT_DOUBLE_EQ(rng.normal(7.0, 0.0), 7.0);
}

TEST(Rng, NormalRejectsNegativeSigma)
{
    Rng rng(5);
    EXPECT_THROW(rng.normal(0.0, -1.0), mpsram::util::Precondition_error);
}

class TruncatedNormalTest : public ::testing::TestWithParam<double> {};

TEST_P(TruncatedNormalTest, SamplesStayWithinBounds)
{
    const double k = GetParam();
    Rng rng(17);
    const double mean = 1.0;
    const double sigma = 0.5;
    for (int i = 0; i < 5000; ++i) {
        const double x = rng.truncated_normal(mean, sigma, k);
        EXPECT_GE(x, mean - k * sigma);
        EXPECT_LE(x, mean + k * sigma);
    }
}

INSTANTIATE_TEST_SUITE_P(TruncationWidths, TruncatedNormalTest,
                         ::testing::Values(1.0, 2.0, 3.0, 4.0));

TEST(Rng, TruncatedNormalZeroSigma)
{
    Rng rng(17);
    EXPECT_DOUBLE_EQ(rng.truncated_normal(3.0, 0.0, 3.0), 3.0);
}

TEST(Rng, UniformRange)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-2.0, 5.0);
        EXPECT_GE(x, -2.0);
        EXPECT_LT(x, 5.0);
    }
    EXPECT_THROW(rng.uniform(1.0, 1.0), mpsram::util::Precondition_error);
}

TEST(Rng, IndexRange)
{
    Rng rng(11);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 5000; ++i) {
        const auto idx = rng.index(10);
        ASSERT_LT(idx, 10u);
        ++seen[static_cast<std::size_t>(idx)];
    }
    for (int count : seen) EXPECT_GT(count, 300);  // roughly uniform
    EXPECT_THROW(rng.index(0), mpsram::util::Precondition_error);
}

TEST(RngStream, BitwiseDeterministicAtLargeIndices)
{
    // The counter-based substream contract the million-sample Monte-Carlo
    // tiers rely on: re-deriving the stream of any index — including far
    // past 10^6 — reproduces the identical draw sequence, independent of
    // what any other substream did in between.
    constexpr std::uint64_t seed = 20150609;
    for (const std::uint64_t index :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{999999},
          std::uint64_t{1000000}, std::uint64_t{10000000},
          std::uint64_t{1} << 40}) {
        Rng a = Rng::stream(seed, index);
        // Interleave unrelated work: burn draws on another substream.
        Rng noise = Rng::stream(seed, index + 7);
        for (int i = 0; i < 13; ++i) (void)noise.normal();
        Rng b = Rng::stream(seed, index);
        for (int i = 0; i < 20; ++i) {
            EXPECT_DOUBLE_EQ(a.normal(), b.normal()) << "index " << index;
        }
    }
}

TEST(RngStream, NeighborSubstreamsDecorrelateAtMillionIndices)
{
    // Substreams around index 10^6 behave like independent streams: the
    // first draw of stream i is uncorrelated with the first draw of
    // stream i+1, and their ensemble looks standard normal.
    constexpr std::uint64_t base = 1000000;
    constexpr int count = 4096;
    std::vector<double> first(count);
    Running_stats stats;
    for (int i = 0; i < count; ++i) {
        Rng rng = Rng::stream(42, base + static_cast<std::uint64_t>(i));
        first[static_cast<std::size_t>(i)] = rng.normal();
        stats.add(first[static_cast<std::size_t>(i)]);
    }
    EXPECT_NEAR(stats.mean(), 0.0, 0.06);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.06);
    std::vector<double> lagged(first.begin() + 1, first.end());
    first.pop_back();
    EXPECT_NEAR(mpsram::util::correlation(first, lagged), 0.0, 0.06);
}

TEST(RngStream, SeedsSeparateSubstreamFamilies)
{
    // Two different master seeds must not share substream draws even at
    // matching indices deep into the counter space.
    int same = 0;
    for (std::uint64_t i = 1000000; i < 1000100; ++i) {
        Rng a = Rng::stream(1, i);
        Rng b = Rng::stream(2, i);
        if (a.normal() == b.normal()) ++same;
    }
    EXPECT_EQ(same, 0);
}

// --- The engine: SplitMix64 on a Weyl counter --------------------------

TEST(RngEngine, SplitMix64KnownAnswers)
{
    // Reference SplitMix64 outputs (Vigna's splitmix64.c) for two keys:
    // Rng(key) emits exactly that sequence.
    const std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>>
        vectors = {
            {1234567,
             {6457827717110365317ULL, 3203168211198807973ULL,
              9817491932198370423ULL, 4593380528125082431ULL,
              16408922859458223821ULL}},
            {0,
             {16294208416658607535ULL, 7960286522194355700ULL,
              487617019471545679ULL}},
        };
    for (const auto& [key, outputs] : vectors) {
        Rng rng(key);
        for (const std::uint64_t want : outputs) {
            EXPECT_EQ(rng.next_u64(), want) << "key " << key;
        }
    }
}

TEST(RngEngine, OutputIsTheFinalizerAtTheCounter)
{
    // Output j of the stream keyed s is finalize(s + (j + 1) * gamma):
    // a counter-based generator, so any output is reachable directly.
    const std::uint64_t key = Rng::stream(20150609, 42).seed();
    Rng rng(key);
    for (std::uint64_t j = 0; j < 1000; ++j) {
        ASSERT_EQ(rng.next_u64(),
                  mpsram::util::splitmix64_finalize(
                      key + (j + 1) * mpsram::util::splitmix64_gamma))
            << "output " << j;
    }
}

TEST(RngEngine, CanonicalIsTheTop53Bits)
{
    Rng a(99);
    Rng b(99);
    for (int i = 0; i < 1000; ++i) {
        const double u = a.canonical();
        ASSERT_EQ(u, static_cast<double>(b.next_u64() >> 11) * 0x1.0p-53);
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(RngStream, KeyDerivationIsPinned)
{
    // Substream keys, recorded while the engine was still MT19937-64: the
    // key derivation did not change with the engine, only the draws made
    // from a key did.
    EXPECT_EQ(Rng::stream(20150609, 0).seed(), 18042156610644713828ULL);
    EXPECT_EQ(Rng::stream(20150609, 1).seed(), 18015720208123556437ULL);
    EXPECT_EQ(Rng::stream(20150609, std::uint64_t{1} << 40).seed(), 5857799421125516778ULL);
}

TEST(RngStream, ChildHashesTheNameWithFnv1a)
{
    // The child key depends only on this repo's FNV-1a, never on the
    // standard library's std::hash: mix64(seed ^ mix64(fnv1a(name))),
    // mix64(z) = finalize(z + gamma).
    const auto mix64 = [](std::uint64_t z) {
        return mpsram::util::splitmix64_finalize(
            z + mpsram::util::splitmix64_gamma);
    };
    for (const char* name : {"LE3", "SADP", "importance-tail", ""}) {
        EXPECT_EQ(Rng(20150609).child(name).seed(),
                  mix64(20150609 ^ mix64(mpsram::util::fnv1a(name))))
            << name;
    }
    EXPECT_EQ(Rng(20150609).child("LE3").seed(), 8751931444802302240ULL);
}

// --- Statistical checks: bands from the sample count alone ---------------

TEST(RngStatistics, NormalMeanAndVarianceWithinFiveStandardErrors)
{
    constexpr int n = 1000000;
    Rng rng(20150609);
    Running_stats s;
    for (int i = 0; i < n; ++i) s.add(rng.normal());
    // SE(mean) = 1/sqrt(n); SE(sample variance) = sqrt(2/(n-1)) for a
    // standard normal.
    const double se_mean = 1.0 / std::sqrt(static_cast<double>(n));
    const double se_var = std::sqrt(2.0 / static_cast<double>(n - 1));
    EXPECT_NEAR(s.mean(), 0.0, 5.0 * se_mean);
    EXPECT_NEAR(s.stddev() * s.stddev(), 1.0, 5.0 * se_var);
}

TEST(RngStatistics, TruncatedNormalStaysInsideTheBox)
{
    for (const double k : {0.5, 1.0, 3.0}) {
        Rng rng(7);
        for (int i = 0; i < 100000; ++i) {
            const double x = rng.truncated_normal(2.0, 0.25, k);
            ASSERT_GE(x, 2.0 - k * 0.25) << "k " << k;
            ASSERT_LE(x, 2.0 + k * 0.25) << "k " << k;
        }
    }
}

TEST(RngStatistics, UniformNeverReturnsHi)
{
    Rng rng(3);
    for (int i = 0; i < 100000; ++i) {
        const double x = rng.uniform(0.0, 1.0);
        ASSERT_GE(x, 0.0);
        ASSERT_LT(x, 1.0);
    }
    // Forced edge: a one-ulp range, where lo + (hi - lo) * u rounds up to
    // hi for about half of all u.  Every draw must still be lo.
    const double lo = 1.0;
    const double hi = std::nextafter(1.0, 2.0);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.uniform(lo, hi), lo);
    EXPECT_THROW(rng.uniform(-std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::max()),
                 mpsram::util::Precondition_error);
}

TEST(RngStatistics, IndexPassesChiSquare)
{
    constexpr std::uint64_t bins = 7;
    constexpr int n = 700000;
    Rng rng(11);
    std::vector<double> counts(bins, 0.0);
    for (int i = 0; i < n; ++i) {
        const std::uint64_t k = rng.index(bins);
        ASSERT_LT(k, bins);
        counts[static_cast<std::size_t>(k)] += 1.0;
    }
    const double expected = static_cast<double>(n) / bins;
    double chi2 = 0.0;
    for (const double c : counts) {
        chi2 += (c - expected) * (c - expected) / expected;
    }
    // 6 degrees of freedom: P(chi2 > 40) = e^-20 (1 + 20 + 200) ~ 5e-7.
    EXPECT_LT(chi2, 40.0);
}

TEST(RngStatistics, IndexHandlesRangesNearTwoToThe64)
{
    // n just above 2^63 rejects almost half of all outputs; the accepted
    // draws still land in range.
    const std::uint64_t n = (std::uint64_t{1} << 63) + 1;
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) ASSERT_LT(rng.index(n), n);
    EXPECT_EQ(rng.index(1), 0u);
}

TEST(RngStream, PinnedDrawsOfTheStudySeed)
{
    // First normals of Rng::stream(20150609, i), recorded from the
    // SplitMix64-backed Rng with its polar-method normal.  A change to the
    // engine or the transform that moves any draw moves every Monte-Carlo
    // result and cache entry, and fails here by name first.
    constexpr std::uint64_t seed = 20150609;
    const std::vector<std::pair<std::uint64_t, double>> pinned = {
        {0ULL, -0x1.4795edfd819efp+0},
        {1ULL, 0x1.cfec96cd1ab14p-2},
        {2ULL, -0x1.ccef14fa987d6p-1},
        {3ULL, -0x1.0a5bd2919b31ep+0},
        {999999ULL, -0x1.ee2696950f536p-3},
        {1000000ULL, -0x1.87307b393079p-7},
        {1ULL << 40, -0x1.aa870f0ef851p-2},
    };
    for (const auto& [index, want] : pinned) {
        Rng rng = Rng::stream(seed, index);
        EXPECT_EQ(rng.normal(), want) << "index " << index;
    }

    // Deeper draws of stream 0, spare normals included.
    Rng rng = Rng::stream(seed, 0);
    std::vector<double> draws(300);
    for (double& d : draws) d = rng.normal();
    EXPECT_EQ(draws[99], -0x1.417dee8f8145cp-1);
    EXPECT_EQ(draws[199], 0x1.7c7a94ba9b9c1p-3);
    EXPECT_EQ(draws[299], 0x1.1ae2b2baef4fbp+1);
}

} // namespace
