/** @file Unit tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include "sim/random.hh"

using namespace microlib;

TEST(Random, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    unsigned same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3u);
}

TEST(Random, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Random, BoundedCoversRange)
{
    Rng rng(7);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.nextBounded(8)];
    for (int count : seen)
        EXPECT_GT(count, 800); // roughly uniform
}

TEST(Random, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Random, GeometricMeanApproximately)
{
    Rng rng(11);
    const double target = 5.0;
    double sum = 0.0;
    const int n = 20000;
    const Geometric draw(target);
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(draw(rng));
    EXPECT_NEAR(sum / n, target, 0.5);
}

TEST(Random, GeometricNeverZero)
{
    Rng rng(13);
    const Geometric draw(1.5);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(draw(rng), 1u);
}

class RandomChanceTest : public ::testing::TestWithParam<double>
{
};

TEST_P(RandomChanceTest, ChanceMatchesProbability)
{
    const double p = GetParam();
    Rng rng(17);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(p) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, RandomChanceTest,
                         ::testing::Values(0.0, 0.1, 0.35, 0.5, 0.85,
                                           1.0));
