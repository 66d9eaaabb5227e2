/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/domain.hh"
#include "sim/stats.hh"

using namespace barre;

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Accumulator, TracksMoments)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 12.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
}

TEST(Accumulator, HandlesNegativeValues)
{
    Accumulator a;
    a.sample(-5.0);
    a.sample(5.0);
    EXPECT_DOUBLE_EQ(a.min(), -5.0);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(StatRegistry, DumpKeepsRegistrationOrder)
{
    StatRegistry reg;
    Counter b, a;
    Accumulator lat;
    TagCounter t;
    ++a;
    b += 2;
    lat.sample(1.0);
    lat.sample(4.0);
    t += 7;
    reg.add("zeta", b);
    reg.add("alpha", a);
    reg.addMean("lat", lat);
    reg.add("tagged", t);
    reg.add("sum", [&] { return a.value() + b.value(); });
    std::ostringstream os;
    reg.dump(os);
    EXPECT_EQ(os.str(), "zeta 2\nalpha 1\nlat 2.5\ntagged 7\nsum 3\n");
    EXPECT_EQ(reg.count("zeta"), 2u);
    EXPECT_EQ(reg.count("sum"), 3u);
    EXPECT_DOUBLE_EQ(reg.mean("lat"), 2.5);
}

TEST(StatRegistry, DuplicateNamePanics)
{
    StatRegistry reg;
    Counter c;
    Accumulator a;
    reg.add("x", c);
    EXPECT_THROW(reg.add("x", c), std::logic_error);
    EXPECT_THROW(reg.addMean("x", a), std::logic_error);
}

TEST(StatRegistry, UnregisteredLookupPanics)
{
    StatRegistry reg;
    Counter c;
    Accumulator a;
    reg.add("gpu0.misses", c);
    reg.addMean("lat", a);
    EXPECT_FALSE(reg.contains("gpu0.mises"));
    EXPECT_THROW(reg.count("gpu0.mises"), std::logic_error);
    EXPECT_THROW(reg.count("misses"), std::logic_error);
    EXPECT_THROW(reg.mean("lat2"), std::logic_error);
    // A count is not a mean and vice versa.
    EXPECT_THROW(reg.count("lat"), std::logic_error);
    EXPECT_THROW(reg.mean("gpu0.misses"), std::logic_error);
}

TEST(StatRegistry, WildcardSumsEveryIndex)
{
    StatRegistry reg;
    Counter c0, c1, c10, other;
    c0 += 1;
    c1 += 2;
    c10 += 4;
    other += 8;
    reg.add("gpu0.misses", c0);
    reg.add("gpu1.misses", c1);
    reg.add("gpu10.misses", c10);
    reg.add("gpu1.hits", other);
    reg.add("gpux.misses", other);
    EXPECT_TRUE(reg.contains("gpu*.misses"));
    EXPECT_EQ(reg.count("gpu*.misses"), 7u);
    EXPECT_EQ(reg.count("gpu*.hits"), 8u);
    EXPECT_FALSE(reg.contains("cpu*.misses"));
    EXPECT_THROW(reg.count("gpu*.evictions"), std::logic_error);
}

TEST(StatRegistry, ShardReachesEveryTagCounter)
{
    StatRegistry reg;
    TagCounter a, b;
    Counter c;
    reg.add("a", a);
    reg.add("c", c);
    reg.add("b", b);
    reg.shard(3);

    const ExecCtx saved = detail::tls_exec;
    detail::tls_exec.tag = 2;
    ++a;
    b += 5;
    // Three shards now, so a bump from tag 3 is out of range.
    detail::tls_exec.tag = 3;
    EXPECT_THROW(++a, std::logic_error);
    EXPECT_THROW(++b, std::logic_error);
    detail::tls_exec = saved;
    EXPECT_EQ(reg.count("a"), 1u);
    EXPECT_EQ(reg.count("b"), 5u);
}
