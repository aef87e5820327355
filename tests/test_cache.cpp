/**
 * @file
 * Tests for the Cache level: VIPT indexing, counters, flush, and the
 * AMD way-predictor integration.
 */

#include <gtest/gtest.h>

#include "sim/cache.hpp"
#include "sim/way_predictor.hpp"

using namespace lruleak::sim;

namespace {

Cache
makeL1(ReplPolicyKind kind = ReplPolicyKind::TreePlru,
       bool way_predictor = false)
{
    return Cache(CacheConfig::intelL1d(kind), PlMode::Disabled,
                 way_predictor);
}

} // namespace

TEST(CacheConfigTest, GeometryDerivation)
{
    const auto cfg = CacheConfig::intelL1d();
    EXPECT_EQ(cfg.numSets(), 64u);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(CacheConfigTest, RejectsNonPowerOfTwo)
{
    CacheConfig cfg;
    cfg.size_bytes = 3000;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    EXPECT_THROW({ Cache bad(cfg); }, std::invalid_argument);
}

TEST(CacheTest, VirtualIndexPhysicalTag)
{
    auto cache = makeL1();
    // Same paddr accessed through two vaddrs with equal page-offset bits
    // must land in the same set and hit.
    const Addr paddr = 0x1234'0040;
    const MemRef a{0x5000'0040, paddr, 0, false};
    const MemRef b{0x9999'0040, paddr, 1, false};
    EXPECT_FALSE(cache.access(a).hit);
    EXPECT_TRUE(cache.access(b).hit);
}

TEST(CacheTest, DifferentSetsDoNotConflict)
{
    auto cache = makeL1();
    // Fill set 0 to capacity; set 1 lines must be untouched.
    const AddressLayout &layout = cache.layout();
    for (std::uint32_t i = 0; i < 8; ++i)
        cache.access(MemRef::load(lineInSet(layout, 1, i)));
    for (std::uint32_t i = 0; i < 64; ++i)
        cache.access(MemRef::load(lineInSet(layout, 0, i)));
    for (std::uint32_t i = 0; i < 8; ++i)
        EXPECT_TRUE(cache.contains(MemRef::load(lineInSet(layout, 1, i))));
}

TEST(CacheTest, CountersSplitPerThread)
{
    auto cache = makeL1();
    cache.access(MemRef::load(0x40, 0)); // miss
    cache.access(MemRef::load(0x40, 0)); // hit
    cache.access(MemRef::load(0x40, 1)); // hit
    EXPECT_EQ(cache.counters().forThread(0).accesses, 2u);
    EXPECT_EQ(cache.counters().forThread(0).misses, 1u);
    EXPECT_EQ(cache.counters().forThread(1).hits, 1u);
    EXPECT_EQ(cache.counters().total().accesses, 3u);
}

TEST(CacheTest, FlushRemovesLine)
{
    auto cache = makeL1();
    const auto ref = MemRef::load(0x7c0);
    cache.access(ref);
    EXPECT_TRUE(cache.flush(ref));
    EXPECT_FALSE(cache.contains(ref));
    EXPECT_FALSE(cache.flush(ref));
}

TEST(CacheTest, EvictedLineAddressIsReconstructed)
{
    auto cache = makeL1();
    const AddressLayout &layout = cache.layout();
    for (std::uint32_t i = 0; i < 8; ++i)
        cache.access(MemRef::load(lineInSet(layout, 5, i)));
    const auto res = cache.access(MemRef::load(lineInSet(layout, 5, 8)));
    ASSERT_TRUE(res.evicted_line.has_value());
    EXPECT_EQ(layout.setIndex(*res.evicted_line), 5u);
    EXPECT_EQ(*res.evicted_line, lineInSet(layout, 5, 0));
}

TEST(CacheTest, ResetClearsContentsAndCounters)
{
    auto cache = makeL1();
    cache.access(MemRef::load(0x40));
    cache.reset();
    EXPECT_FALSE(cache.contains(MemRef::load(0x40)));
    EXPECT_EQ(cache.counters().total().accesses, 0u);
}

TEST(CacheTest, PerSetPolicySeedsDiffer)
{
    // Random-policy sets must not evict in lockstep.
    CacheConfig cfg = CacheConfig::intelL1d(ReplPolicyKind::Random);
    Cache cache(cfg);
    const AddressLayout &layout = cache.layout();
    // Fill two sets, then force one eviction in each.
    std::uint32_t victims[2] = {};
    for (std::uint32_t s = 0; s < 2; ++s) {
        for (std::uint32_t i = 0; i < 8; ++i)
            cache.access(MemRef::load(lineInSet(layout, s, i)));
        victims[s] = cache.access(
            MemRef::load(lineInSet(layout, s, 8))).way;
    }
    // Weak check: over many sets, victim ways must not all be equal.
    bool differ = victims[0] != victims[1];
    for (std::uint32_t s = 2; s < 16 && !differ; ++s) {
        for (std::uint32_t i = 0; i < 8; ++i)
            cache.access(MemRef::load(lineInSet(layout, s, i)));
        differ = cache.access(MemRef::load(lineInSet(layout, s, 8))).way !=
                 victims[0];
    }
    EXPECT_TRUE(differ);
}

// ----------------------------------------------------- way predictor

TEST(WayPredictorTest, SameVaddrSameUtag)
{
    EXPECT_EQ(WayPredictor::utag(0x1000), WayPredictor::utag(0x1000));
    // Same line, different offset: same utag.
    EXPECT_EQ(WayPredictor::utag(0x1000), WayPredictor::utag(0x103f));
}

TEST(WayPredictorTest, DistinctVaddrsUsuallyDiffer)
{
    int collisions = 0;
    const Addr base = 0x4000'0000;
    for (int i = 1; i <= 200; ++i) {
        if (WayPredictor::utag(base) ==
            WayPredictor::utag(base + static_cast<Addr>(i) * 0x10000))
            ++collisions;
    }
    // 8-bit utag: expect ~200/256 < 5 collisions on average.
    EXPECT_LT(collisions, 10);
}

TEST(CacheTest, UtagMismatchOnVaddrAlias)
{
    // Section VI-B: same physical line accessed via two linear addresses
    // behaves like a miss on AMD even though the data is in L1.
    auto cache = makeL1(ReplPolicyKind::TreePlru, /*way_predictor=*/true);
    const Addr paddr = 0x0040;
    const MemRef sender{0x7000'0040, paddr, 0, false};
    const MemRef receiver{0x9000'0040, paddr, 1, false};

    cache.access(receiver);             // fill, utag = receiver's
    cache.access(sender);               // hit but utag mismatch, retrain
    const auto res = cache.access(receiver); // mismatch again
    EXPECT_TRUE(res.hit);
    EXPECT_TRUE(res.utag_mismatch);
}

TEST(CacheTest, NoUtagCheckWhenPredictorDisabled)
{
    auto cache = makeL1(ReplPolicyKind::TreePlru, false);
    const Addr paddr = 0x0040;
    cache.access(MemRef{0x7000'0040, paddr, 0, false});
    const auto res = cache.access(MemRef{0x9000'0040, paddr, 1, false});
    EXPECT_TRUE(res.hit);
    EXPECT_FALSE(res.utag_mismatch);
}

/** Property sweep: with N-way sets, N distinct same-set lines coexist
 *  and the (N+1)-th evicts exactly one. */
class Associativity : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(Associativity, FullSetPlusOne)
{
    CacheConfig cfg;
    cfg.ways = GetParam();
    cfg.size_bytes = cfg.ways * 64 * 64;
    Cache cache(cfg);
    const AddressLayout &layout = cache.layout();
    for (std::uint32_t i = 0; i < cfg.ways; ++i)
        EXPECT_FALSE(cache.access(
            MemRef::load(lineInSet(layout, 3, i))).hit);
    for (std::uint32_t i = 0; i < cfg.ways; ++i)
        EXPECT_TRUE(cache.access(
            MemRef::load(lineInSet(layout, 3, i))).hit);
    const auto res = cache.access(
        MemRef::load(lineInSet(layout, 3, cfg.ways)));
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.evicted_line.has_value());
}

INSTANTIATE_TEST_SUITE_P(Ways, Associativity,
                         ::testing::Values(2u, 4u, 8u, 16u));
