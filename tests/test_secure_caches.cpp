/**
 * @file
 * Tests for the Section IX-B secure-cache designs as sim::Cache runs
 * them (CacheConfig::secure): DAWG partitioning stops the LRU channel;
 * the Random Fill cache does not (the paper's explicit claim — hits
 * still update the replacement state) — plus the seed sweep of the
 * ablation_secure_caches experiment built on them.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hpp"
#include "core/result_sink.hpp"
#include "sim/cache.hpp"

using namespace lruleak::sim;

namespace {

constexpr ThreadId kVictim = 0;
constexpr ThreadId kAttacker = 1;

constexpr Addr kVictimBase = 0x1000'0000'0000ULL;
constexpr Addr kAttackerBase = 0x2000'0000'0000ULL;

/** An 8-way L1D running @p mode (two DAWG domains by default). */
CacheConfig
secureL1d(SecureMode mode, std::uint64_t seed = 0)
{
    CacheConfig config = CacheConfig::intelL1d();
    config.secure = mode;
    config.seed = seed;
    return config;
}

MemRef
line(const AddressLayout &layout, std::uint32_t set, std::uint32_t i,
     Addr base, ThreadId thread = kVictim)
{
    const Addr a = lineInSet(layout, set, i, base);
    return MemRef{a, a, thread, false};
}

/** Replacement state of @p thread's DAWG partition of address @p set. */
const ReplState &
partitionState(const Cache &cache, std::uint32_t set, ThreadId thread)
{
    const std::uint32_t domains = cache.config().secure_domains;
    return cache.cacheSet(set * domains + thread % domains).repl();
}

std::uint32_t
totalOccupancy(const Cache &cache)
{
    std::uint32_t lines = 0;
    for (std::uint32_t s = 0; s < cache.storageSets(); ++s)
        lines += cache.cacheSet(s).occupancy();
    return lines;
}

} // namespace

TEST(Dawg, RejectsBadPartitioning)
{
    for (std::uint32_t domains : {0u, 3u}) {
        CacheConfig config = secureL1d(SecureMode::Dawg);
        config.secure_domains = domains;
        EXPECT_THROW(Cache{config}, std::invalid_argument) << domains;
    }
    for (std::uint32_t domains : {2u, 4u}) {
        CacheConfig config = secureL1d(SecureMode::Dawg);
        config.secure_domains = domains;
        EXPECT_NO_THROW(Cache{config}) << domains;
    }
}

TEST(Dawg, DomainsDoNotShareLines)
{
    Cache cache(secureL1d(SecureMode::Dawg));
    const auto ref = line(cache.layout(), 3, 0, kVictimBase);
    cache.access(ref);
    EXPECT_TRUE(cache.contains(ref));
    // The same physical line is NOT visible from the other domain.
    EXPECT_FALSE(cache.contains(MemRef{ref.vaddr, ref.paddr, kAttacker,
                                       false}));
}

TEST(Dawg, DomainFillsCannotEvictOtherDomain)
{
    Cache cache(secureL1d(SecureMode::Dawg));
    const auto victim_line = line(cache.layout(), 5, 0, kVictimBase);
    cache.access(victim_line);
    // The attacker thrashes the same set hard.
    for (std::uint32_t i = 0; i < 64; ++i)
        cache.access(line(cache.layout(), 5, i, kAttackerBase, kAttacker));
    EXPECT_TRUE(cache.contains(victim_line));
}

TEST(Dawg, ReplacementStateIsPartitioned)
{
    // The property the paper singles DAWG out for: the victim's
    // accesses cannot move the attacker's replacement state.
    Cache cache(secureL1d(SecureMode::Dawg));
    for (std::uint32_t i = 0; i < 4; ++i)
        cache.access(line(cache.layout(), 9, i, kAttackerBase, kAttacker));
    const ReplState before = partitionState(cache, 9, kAttacker);

    for (std::uint32_t i = 0; i < 16; ++i)
        cache.access(line(cache.layout(), 9, i, kVictimBase));

    EXPECT_EQ(partitionState(cache, 9, kAttacker), before);
}

TEST(Dawg, LruChannelProtocolIsDead)
{
    // Set-level Algorithm 2 mechanics: with and without the sender's
    // touch, the attacker's eviction outcome must be identical.
    auto attacker_line0_survives = [](bool sender_touches) {
        Cache cache(secureL1d(SecureMode::Dawg));
        const AddressLayout &layout = cache.layout();
        const auto sender_line = line(layout, 7, 0, kVictimBase);
        cache.access(sender_line);
        // Attacker init: 4 of its own lines.
        for (std::uint32_t i = 0; i < 4; ++i)
            cache.access(line(layout, 7, i, kAttackerBase, kAttacker));
        if (sender_touches)
            cache.access(sender_line);
        // Attacker decode: 4 more lines (forces replacements in its
        // 4-way partition), then check its line 0.
        for (std::uint32_t i = 4; i < 8; ++i)
            cache.access(line(layout, 7, i, kAttackerBase, kAttacker));
        return cache.contains(line(layout, 7, 0, kAttackerBase, kAttacker));
    };
    EXPECT_EQ(attacker_line0_survives(true), attacker_line0_survives(false))
        << "sender activity must be invisible across domains";
}

TEST(RandomFill, MissDoesNotInstallDemandLine)
{
    Cache cache(secureL1d(SecureMode::RandomFill));
    const auto ref = line(cache.layout(), 11, 0, kVictimBase);
    const auto res = cache.access(ref);
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.bypassed);
    EXPECT_FALSE(cache.contains(ref)) << "demand line served uncached";
}

TEST(RandomFill, MissFillsSomeNeighbour)
{
    Cache cache(secureL1d(SecureMode::RandomFill, 7));
    for (std::uint32_t i = 0; i < 32; ++i)
        cache.access(line(cache.layout(), 11, i, kVictimBase));
    EXPECT_GT(totalOccupancy(cache), 24u)
        << "misses must fill random neighbour lines";
}

TEST(RandomFill, HitUpdatesReplacementState)
{
    // The paper's point: "if the cache line is already in the cache, on
    // a cache hit, the replacement state will be updated, and the LRU
    // channel could still work."
    Cache cache(secureL1d(SecureMode::RandomFill));
    // Land the target by making it a random-fill target: misses on its
    // neighbours fill random lines around them until it shows up.
    const auto target = line(cache.layout(), 13, 0, kVictimBase);
    for (int tries = 0; tries < 4096 && !cache.contains(target); ++tries)
        cache.access(MemRef::load(target.vaddr + 64 * ((tries % 16) + 1)));
    ASSERT_TRUE(cache.contains(target)) << "random fill should land "
                                           "the target eventually";

    // Land a second distinct line in the same set so the two touches
    // must flip their lowest-common-ancestor tree bit.
    const auto other = line(cache.layout(), 13, 1, kVictimBase);
    for (int tries = 0; tries < 4096 && !cache.contains(other); ++tries)
        cache.access(MemRef::load(other.vaddr + 64 * ((tries % 16) + 1)));
    ASSERT_TRUE(cache.contains(other));
    ASSERT_TRUE(cache.contains(target));

    const std::uint32_t set = cache.layout().setIndex(target.vaddr);
    ASSERT_TRUE(cache.access(other).hit);
    const ReplState before = cache.cacheSet(set).repl();
    ASSERT_TRUE(cache.access(target).hit);
    EXPECT_NE(cache.cacheSet(set).repl(), before)
        << "a hit must move the LRU state -> the channel survives";
}

TEST(RandomFill, SenderHitStillInfluencesVictimChoice)
{
    // Set-level statement of the paper's claim: with the sender's line
    // resident, its hit changes which way the next fill of the set
    // evicts — observable exactly as in the unprotected cache.
    auto next_victim = [](bool sender_touches) {
        Cache cache(secureL1d(SecureMode::RandomFill, 11));
        const AddressLayout &layout = cache.layout();
        // Install lines 0..7 of set 13 directly (a prefetch fill is not
        // redirected), then touch them in order (sequential init).
        for (std::uint32_t i = 0; i < 8; ++i)
            cache.prefetch(line(layout, 13, i, kVictimBase));
        for (std::uint32_t i = 0; i < 8; ++i)
            EXPECT_TRUE(cache.access(line(layout, 13, i, kVictimBase)).hit);
        if (sender_touches) {
            EXPECT_TRUE(cache.access(line(layout, 13, 0, kVictimBase)).hit);
        }
        return cache.cacheSet(13).repl().victim();
    };
    EXPECT_NE(next_victim(true), next_victim(false))
        << "the sender's hit must change the next victim";
}

TEST(AblationSecureCaches, VerdictsHoldAtEverySeed)
{
    // The Random Fill warm-up depends on the seed (which neighbour
    // lines land, and which of them later fills evict); the verdicts
    // must not.
    const lruleak::core::Experiment *e =
        lruleak::core::Registry::instance().find("ablation_secure_caches");
    ASSERT_NE(e, nullptr);
    for (int seed = 1; seed <= 64; ++seed) {
        std::ostringstream os;
        const auto sink =
            lruleak::core::makeSink(lruleak::core::OutputFormat::Json, os);
        lruleak::core::runExperiment(*e, {{"seed", std::to_string(seed)}},
                                     *sink);
        const std::string json = os.str();
        EXPECT_NE(json.find(R"x(["DAWG (ways + PLRU state partitioned)", )x"
                            R"x("no", "protected"])x"),
                  std::string::npos)
            << "seed " << seed;
        EXPECT_NE(json.find(R"x(["Random Fill cache (random miss fills)", )x"
                            R"x("YES (hits update LRU state)", )x"
                            R"x("LEAKS (paper Section IX-B)"])x"),
                  std::string::npos)
            << "seed " << seed;
    }
}
