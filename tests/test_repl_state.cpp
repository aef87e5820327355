/**
 * @file
 * Equivalence tests for the value-semantic replacement core.
 *
 * The legacy virtual classes (sim/replacement.hpp) keep the seed's
 * independent vector-based implementations, so they serve as the oracle:
 * ReplState must match them state-bit-for-state-bit and victim-for-
 * victim on randomized operation traces, for all six policies.  The
 * legacy state() snapshot and the CacheSet batch APIs are checked the
 * same way.
 */

#include <gtest/gtest.h>

#include "sim/cache_set.hpp"
#include "sim/repl_state.hpp"
#include "sim/replacement.hpp"

using namespace lruleak::sim;

namespace {

struct StateCase
{
    ReplPolicyKind kind;
    std::uint32_t ways;
};

class ReplStateEquivalence : public ::testing::TestWithParam<StateCase>
{};

} // namespace

TEST_P(ReplStateEquivalence, MatchesLegacyOnRandomizedTraces)
{
    const auto [kind, ways] = GetParam();
    constexpr std::uint64_t kSeed = 77;

    ReplState state = ReplState::make(kind, ways, kSeed);
    auto legacy = makeReplacementPolicy(kind, ways, kSeed);

    ASSERT_EQ(state.kind(), kind);
    ASSERT_EQ(state.ways(), ways);
    ASSERT_EQ(state.stateBits(), legacy->stateBits())
        << "power-on state differs";

    Xoshiro256 rng(123456);
    for (int op = 0; op < 5000; ++op) {
        const auto way = static_cast<std::uint32_t>(rng.below(ways));
        switch (rng.below(100)) {
          case 0: // occasional reset
            state.reset();
            legacy->reset();
            break;
          case 1:
          case 2: // victim commit (the mutating query)
            ASSERT_EQ(state.selectVictim(), legacy->selectVictim())
                << "op " << op;
            break;
          default:
            if (rng.chance(0.5)) {
                state.touch(way);
                legacy->touch(way);
            } else {
                state.onFill(way);
                legacy->onFill(way);
            }
            break;
        }
        ASSERT_EQ(state.stateBits(), legacy->stateBits())
            << replPolicyName(kind) << " diverged at op " << op;
        ASSERT_EQ(state.victim(), legacy->victim())
            << replPolicyName(kind) << " victim preview at op " << op;
    }
}

TEST_P(ReplStateEquivalence, VictimPreviewIsPure)
{
    const auto [kind, ways] = GetParam();
    ReplState state = ReplState::make(kind, ways, 5);
    Xoshiro256 rng(42);
    for (int op = 0; op < 200; ++op) {
        state.touch(static_cast<std::uint32_t>(rng.below(ways)));
        const ReplState before = state;
        const auto preview = state.victim();
        EXPECT_EQ(state, before) << "victim() must not mutate";
        // The commit must honour the preview.
        EXPECT_EQ(state.selectVictim(), preview);
    }
}

TEST_P(ReplStateEquivalence, AdapterRoundTripsThroughState)
{
    const auto [kind, ways] = GetParam();
    auto legacy = makeReplacementPolicy(kind, ways, 9);
    Xoshiro256 rng(7);
    for (int op = 0; op < 100; ++op)
        legacy->touch(static_cast<std::uint32_t>(rng.below(ways)));

    // Snapshot into the value core mid-trace.
    ReplState state = legacy->state();
    EXPECT_EQ(state.stateBits(), legacy->stateBits());
    EXPECT_EQ(state.kind(), legacy->kind());
    EXPECT_EQ(state.victim(), legacy->victim());

    // Both sides must continue in lockstep after the snapshot.
    for (int op = 0; op < 200; ++op) {
        const auto way = static_cast<std::uint32_t>(rng.below(ways));
        state.touch(way);
        legacy->touch(way);
        ASSERT_EQ(state.stateBits(), legacy->stateBits());
        ASSERT_EQ(state.selectVictim(), legacy->selectVictim());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ReplStateEquivalence,
    ::testing::Values(StateCase{ReplPolicyKind::TrueLru, 4},
                      StateCase{ReplPolicyKind::TrueLru, 8},
                      StateCase{ReplPolicyKind::TreePlru, 4},
                      StateCase{ReplPolicyKind::TreePlru, 8},
                      StateCase{ReplPolicyKind::TreePlru, 16},
                      StateCase{ReplPolicyKind::BitPlru, 8},
                      StateCase{ReplPolicyKind::Fifo, 8},
                      StateCase{ReplPolicyKind::Random, 8},
                      StateCase{ReplPolicyKind::Srrip, 8}));

TEST(ReplState, ValueSemantics)
{
    ReplState a = ReplState::make(ReplPolicyKind::TreePlru, 8);
    a.touch(3);
    ReplState b = a; // copy
    EXPECT_EQ(a, b);
    b.touch(5);
    EXPECT_NE(a, b) << "copies must be independent";
    b = a; // copy-assign
    EXPECT_EQ(a, b);
}

TEST(ReplState, RejectsUnsupportedWays)
{
    EXPECT_THROW(ReplState::make(ReplPolicyKind::TrueLru, 0),
                 std::invalid_argument);
    EXPECT_THROW(ReplState::make(ReplPolicyKind::TrueLru, kMaxWays + 1),
                 std::invalid_argument);
    EXPECT_THROW(ReplState::make(ReplPolicyKind::TreePlru, 6),
                 std::invalid_argument);
    EXPECT_NO_THROW(ReplState::make(ReplPolicyKind::TrueLru, kMaxWays));
}

TEST(ReplState, WhiteBoxAccess)
{
    ReplState state = ReplState::make(ReplPolicyKind::TreePlru, 8);
    auto *tree = state.get<TreePlruState>();
    ASSERT_NE(tree, nullptr);
    state.touch(0);
    EXPECT_TRUE(tree->nodeBit(0));
    EXPECT_EQ(state.get<TrueLruState>(), nullptr);
}

// ---------------------------------------------------------- batch APIs

namespace {

/** Random tag stream over a small space: mixes hits and misses. */
std::vector<Addr>
randomTags(std::size_t n, std::uint64_t seed)
{
    std::vector<Addr> tags(n);
    Xoshiro256 rng(seed);
    for (auto &t : tags)
        t = rng.below(20);
    return tags;
}

class BatchEquivalence
    : public ::testing::TestWithParam<StateCase>
{};

} // namespace

TEST_P(BatchEquivalence, AccessBatchMatchesPerAccessPath)
{
    const auto [kind, ways] = GetParam();
    CacheSet a(ways, ReplState::make(kind, ways, 3));
    CacheSet b(ways, ReplState::make(kind, ways, 3));

    const auto tags = randomTags(2000, 99);
    std::vector<SetAccessResult> batch_results(tags.size());
    a.accessBatch(tags, batch_results);

    for (std::size_t i = 0; i < tags.size(); ++i) {
        const auto res = b.access(tags[i], 0, false, LockReq::None, 0);
        ASSERT_EQ(batch_results[i].hit, res.hit) << "access " << i;
        ASSERT_EQ(batch_results[i].way, res.way) << "access " << i;
        ASSERT_EQ(batch_results[i].filled, res.filled) << "access " << i;
        ASSERT_EQ(batch_results[i].evicted, res.evicted) << "access " << i;
        if (res.evicted) {
            ASSERT_EQ(batch_results[i].evicted_tag, res.evicted_tag);
        }
    }
    EXPECT_EQ(a.repl(), b.repl()) << "replacement state diverged";
    for (std::uint32_t w = 0; w < ways; ++w) {
        EXPECT_EQ(a.line(w).tag, b.line(w).tag);
        EXPECT_EQ(a.line(w).valid, b.line(w).valid);
    }
}

TEST_P(BatchEquivalence, ReplayBatchMatchesAccessBatch)
{
    const auto [kind, ways] = GetParam();
    CacheSet a(ways, ReplState::make(kind, ways, 3));
    CacheSet b(ways, ReplState::make(kind, ways, 3));

    const auto tags = randomTags(2000, 100);
    std::vector<SetAccessResult> results(tags.size());
    a.accessBatch(tags, results);
    const auto stats = b.replayBatch(tags);

    std::uint64_t hits = 0, fills = 0, evictions = 0;
    for (const auto &r : results) {
        hits += r.hit ? 1 : 0;
        fills += r.filled ? 1 : 0;
        evictions += r.evicted ? 1 : 0;
    }
    EXPECT_EQ(stats.accesses, tags.size());
    EXPECT_EQ(stats.hits, hits);
    EXPECT_EQ(stats.fills, fills);
    EXPECT_EQ(stats.evictions, evictions);
    EXPECT_EQ(a.repl(), b.repl());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, BatchEquivalence,
    ::testing::Values(StateCase{ReplPolicyKind::TrueLru, 8},
                      StateCase{ReplPolicyKind::TreePlru, 8},
                      StateCase{ReplPolicyKind::TreePlru, 16},
                      StateCase{ReplPolicyKind::BitPlru, 8},
                      StateCase{ReplPolicyKind::Fifo, 8},
                      StateCase{ReplPolicyKind::Random, 8},
                      StateCase{ReplPolicyKind::Srrip, 8}));

TEST(CacheSetValueSemantics, CopyAssignmentIsDeepAndIndependent)
{
    CacheSet a(8, ReplState::make(ReplPolicyKind::TreePlru, 8));
    for (Addr t = 0; t < 8; ++t)
        a.access(t, 0, false, LockReq::None, 0);

    CacheSet b(8, ReplState::make(ReplPolicyKind::TreePlru, 8));
    b = a; // the seed deleted this operator
    EXPECT_EQ(b.repl(), a.repl());
    EXPECT_EQ(b.occupancy(), a.occupancy());

    // Mutating the copy must not leak back into the original.
    b.access(99, 0, false, LockReq::None, 0);
    EXPECT_TRUE(b.probe(99).has_value());
    EXPECT_FALSE(a.probe(99).has_value());
    EXPECT_NE(b.repl(), a.repl());
}
