/**
 * @file
 * Randomized differential fuzz: the four ways to drive a cache set —
 * per-access `CacheSet::access`, `accessBatch`, `replayBatch`, and a
 * faithful seed-shape legacy set over the virtual ReplacementPolicy
 * interface — must stay state-bit-identical on long random traces, for
 * every policy and for way counts the targeted unit tests never
 * exercise (including the non-power-of-two 6 and 12).
 *
 * Rationale: the batch paths specialise their inner loops per concrete
 * policy and common way count, so an off-by-one in an uncommon
 * configuration would slip past the existing 8/16-way tests while
 * silently skewing every Monte-Carlo result built on batching.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/cache_set.hpp"
#include "sim/repl_state.hpp"
#include "sim/replacement.hpp"

using namespace lruleak::sim;

namespace {

/**
 * Independent reference: the seed's array-of-structs set over the
 * virtual policy hierarchy (the same shape `lruleak bench`'s legacy
 * lane keeps).  Deliberately separate code from CacheSet.
 */
class LegacyReferenceSet
{
  public:
    LegacyReferenceSet(std::uint32_t ways, ReplPolicyKind kind,
                       std::uint64_t seed)
        : ways_(ways), tags_(ways, 0), valid_(ways, false),
          policy_(makeReplacementPolicy(kind, ways, seed))
    {}

    struct Result
    {
        bool hit = false;
        std::uint32_t way = kNoWay;
        bool filled = false;
        bool evicted = false;
        Addr evicted_tag = 0;
    };

    Result
    access(Addr tag)
    {
        Result res;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (valid_[w] && tags_[w] == tag) {
                res.hit = true;
                res.way = w;
                policy_->touch(w);
                return res;
            }
        }
        std::uint32_t victim = kNoWay;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!valid_[w]) {
                victim = w;
                break;
            }
        }
        if (victim == kNoWay) {
            victim = policy_->selectVictim();
            res.evicted = true;
            res.evicted_tag = tags_[victim];
        }
        tags_[victim] = tag;
        valid_[victim] = true;
        policy_->onFill(victim);
        res.way = victim;
        res.filled = true;
        return res;
    }

    std::vector<std::uint8_t> stateBits() const
    {
        return policy_->stateBits();
    }
    Addr tag(std::uint32_t w) const { return tags_[w]; }
    bool valid(std::uint32_t w) const { return valid_[w]; }

  private:
    std::uint32_t ways_;
    std::vector<Addr> tags_;
    std::vector<bool> valid_;
    std::unique_ptr<ReplacementPolicy> policy_;
};

struct FuzzCase
{
    ReplPolicyKind kind;
    std::uint32_t ways;
};

std::string
fuzzCaseName(const ::testing::TestParamInfo<FuzzCase> &info)
{
    return std::string(replPolicyName(info.param.kind)) + "_" +
           std::to_string(info.param.ways) + "way";
}

class DifferentialFuzz : public ::testing::TestWithParam<FuzzCase>
{};

/**
 * 10k-access trace over a tag space sized to the set: enough reuse for
 * hits, enough churn for steady eviction pressure.
 */
std::vector<Addr>
fuzzTrace(std::size_t n, std::uint32_t ways, std::uint64_t seed)
{
    std::vector<Addr> tags(n);
    Xoshiro256 rng(seed);
    const std::uint64_t space = ways * 3 + 1;
    for (auto &t : tags)
        t = rng.below(space);
    return tags;
}

} // namespace

TEST_P(DifferentialFuzz, FourPathsStayStateBitIdentical)
{
    const auto [kind, ways] = GetParam();
    constexpr std::uint64_t kSeed = 4242;
    constexpr std::size_t kAccesses = 10'000;

    CacheSet per_access(ways, ReplState::make(kind, ways, kSeed));
    CacheSet batched(ways, ReplState::make(kind, ways, kSeed));
    CacheSet replayed(ways, ReplState::make(kind, ways, kSeed));
    LegacyReferenceSet legacy(ways, kind, kSeed);

    const auto trace = fuzzTrace(kAccesses, ways, kSeed ^ ways);

    // Per-access lane, checked against the legacy oracle continuously
    // (a divergence is reported at the access that introduced it).
    std::uint64_t hits = 0, fills = 0, evictions = 0;
    std::vector<SetAccessResult> per_results(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto res =
            per_access.access(trace[i], 0, false, LockReq::None, 0);
        const auto ref = legacy.access(trace[i]);
        ASSERT_EQ(res.hit, ref.hit) << "access " << i;
        ASSERT_EQ(res.way, ref.way) << "access " << i;
        ASSERT_EQ(res.filled, ref.filled) << "access " << i;
        ASSERT_EQ(res.evicted, ref.evicted) << "access " << i;
        if (ref.evicted)
            ASSERT_EQ(res.evicted_tag, ref.evicted_tag) << "access " << i;
        ASSERT_EQ(per_access.repl().stateBits(), legacy.stateBits())
            << "state diverged from the legacy oracle at access " << i;
        per_results[i] = res;
        hits += res.hit ? 1 : 0;
        fills += res.filled ? 1 : 0;
        evictions += res.evicted ? 1 : 0;
    }

    // Batch lane: one accessBatch over the whole trace.
    std::vector<SetAccessResult> batch_results(trace.size());
    batched.accessBatch(trace, batch_results);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_EQ(batch_results[i].hit, per_results[i].hit) << i;
        ASSERT_EQ(batch_results[i].way, per_results[i].way) << i;
        ASSERT_EQ(batch_results[i].filled, per_results[i].filled) << i;
        ASSERT_EQ(batch_results[i].evicted, per_results[i].evicted) << i;
        if (per_results[i].evicted)
            ASSERT_EQ(batch_results[i].evicted_tag,
                      per_results[i].evicted_tag) << i;
    }

    // Replay lane: aggregate stats only.
    const auto stats = replayed.replayBatch(trace);
    EXPECT_EQ(stats.accesses, trace.size());
    EXPECT_EQ(stats.hits, hits);
    EXPECT_EQ(stats.fills, fills);
    EXPECT_EQ(stats.evictions, evictions);

    // End state: all four lanes bit-identical.
    EXPECT_EQ(per_access.repl(), batched.repl());
    EXPECT_EQ(per_access.repl(), replayed.repl());
    EXPECT_EQ(per_access.repl().stateBits(), legacy.stateBits());
    for (std::uint32_t w = 0; w < ways; ++w) {
        EXPECT_EQ(per_access.line(w).tag, batched.line(w).tag) << w;
        EXPECT_EQ(per_access.line(w).valid, batched.line(w).valid) << w;
        EXPECT_EQ(per_access.line(w).tag, replayed.line(w).tag) << w;
        EXPECT_EQ(per_access.line(w).valid, legacy.valid(w)) << w;
        if (legacy.valid(w))
            EXPECT_EQ(per_access.line(w).tag, legacy.tag(w)) << w;
    }
}

namespace {

/** Way counts of the fuzz matrix, including the non-power-of-two ones
 *  (6, 12) that Tree-PLRU alone cannot represent. */
constexpr std::uint32_t kFuzzWays[] = {2, 4, 6, 8, 12, 16};

std::vector<FuzzCase>
fuzzMatrix()
{
    std::vector<FuzzCase> cases;
    for (ReplPolicyKind kind : allReplPolicyKinds()) {
        for (std::uint32_t ways : kFuzzWays) {
            // Tree-PLRU is a binary tree: power-of-two ways only (its
            // constructor rejects the rest; covered below).
            if (kind == ReplPolicyKind::TreePlru &&
                (ways & (ways - 1)) != 0)
                continue;
            cases.push_back(FuzzCase{kind, ways});
        }
    }
    return cases;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllPoliciesAllWays, DifferentialFuzz,
                         ::testing::ValuesIn(fuzzMatrix()), fuzzCaseName);

// ------------------------------------------------------ write-path fuzz

namespace {

/** One write-path fuzz configuration: policy x write-policy combo. */
struct WriteFuzzCase
{
    ReplPolicyKind kind;
    WriteHitPolicy write_hit;
    WriteMissPolicy write_miss;
};

std::string
writeFuzzCaseName(const ::testing::TestParamInfo<WriteFuzzCase> &info)
{
    return std::string(replPolicyName(info.param.kind)) + "_" +
           std::string(writeHitPolicyName(info.param.write_hit)) + "_" +
           std::string(writeMissPolicyName(info.param.write_miss));
}

class WritePathFuzz : public ::testing::TestWithParam<WriteFuzzCase>
{};

std::vector<WriteFuzzCase>
writeFuzzMatrix()
{
    std::vector<WriteFuzzCase> cases;
    for (ReplPolicyKind kind : allReplPolicyKinds())
        for (WriteHitPolicy wh :
             {WriteHitPolicy::WriteBack, WriteHitPolicy::WriteThrough})
            for (WriteMissPolicy wm : {WriteMissPolicy::WriteAllocate,
                                       WriteMissPolicy::NoWriteAllocate})
                cases.push_back(WriteFuzzCase{kind, wh, wm});
    return cases;
}

} // namespace

/**
 * Batches over dirty lines: three identical sets take the same per-access
 * loads and stores, then replay one load sequence through the
 * per-access, accessBatch and replayBatch paths respectively, round
 * after round.  The three must agree on every write-back, the dirty mask
 * and the replacement state, for all six policies under all four
 * write-policy combinations.  The batch paths carry loads only, so this
 * is the test that keeps their dirty-victim bookkeeping honest.
 */
TEST_P(WritePathFuzz, ThreePathsAgreeOnDirtyStateAndWritebacks)
{
    const auto [kind, write_hit, write_miss] = GetParam();
    constexpr std::uint32_t kWays = 8;
    constexpr std::uint64_t kSeed = 20200415;
    constexpr int kRounds = 50;
    constexpr std::size_t kPhase = 100; // accesses per phase and round

    CacheSet per_access(kWays, ReplState::make(kind, kWays, kSeed),
                        PlMode::Disabled, write_hit, write_miss);
    CacheSet batched(kWays, ReplState::make(kind, kWays, kSeed),
                     PlMode::Disabled, write_hit, write_miss);
    CacheSet replayed(kWays, ReplState::make(kind, kWays, kSeed),
                      PlMode::Disabled, write_hit, write_miss);

    // A tag space with steady eviction pressure.
    Xoshiro256 rng(kSeed ^ static_cast<std::uint64_t>(kind));
    const auto randomTag = [&] { return rng.below(kWays * 3 + 1); };
    std::uint64_t writebacks = 0;      // per-access lane, both phases
    std::uint64_t load_writebacks = 0; // per-access lane, load phases
    std::vector<Addr> loads(kPhase);
    std::vector<SetAccessResult> per_results(kPhase);
    std::vector<SetAccessResult> batch_results(kPhase);
    for (int round = 0; round < kRounds; ++round) {
        // Store phase: ~1/3 stores, the same per-access trace on all
        // three sets, so each enters the load phase with dirty lines.
        for (std::size_t i = 0; i < kPhase; ++i) {
            const Addr tag = randomTag();
            const bool is_write = rng.chance(1.0 / 3.0);
            const auto res = per_access.access(tag, 0, false, LockReq::None,
                                               0, is_write);
            batched.access(tag, 0, false, LockReq::None, 0, is_write);
            replayed.access(tag, 0, false, LockReq::None, 0, is_write);
            writebacks += res.dirty_writeback ? 1 : 0;
        }

        // Load phase, per-access lane (the oracle for the batch lanes).
        for (Addr &tag : loads)
            tag = randomTag();
        std::uint64_t hits = 0, fills = 0, evictions = 0, load_wbs = 0;
        for (std::size_t i = 0; i < kPhase; ++i) {
            per_results[i] =
                per_access.access(loads[i], 0, false, LockReq::None, 0);
            hits += per_results[i].hit ? 1 : 0;
            fills += per_results[i].filled ? 1 : 0;
            evictions += per_results[i].evicted ? 1 : 0;
            load_wbs += per_results[i].dirty_writeback ? 1 : 0;
        }
        writebacks += load_wbs;
        load_writebacks += load_wbs;

        // Batch lane: every per-access field, write-backs included.
        batched.accessBatch(loads, batch_results);
        for (std::size_t i = 0; i < kPhase; ++i) {
            ASSERT_EQ(batch_results[i].hit, per_results[i].hit) << i;
            ASSERT_EQ(batch_results[i].way, per_results[i].way) << i;
            ASSERT_EQ(batch_results[i].filled, per_results[i].filled) << i;
            ASSERT_EQ(batch_results[i].evicted, per_results[i].evicted)
                << i;
            ASSERT_EQ(batch_results[i].dirty_writeback,
                      per_results[i].dirty_writeback)
                << "write-back divergence in round " << round
                << " at load " << i;
            if (per_results[i].evicted) {
                ASSERT_EQ(batch_results[i].evicted_tag,
                          per_results[i].evicted_tag) << i;
            }
        }

        // Replay lane: aggregate tallies.
        const auto stats = replayed.replayBatch(loads);
        ASSERT_EQ(stats.accesses, kPhase);
        ASSERT_EQ(stats.hits, hits);
        ASSERT_EQ(stats.fills, fills);
        ASSERT_EQ(stats.evictions, evictions);
        ASSERT_EQ(stats.dirty_writebacks, load_wbs) << "round " << round;

        // State: dirty masks and replacement state bit-identical.
        ASSERT_EQ(per_access.dirtyMask(), batched.dirtyMask()) << round;
        ASSERT_EQ(per_access.dirtyMask(), replayed.dirtyMask()) << round;
        ASSERT_EQ(per_access.validMask(), batched.validMask()) << round;
        ASSERT_EQ(per_access.validMask(), replayed.validMask()) << round;
        ASSERT_EQ(per_access.repl(), batched.repl()) << round;
        ASSERT_EQ(per_access.repl(), replayed.repl()) << round;
        for (std::uint32_t w = 0; w < kWays; ++w) {
            ASSERT_EQ(per_access.line(w).tag, batched.line(w).tag) << w;
            ASSERT_EQ(per_access.line(w).tag, replayed.line(w).tag) << w;
        }
    }

    // Write-policy invariants the whole trace must respect.
    if (write_hit == WriteHitPolicy::WriteThrough) {
        EXPECT_EQ(per_access.dirtyMask(), 0u)
            << "a write-through set must never hold a dirty line";
        EXPECT_EQ(writebacks, 0u);
    } else {
        EXPECT_GT(load_writebacks, 0u)
            << "the load phases must evict lines the stores dirtied";
    }
    EXPECT_EQ(per_access.dirtyMask() & ~per_access.validMask(), 0u)
        << "dirty bits must annotate valid lines only";
}

INSTANTIATE_TEST_SUITE_P(AllPoliciesAllWritePolicies, WritePathFuzz,
                         ::testing::ValuesIn(writeFuzzMatrix()),
                         writeFuzzCaseName);

// ----------------------------------------------------------- SHARP fuzz

namespace {

class SharpFuzz : public ::testing::TestWithParam<FuzzCase>
{};

std::vector<FuzzCase>
sharpFuzzMatrix()
{
    // SHARP guards the shared LLC, so the interesting way counts are the
    // wide ones; keep one narrow case for the corner where a couple of
    // owners can already wedge the whole set.
    std::vector<FuzzCase> cases;
    for (ReplPolicyKind kind : allReplPolicyKinds())
        for (std::uint32_t ways : {4u, 8u, 16u})
            cases.push_back(FuzzCase{kind, ways});
    return cases;
}

} // namespace

/**
 * With a single accessing domain no way is ever foreign-owned, so the
 * SHARP path must never alarm and must drive the replacement state
 * through exactly the same call sequence as the plain path: results and
 * state bits stay identical access by access (the documented
 * "bit-identical in the single-owner regime" contract of accessSharp).
 */
TEST_P(SharpFuzz, SingleOwnerTraceMatchesPlainAccessBitForBit)
{
    const auto [kind, ways] = GetParam();
    constexpr std::uint64_t kSeed = 77001;
    constexpr std::size_t kAccesses = 10'000;

    CacheSet plain(ways, ReplState::make(kind, ways, kSeed));
    CacheSet sharp(ways, ReplState::make(kind, ways, kSeed));

    Xoshiro256 rng(kSeed ^ ways);
    SharpSetEvents ev;
    for (std::size_t i = 0; i < kAccesses; ++i) {
        const Addr tag = rng.below(ways * 3 + 1);
        const bool write = rng.chance(1.0 / 3.0);
        const auto a = plain.access(tag, 0, false, LockReq::None, 0, write);
        const auto b = sharp.accessSharp(tag, 0, write, /*domain=*/0,
                                         /*flagged=*/false, ev);
        ASSERT_EQ(a.hit, b.hit) << "access " << i;
        ASSERT_EQ(a.way, b.way) << "access " << i;
        ASSERT_EQ(a.filled, b.filled) << "access " << i;
        ASSERT_EQ(a.evicted, b.evicted) << "access " << i;
        if (a.evicted)
            ASSERT_EQ(a.evicted_tag, b.evicted_tag) << "access " << i;
        ASSERT_EQ(a.dirty_writeback, b.dirty_writeback) << "access " << i;
        ASSERT_EQ(plain.repl(), sharp.repl())
            << "replacement state diverged at access " << i;
    }
    EXPECT_EQ(ev.alarms, 0u)
        << "a single-owner trace must never trip a SHARP alarm";
    EXPECT_EQ(plain.validMask(), sharp.validMask());
    EXPECT_EQ(plain.dirtyMask(), sharp.dirtyMask());
    for (std::uint32_t w = 0; w < ways; ++w)
        EXPECT_EQ(plain.line(w).tag, sharp.line(w).tag) << w;
}

/**
 * Multi-owner random traces: a fill may displace a foreign-owned line
 * only through the forced branch (every way foreign-owned), and that
 * branch always raised at least one alarm first.  Flagged domains never
 * get a forced eviction at all — their fill is denied and the set is
 * left untouched.
 */
TEST_P(SharpFuzz, ForeignEvictionImpliesAlarmOrDenial)
{
    const auto [kind, ways] = GetParam();
    constexpr std::uint64_t kSeed = 77002;
    constexpr std::size_t kAccesses = 10'000;
    constexpr std::uint32_t kDomains = 3;

    CacheSet sharp(ways, ReplState::make(kind, ways, kSeed));
    Xoshiro256 rng(kSeed ^ ways);

    std::uint64_t alarms = 0, forced = 0, denied = 0;
    std::vector<std::uint32_t> owners_before(ways);
    for (std::size_t i = 0; i < kAccesses; ++i) {
        const Addr tag = rng.below(ways * 2 + 3);
        const std::uint32_t domain = rng.below(kDomains);
        const bool flagged = domain == kDomains - 1;
        for (std::uint32_t w = 0; w < ways; ++w)
            owners_before[w] = sharp.owner(w);
        const std::uint32_t valid_before = sharp.validMask();

        SharpSetEvents ev;
        const auto res = sharp.accessSharp(tag, 0, false, domain,
                                           flagged, ev);
        alarms += ev.alarms;
        forced += ev.forced ? 1 : 0;
        denied += ev.denied ? 1 : 0;

        if (res.evicted) {
            const std::uint32_t prev = owners_before[res.way];
            if (prev != kNoOwner && prev != domain) {
                ASSERT_TRUE(ev.forced)
                    << "access " << i << ": foreign-owned way " << res.way
                    << " displaced outside the forced branch";
                ASSERT_GE(ev.alarms, 1u)
                    << "access " << i << ": forced eviction without alarm";
            }
        }
        if (ev.denied) {
            ASSERT_TRUE(flagged) << "access " << i;
            ASSERT_TRUE(res.bypassed) << "access " << i;
            ASSERT_FALSE(res.filled) << "access " << i;
            ASSERT_EQ(sharp.validMask(), valid_before)
                << "access " << i << ": a denied fill must not touch the set";
        }
        if (res.hit)
            ASSERT_EQ(sharp.owner(res.way), domain)
                << "access " << i << ": a hit must transfer ownership";
    }
    // The contended trace must actually exercise the refusal machinery,
    // or the invariants above were vacuous.
    EXPECT_GT(alarms, 0u);
    EXPECT_GT(forced + denied, 0u);
}

/** Alarm / forced / denial tallies are a pure function of the seed. */
TEST_P(SharpFuzz, AlarmCountsDeterministicPerSeed)
{
    const auto [kind, ways] = GetParam();

    auto runTrace = [&](std::uint64_t seed) {
        CacheSet sharp(ways, ReplState::make(kind, ways, seed));
        Xoshiro256 rng(seed ^ ways);
        std::uint64_t alarms = 0, forced = 0, denied = 0;
        for (std::size_t i = 0; i < 5'000; ++i) {
            const Addr tag = rng.below(ways * 2 + 3);
            const std::uint32_t domain = rng.below(3u);
            SharpSetEvents ev;
            sharp.accessSharp(tag, 0, false, domain, domain == 2, ev);
            alarms += ev.alarms;
            forced += ev.forced ? 1 : 0;
            denied += ev.denied ? 1 : 0;
        }
        return std::tuple{alarms, forced, denied};
    };

    EXPECT_EQ(runTrace(11), runTrace(11));
    EXPECT_EQ(runTrace(12), runTrace(12));
}

INSTANTIATE_TEST_SUITE_P(AllPoliciesSharp, SharpFuzz,
                         ::testing::ValuesIn(sharpFuzzMatrix()),
                         fuzzCaseName);

TEST(DifferentialFuzz, TreePlruRejectsNonPowerOfTwoWaysEverywhere)
{
    // Both the value core and the legacy oracle must refuse the way
    // counts the fuzz matrix skips, so the skip hides no behaviour.
    for (std::uint32_t ways : {6u, 12u}) {
        EXPECT_THROW(ReplState::make(ReplPolicyKind::TreePlru, ways),
                     std::invalid_argument) << ways;
        EXPECT_THROW(makeReplacementPolicy(ReplPolicyKind::TreePlru, ways),
                     std::invalid_argument) << ways;
    }
}
