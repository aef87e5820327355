/**
 * @file
 * The Session per-bit fast path must never change results:
 *
 *  - the calibration memo returns byte-identical Calibrations to a
 *    fresh derivation for every uarch x channel x carrier (a fresh
 *    derivation is obtained on a new thread — the memo is
 *    thread_local), and keys on the numeric formula inputs, not the
 *    uarch's name;
 *  - the thread-local topology pool makes a reused (reset) hierarchy
 *    indistinguishable from a freshly constructed one, for both the
 *    single-core and the multi-core topology;
 *  - batch_walks (AccessRun walk batching) preserves the decoded
 *    transmission of every LRU channel.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "channel/calibration.hpp"
#include "channel/session.hpp"

using namespace lruleak;
using namespace lruleak::channel;

namespace {

bool
sameCalibration(const Calibration &a, const Calibration &b)
{
    return a.threshold == b.threshold && a.invert == b.invert &&
           a.fast == b.fast && a.slow == b.slow;
}

/** Derive on a brand-new thread: its thread_local memo starts empty, so
 *  the first call is a guaranteed fresh derivation. */
Calibration
deriveFresh(const timing::Uarch &uarch, ChannelId id, Carrier carrier,
            std::uint32_t ways, std::uint32_t chain_len)
{
    Calibration out;
    std::thread worker([&] {
        out = calibrationFor(uarch, id, carrier, ways, chain_len);
    });
    worker.join();
    return out;
}

TEST(CalibrationMemo, CachedMatchesFreshForEveryUarchChannelCarrier)
{
    const timing::Uarch uarchs[] = {timing::Uarch::intelXeonE52690(),
                                    timing::Uarch::intelXeonE31245v5(),
                                    timing::Uarch::amdEpyc7571()};
    for (const timing::Uarch &uarch : uarchs) {
        for (ChannelId id : allChannelIds()) {
            for (Carrier carrier : {Carrier::L1, Carrier::Llc}) {
                for (std::uint32_t ways : {8u, 16u}) {
                    // First call derives and memoizes; the repeat is a
                    // memo hit.
                    const Calibration first =
                        calibrationFor(uarch, id, carrier, ways, 7);
                    const Calibration cached =
                        calibrationFor(uarch, id, carrier, ways, 7);
                    const Calibration fresh =
                        deriveFresh(uarch, id, carrier, ways, 7);
                    EXPECT_TRUE(sameCalibration(first, cached))
                        << uarch.name << " " << channelIdToken(id);
                    EXPECT_TRUE(sameCalibration(cached, fresh))
                        << uarch.name << " " << channelIdToken(id);
                }
            }
        }
    }
}

TEST(CalibrationMemo, KeysOnTimingNotOnName)
{
    // Two models sharing a name but differing in a formula input must
    // not alias in the memo (tests build modified uarchs all the time).
    const timing::Uarch base = timing::Uarch::intelXeonE52690();
    timing::Uarch slow_llc = base;
    slow_llc.llc_latency += 60;

    const Calibration a = calibrationFor(base, ChannelId::XCoreLruAlg2,
                                         Carrier::Llc, 16, 7);
    const Calibration b = calibrationFor(slow_llc, ChannelId::XCoreLruAlg2,
                                         Carrier::Llc, 16, 7);
    EXPECT_NE(a.threshold, b.threshold);

    // And the original's entry must have survived unchanged.
    const Calibration a2 = calibrationFor(base, ChannelId::XCoreLruAlg2,
                                          Carrier::Llc, 16, 7);
    EXPECT_TRUE(sameCalibration(a, a2));
}

// --------------------------------------------------------- topology pool

void
expectSameSession(const SessionResult &a, const SessionResult &b)
{
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.error_rate, b.error_rate);
    EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
    EXPECT_EQ(a.threshold, b.threshold);
    EXPECT_EQ(a.sender_start, b.sender_start);
    EXPECT_EQ(a.back_invalidations, b.back_invalidations);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].tsc, b.samples[i].tsc) << i;
        EXPECT_EQ(a.samples[i].latency, b.samples[i].latency) << i;
        EXPECT_EQ(a.samples[i].level, b.samples[i].level) << i;
    }
    EXPECT_EQ(a.sender_l1.accesses, b.sender_l1.accesses);
    EXPECT_EQ(a.sender_l1.misses, b.sender_l1.misses);
    EXPECT_EQ(a.receiver_l1.accesses, b.receiver_l1.accesses);
    EXPECT_EQ(a.receiver_l1.misses, b.receiver_l1.misses);
    EXPECT_EQ(a.sender_stats.accesses, b.sender_stats.accesses);
    EXPECT_EQ(a.receiver_stats.accesses, b.receiver_stats.accesses);
    EXPECT_EQ(a.sender_stats.busy_cycles, b.sender_stats.busy_cycles);
    EXPECT_EQ(a.receiver_stats.busy_cycles, b.receiver_stats.busy_cycles);
}

SessionConfig
smtConfig()
{
    SessionConfig config;
    config.channel = ChannelId::LruAlg1;
    config.mode = SharingMode::HyperThreaded;
    config.message = Bits{1, 0, 1, 1, 0, 0, 1, 0};
    config.repeats = 2;
    config.seed = 7;
    return config;
}

SessionConfig
xcoreConfig()
{
    SessionConfig config;
    config.channel = ChannelId::XCoreLruAlg2;
    config.mode = SharingMode::CrossCore;
    config.d = 12;
    config.tr = 3000;
    config.ts = 30000;
    config.llc_policy = sim::ReplPolicyKind::TreePlru;
    config.message = Bits{1, 0, 1, 1};
    config.seed = 9;
    return config;
}

TEST(TopologyPool, PooledSessionMatchesFreshThread)
{
    for (const SessionConfig &config : {smtConfig(), xcoreConfig()}) {
        // A brand-new thread has an empty pool, so its run constructs
        // the topology from scratch.
        SessionResult fresh;
        std::thread worker([&] { fresh = runSession(config); });
        worker.join();

        // These two runs share this thread's pool: the first fills it
        // (or reuses an earlier test's), the second definitely reuses.
        const SessionResult pooled1 = runSession(config);
        const SessionResult pooled2 = runSession(config);

        expectSameSession(fresh, pooled1);
        expectSameSession(fresh, pooled2);
    }
}

TEST(TopologyPool, SurvivesInterleavedTopologies)
{
    const SessionConfig smt = smtConfig();
    const SessionConfig xcore = xcoreConfig();

    const SessionResult smt_a = runSession(smt);
    const SessionResult xcore_a = runSession(xcore);
    // The cross-core run displaced the single-core pool entry (and vice
    // versa), so both of these rebuild — results must not change.
    const SessionResult smt_b = runSession(smt);
    const SessionResult xcore_b = runSession(xcore);

    expectSameSession(smt_a, smt_b);
    expectSameSession(xcore_a, xcore_b);
}

TEST(TopologyPool, RejectsOversizedCoreCountsWithoutWrapping)
{
    // Party cores plus noise cores past the hierarchy's 64-core limit are
    // refused, including noise counts whose 32-bit sum would wrap round
    // to a one- or zero-core topology.
    for (const std::uint32_t noise : {63u, 0xffff'fffeu, 0xffff'ffffu}) {
        SessionConfig config = xcoreConfig();
        config.noise_cores = noise;
        EXPECT_THROW(runSession(config), std::invalid_argument) << noise;
    }
}

// ----------------------------------------------------------- batch walks

TEST(BatchWalks, LruChannelsDecodeIdentically)
{
    SessionConfig configs[] = {smtConfig(), smtConfig(), xcoreConfig()};
    configs[1].channel = ChannelId::LruAlg2; // disjoint-address variant
    configs[1].d = 5; // Alg.2 needs odd d on Tree-PLRU (Fig. 4)
    for (SessionConfig config : configs) {
        SessionConfig per_op = config;
        per_op.batch_walks = false;
        SessionConfig batched = config;
        batched.batch_walks = true;

        const SessionResult a = runSession(per_op);
        const SessionResult b = runSession(batched);

        // Batching coarsens the interleaving (a walk is one engine
        // event), so timestamps may differ — but the transmission must
        // decode bit-for-bit identically.
        EXPECT_EQ(a.sent, b.sent) << channelIdToken(config.channel);
        EXPECT_EQ(a.received, b.received)
            << channelIdToken(config.channel);
        EXPECT_EQ(a.error_rate, b.error_rate);
        EXPECT_EQ(a.threshold, b.threshold);
        // The SMT carriers are clean here; the cross-core channel
        // deterministically loses only its first bit to startup sync.
        EXPECT_LE(a.error_rate * static_cast<double>(a.sent.size()), 1.0)
            << channelIdToken(config.channel);
    }
}

TEST(BatchWalks, SenderPacingKeepsChannelClean)
{
    // The bench lanes pace the sender at the receiver's sampling period
    // (encode_gap = tr) on top of batching; the channel must stay
    // error-free there too.
    for (SessionConfig config : {smtConfig(), xcoreConfig()}) {
        config.batch_walks = true;
        config.encode_gap = static_cast<std::uint32_t>(config.tr);
        const SessionResult res = runSession(config);
        ASSERT_EQ(res.sent.size(), res.received.size());
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < res.sent.size(); ++i)
            mismatches += res.sent[i] != res.received[i];
        // At most the cross-core channel's one startup-sync bit.
        EXPECT_LE(mismatches, 1u) << channelIdToken(config.channel);
    }
}

} // namespace
