/**
 * @file
 * Cross-module integration tests: whole-pipeline determinism, the
 * Table IV rate ordering, stealth comparisons, and protocol/defense
 * interactions that span several libraries at once.
 */

#include <gtest/gtest.h>

#include "channel/bitstring.hpp"
#include "channel/decoder.hpp"
#include "channel/session.hpp"
#include "core/experiments.hpp"
#include "sim/cache_set.hpp"
#include "spectre/attack.hpp"
#include "timing/uarch.hpp"

using namespace lruleak;
using namespace lruleak::channel;

TEST(Integration, TableIVRateOrdering)
{
    // Hyper-threaded Intel ~500 Kbps >> hyper-threaded AMD ~20 Kbps >>
    // time-sliced (bits per second).
    SessionConfig intel;
    intel.channel = ChannelId::LruAlg1;
    intel.message = randomBits(64, 1);
    intel.ts = 6000;
    intel.tr = 600;
    const auto intel_res = runSession(intel);

    SessionConfig amd = intel;
    amd.uarch = timing::Uarch::amdEpyc7571();
    amd.ts = 100'000;
    amd.tr = 1000;
    const auto amd_res = runSession(amd);

    EXPECT_GT(intel_res.kbps, 10 * amd_res.kbps)
        << "AMD must be about an order of magnitude slower (Table IV)";
    EXPECT_GT(amd_res.kbps, 1.0);
}

TEST(Integration, SkylakeBehavesLikeSandyBridge)
{
    // Appendix B: the attack transfers across Intel generations.
    SessionConfig cfg;
    cfg.channel = ChannelId::LruAlg1;
    cfg.uarch = timing::Uarch::intelXeonE31245v5();
    cfg.message = randomBits(96, 14);
    cfg.ts = 6000;
    cfg.tr = 600;
    const auto res = runSession(cfg);
    EXPECT_LT(res.error_rate, 0.02);
    // 3.9 GHz vs 3.8 GHz: slightly higher effective rate (paper: 580
    // vs 480 Kbps).
    EXPECT_GT(res.kbps, 400.0);
}

TEST(Integration, WholeStackDeterminism)
{
    // Same seed: identical samples, decode, counters -- across the
    // scheduler, cache, timing and decoder layers at once.
    auto run = [] {
        SessionConfig cfg;
        cfg.channel = ChannelId::LruAlg2;
        cfg.d = 5;
        cfg.message = randomBits(64, 3);
        cfg.seed = 99;
        return runSession(cfg);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.sender_l1.accesses, b.sender_l1.accesses);
    EXPECT_EQ(a.receiver_l1.accesses, b.receiver_l1.accesses);
}

TEST(Integration, StealthContrastAcrossChannels)
{
    // Section VII: the LRU sender is indistinguishable from benign
    // co-tenancy by L1 miss-rate monitoring, F+R (mem) is not.
    const auto rows = core::senderMissRates(
        timing::Uarch::intelXeonE52690());
    const double fr_mem = rows[0].l1.missRate();
    const double lru = rows[2].l1.missRate();
    const double benign = rows[4].l1.missRate(); // sender & gcc
    // LRU sender within ~20x of the benign baseline; F+R far beyond.
    EXPECT_LT(lru, benign * 50 + 0.002);
    EXPECT_GT(fr_mem, benign * 100);
}

TEST(Integration, LockedAlg1IsProtectedByPlCache)
{
    // Paper footnote 8: if line 0 is locked in a PL cache, Algorithm 1
    // dies (line 0 can never be evicted, the receiver always hits).
    SessionConfig cfg;
    cfg.channel = ChannelId::LruAlg1;
    cfg.pl_mode = sim::PlMode::Original;
    cfg.sender_locks_line = true; // the shared line gets locked
    cfg.message = randomBits(48, 5);
    const auto res = runSession(cfg);
    // The receiver should observe (almost) all hits -> no information.
    const auto bits = thresholdSamples(res.samples, res.threshold, false);
    EXPECT_GT(fractionOnes(bits), 0.95);
}

TEST(Integration, SpectreThroughEveryLayer)
{
    // Branch predictor -> transient core -> cache hierarchy -> LRU
    // receiver -> measurement model -> byte reassembly.
    spectre::SpectreAttackConfig cfg;
    cfg.disclosure = spectre::Disclosure::LruAlg2;
    cfg.rounds = 3;
    const auto res = spectre::runSpectreAttack(cfg, "The Magic Words");
    EXPECT_EQ(res.recovered, "The Magic Words");
}

TEST(Integration, ChannelSurvivesDifferentTargetSets)
{
    for (std::uint32_t set : {0u, 1u, 31u, 62u}) {
        SessionConfig cfg;
        cfg.channel = ChannelId::LruAlg1;
        cfg.target_set = set;
        cfg.chase_set = (set + 32) % 64;
        cfg.message = randomBits(48, set + 1);
        EXPECT_LT(runSession(cfg).error_rate, 0.03)
            << "target set " << set;
    }
}

TEST(Integration, TextMessageRoundTrip)
{
    // The quickstart scenario: send ASCII text through the channel.
    SessionConfig cfg;
    cfg.channel = ChannelId::LruAlg1;
    cfg.message = textToBits("LRU states leak!");
    const auto res = runSession(cfg);
    EXPECT_EQ(bitsToText(res.received), "LRU states leak!");
}

TEST(Integration, ReceiverCountersShowDecodePressure)
{
    // The receiver's misses come from the decode-phase evictions; they
    // must be visible in its counters (this is what a defender's perf
    // monitoring would see: receiver noisy, sender quiet).
    SessionConfig cfg;
    cfg.channel = ChannelId::LruAlg1;
    cfg.message = randomBits(64, 17);
    const auto res = runSession(cfg);
    EXPECT_GT(res.receiver_l1.missRate(), res.sender_l1.missRate());
}
