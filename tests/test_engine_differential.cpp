/**
 * @file
 * Randomized differential suite: exec::Engine with each arbitration
 * policy must be trace-identical — operation order, result levels,
 * measured latencies, timestamps, final clock, per-thread cache
 * counters — to the ad-hoc scheduler it replaced.  The oracles are the
 * seed implementations preserved verbatim in legacy_schedulers.hpp
 * (the production schedulers are shims over the engine, so comparing
 * against *them* would prove nothing).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "exec/engine.hpp"
#include "legacy_schedulers.hpp"
#include "sim/access_port.hpp"
#include "sim/hierarchy.hpp"
#include "sim/multicore_hierarchy.hpp"
#include "timing/uarch.hpp"

using namespace lruleak;
using namespace lruleak::exec;

namespace {

/** Replays a pre-generated random op script; records every result. */
class RandomProgram : public ThreadProgram
{
  public:
    RandomProgram(std::uint64_t seed, std::size_t ops, sim::Addr base)
    {
        // Materialise the script up front so both runs consume an
        // identical op sequence regardless of scheduling.
        sim::Xoshiro256 rng(seed);
        script_.reserve(ops);
        for (std::size_t i = 0; i < ops; ++i) {
            const std::uint64_t kind = rng.below(100);
            const sim::Addr line = base + rng.below(96) * 64;
            if (kind < 50) {
                script_.push_back(Op::access(sim::MemRef::load(line)));
            } else if (kind < 58) {
                // A short walk from the drawn line; the refs are
                // stamped with the thread id at yield time.
                std::vector<sim::MemRef> &run = runs_[script_.size()];
                const std::uint64_t len = 1 + rng.below(6);
                for (std::uint64_t j = 0; j < len; ++j)
                    run.push_back(sim::MemRef::load(
                        base + (line - base + j * 64 * 17) % (96 * 64)));
                script_.push_back(Op::accessRun({}));
            } else if (kind < 72) {
                script_.push_back(
                    Op::measure(sim::MemRef::load(line), chain_));
            } else if (kind < 80) {
                script_.push_back(Op::flush(sim::MemRef::load(line)));
            } else if (kind < 85) {
                script_.push_back(Op::measureFlush(sim::MemRef::load(line)));
            } else {
                // Relative spin; the deadline is fixed at yield time.
                spin_gaps_[script_.size()] = 50 + rng.below(400);
                script_.push_back(Op::spinUntil(0));
            }
        }
    }

    Op
    next(std::uint64_t now) override
    {
        if (index_ >= script_.size())
            return Op::done();
        Op op = script_[index_];
        const auto gap = spin_gaps_.find(index_);
        if (gap != spin_gaps_.end())
            op.until = now + gap->second;
        const auto run = runs_.find(index_);
        if (run != runs_.end()) {
            run_buf_ = run->second;
            for (sim::MemRef &ref : run_buf_)
                ref.thread = threadId();
            op.run_refs = run_buf_;
        }
        ++index_;
        // Thread id is assigned by the scheduler under test; stamp the
        // refs here so counter attribution matches.
        op.ref.thread = threadId();
        yield_times_.push_back(now);
        return op;
    }

    void
    onResult(const OpResult &result) override
    {
        results_.push_back(result);
    }

    /** Reset for the next run of the same script. */
    void
    rewind()
    {
        index_ = 0;
        results_.clear();
        yield_times_.clear();
    }

    const std::vector<OpResult> &results() const { return results_; }
    const std::vector<std::uint64_t> &yieldTimes() const
    {
        return yield_times_;
    }

  private:
    /** Owns the chain the measure ops' spans view. */
    std::vector<sim::HitLevel> chain_ =
        std::vector<sim::HitLevel>(7, sim::HitLevel::L1);
    std::vector<Op> script_;
    std::map<std::size_t, std::uint64_t> spin_gaps_;
    std::map<std::size_t, std::vector<sim::MemRef>> runs_;
    std::vector<sim::MemRef> run_buf_; //!< the yielded run's refs
    std::size_t index_ = 0;
    std::vector<OpResult> results_;
    std::vector<std::uint64_t> yield_times_;
};

void
expectSameTrace(const RandomProgram &a, const RandomProgram &b)
{
    ASSERT_EQ(a.results().size(), b.results().size());
    for (std::size_t i = 0; i < a.results().size(); ++i) {
        EXPECT_EQ(a.results()[i].kind, b.results()[i].kind) << i;
        EXPECT_EQ(a.results()[i].level, b.results()[i].level) << i;
        EXPECT_EQ(a.results()[i].measured, b.results()[i].measured) << i;
        EXPECT_EQ(a.results()[i].tsc, b.results()[i].tsc) << i;
    }
    ASSERT_EQ(a.yieldTimes().size(), b.yieldTimes().size());
    for (std::size_t i = 0; i < a.yieldTimes().size(); ++i)
        EXPECT_EQ(a.yieldTimes()[i], b.yieldTimes()[i]) << i;
}

/** The scripts must exercise every op kind the engine executes. */
void
expectEveryOpKind(const RandomProgram &p)
{
    bool run = false, measure_flush = false;
    for (const OpResult &r : p.results()) {
        run = run || r.kind == OpKind::AccessRun;
        measure_flush = measure_flush || r.kind == OpKind::MeasureFlush;
    }
    EXPECT_TRUE(run);
    EXPECT_TRUE(measure_flush);
}

void
expectSameCounters(const sim::Cache &a, const sim::Cache &b,
                   sim::ThreadId thread)
{
    const auto sa = a.counters().forThread(thread);
    const auto sb = b.counters().forThread(thread);
    EXPECT_EQ(sa.accesses, sb.accesses);
    EXPECT_EQ(sa.misses, sb.misses);
}

// ----------------------------------------------------------------- SMT

TEST(EngineDifferential, RoundRobinSmtMatchesLegacySmtScheduler)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        RandomProgram a0(seed * 11, 2500, 0x10000);
        RandomProgram a1(seed * 13, 2000, 0x50000);
        sim::CacheHierarchy legacy_h;
        legacy::LegacySmtScheduler::Config lc;
        lc.seed = seed;
        legacy::LegacySmtScheduler legacy(
            legacy_h, timing::Uarch::intelXeonE52690(), lc);
        const auto legacy_end = legacy.run(a0, a1, 1);

        RandomProgram b0(seed * 11, 2500, 0x10000);
        RandomProgram b1(seed * 13, 2000, 0x50000);
        sim::CacheHierarchy engine_h;
        sim::SingleCorePort port(engine_h);
        RoundRobinSmt policy;
        EngineConfig ec;
        ec.seed = seed;
        Engine engine(port, timing::Uarch::intelXeonE52690(), policy, ec);
        const auto engine_end = engine.run(b0, b1, 1);

        EXPECT_EQ(legacy_end, engine_end) << "seed " << seed;
        expectEveryOpKind(b0);
        expectSameTrace(a0, b0);
        expectSameTrace(a1, b1);
        for (sim::ThreadId t : {0u, 1u}) {
            expectSameCounters(legacy_h.l1(), engine_h.l1(), t);
            expectSameCounters(legacy_h.l2(), engine_h.l2(), t);
            expectSameCounters(legacy_h.llc(), engine_h.llc(), t);
        }
    }
}

// ----------------------------------------------------------- TimeSlice

TEST(EngineDifferential, TimeSliceMatchesLegacyTimeSliceScheduler)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        // Small quanta and busy OS knobs so a run crosses many slices,
        // background slices, ticks and spin fast-forwards.
        legacy::LegacyTimeSliceScheduler::Config lc;
        lc.quantum = 5'000;
        lc.quantum_jitter = 2'000;
        lc.switch_cost = 300;
        lc.kernel_noise_lines = 8;
        lc.background_prob = 0.3;
        lc.background_lines = 32;
        lc.tick_period = 2'500;
        lc.tick_lines = 4;
        lc.seed = seed;

        RandomProgram a0(seed * 17, 1500, 0x10000);
        RandomProgram a1(seed * 19, 1200, 0x50000);
        sim::CacheHierarchy legacy_h;
        legacy::LegacyTimeSliceScheduler legacy(
            legacy_h, timing::Uarch::intelXeonE52690(), lc);
        const auto legacy_end = legacy.run(a0, a1, 1);

        TimeSlicePolicyConfig pc;
        pc.quantum = lc.quantum;
        pc.quantum_jitter = lc.quantum_jitter;
        pc.switch_cost = lc.switch_cost;
        pc.kernel_noise_lines = lc.kernel_noise_lines;
        pc.background_prob = lc.background_prob;
        pc.background_lines = lc.background_lines;
        pc.tick_period = lc.tick_period;
        pc.tick_lines = lc.tick_lines;

        RandomProgram b0(seed * 17, 1500, 0x10000);
        RandomProgram b1(seed * 19, 1200, 0x50000);
        sim::CacheHierarchy engine_h;
        sim::SingleCorePort port(engine_h);
        TimeSlice policy(pc);
        EngineConfig ec;
        ec.seed = seed;
        ec.max_cycles = lc.max_cycles;
        Engine engine(port, timing::Uarch::intelXeonE52690(), policy, ec);
        const auto engine_end = engine.run(b0, b1, 1);

        EXPECT_EQ(legacy_end, engine_end) << "seed " << seed;
        expectEveryOpKind(b0);
        expectSameTrace(a0, b0);
        expectSameTrace(a1, b1);
        for (sim::ThreadId t :
             {sim::ThreadId{0}, sim::ThreadId{1},
              legacy::LegacyTimeSliceScheduler::kKernelThread,
              legacy::LegacyTimeSliceScheduler::kBackgroundThread}) {
            expectSameCounters(legacy_h.l1(), engine_h.l1(), t);
            expectSameCounters(legacy_h.l2(), engine_h.l2(), t);
            expectSameCounters(legacy_h.llc(), engine_h.llc(), t);
        }
    }
}

// ----------------------------------------------------------- MultiCore

TEST(EngineDifferential, LowestClockMatchesLegacyMultiCoreScheduler)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        constexpr std::uint32_t kCores = 4;
        sim::MultiCoreConfig mc;
        mc.cores = kCores;
        mc.seed = seed;

        std::vector<std::unique_ptr<RandomProgram>> as, bs;
        std::vector<ThreadProgram *> a_ptrs;
        std::vector<ThreadSpec> b_specs;
        for (std::uint32_t c = 0; c < kCores; ++c) {
            const std::uint64_t pseed = seed * 23 + c;
            const std::size_t ops = 1200 - 100 * c;
            const sim::Addr base = 0x10000 + c * 0x40000;
            as.push_back(
                std::make_unique<RandomProgram>(pseed, ops, base));
            bs.push_back(
                std::make_unique<RandomProgram>(pseed, ops, base));
            a_ptrs.push_back(as.back().get());
            b_specs.push_back(ThreadSpec{bs.back().get(), c});
        }

        sim::MultiCoreHierarchy legacy_h(mc);
        legacy::LegacyMultiCoreScheduler::Config lc;
        lc.seed = seed;
        lc.audit_every = 64;
        legacy::LegacyMultiCoreScheduler legacy(
            legacy_h, timing::Uarch::intelXeonE52690(), lc);
        const auto legacy_end = legacy.run(a_ptrs, /*primary=*/1);

        sim::MultiCoreHierarchy engine_h(mc);
        sim::MultiCorePort port(engine_h);
        LowestClock policy;
        EngineConfig ec;
        ec.seed = seed;
        ec.audit_every = 64;
        Engine engine(port, timing::Uarch::intelXeonE52690(), policy, ec);
        const auto engine_end = engine.run(b_specs, /*primary=*/1);

        EXPECT_EQ(legacy_end, engine_end) << "seed " << seed;
        expectEveryOpKind(*bs[0]);
        for (std::uint32_t c = 0; c < kCores; ++c) {
            expectSameTrace(*as[c], *bs[c]);
            expectSameCounters(legacy_h.l1(c), engine_h.l1(c), c);
            expectSameCounters(legacy_h.l2(c), engine_h.l2(c), c);
            expectSameCounters(legacy_h.llc(), engine_h.llc(), c);
        }
        EXPECT_EQ(legacy_h.backInvalidations(),
                  engine_h.backInvalidations());
    }
}

} // namespace
