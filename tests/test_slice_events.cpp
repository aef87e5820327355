/**
 * @file
 * Randomized differential suite for the TimeSlice slice-event fast
 * path: with `slice_events` on, one step() advances a whole quantum,
 * but the op order, every RNG draw, every measured latency, the final
 * clocks and the per-thread telemetry must be identical to per-op
 * stepping.  The suite sweeps quantum/jitter/tick grids, random program
 * mixes and both engine shapes (root TimeSlice; TimeSlice nested under
 * LowestClock, where the fast path must disable itself).
 *
 * The second half covers run compression: LRU-channel sessions and a
 * synthetic steady program, compressing (slice events on) against per-op
 * stepping (off), must agree on samples, encode levels, telemetry,
 * per-level counters, the final clock, the next RNG draw and every L1
 * set; Engine::compressedIterations() shows which runs compressed.
 */

#include <gtest/gtest.h>

#include <map>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "channel/channel_factory.hpp"
#include "exec/engine.hpp"
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
        sim::Xoshiro256 rng(seed);
        script_.reserve(ops);
        for (std::size_t i = 0; i < ops; ++i) {
            const std::uint64_t kind = rng.below(100);
            const sim::Addr line = base + rng.below(96) * 64;
            if (kind < 55) {
                script_.push_back(Op::access(sim::MemRef::load(line)));
            } else if (kind < 70) {
                script_.push_back(
                    Op::measure(sim::MemRef::load(line), chain_));
            } else if (kind < 80) {
                script_.push_back(Op::flush(sim::MemRef::load(line)));
            } else {
                spin_gaps_[script_.size()] = 50 + rng.below(700);
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
        ++index_;
        op.ref.thread = threadId();
        yield_times_.push_back(now);
        return op;
    }

    void
    onResult(const OpResult &result) override
    {
        results_.push_back(result);
    }

    const std::vector<OpResult> &results() const { return results_; }
    const std::vector<std::uint64_t> &yieldTimes() const
    {
        return yield_times_;
    }

  private:
    std::vector<sim::HitLevel> chain_ =
        std::vector<sim::HitLevel>(7, sim::HitLevel::L1);
    std::vector<Op> script_;
    std::map<std::size_t, std::uint64_t> spin_gaps_;
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

void
expectSameStats(const ThreadStats &a, const ThreadStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.measures, b.measures);
    EXPECT_EQ(a.flushes, b.flushes);
    EXPECT_EQ(a.spins, b.spins);
    EXPECT_EQ(a.busy_cycles, b.busy_cycles);
}

void
expectSameCounters(const sim::Cache &a, const sim::Cache &b,
                   sim::ThreadId thread)
{
    const auto sa = a.counters().forThread(thread);
    const auto sb = b.counters().forThread(thread);
    EXPECT_EQ(sa.accesses, sb.accesses);
    EXPECT_EQ(sa.misses, sb.misses);
    EXPECT_EQ(sa.writebacks, sb.writebacks);
}

/** One (quantum, jitter, tick) cell of the differential grid. */
struct GridCell
{
    std::uint64_t quantum;
    std::uint64_t quantum_jitter;
    std::uint64_t tick_period;
    double background_prob;
};

/** Run both stepping modes for one config+seed; compare everything. */
void
runCell(const GridCell &cell, std::uint64_t seed)
{
    TimeSlicePolicyConfig base;
    base.quantum = cell.quantum;
    base.quantum_jitter = cell.quantum_jitter;
    base.switch_cost = 300;
    base.kernel_noise_lines = 8;
    base.background_prob = cell.background_prob;
    base.background_lines = 32;
    base.tick_period = cell.tick_period;
    base.tick_lines = 4;

    struct RunOut
    {
        std::unique_ptr<RandomProgram> p0, p1;
        std::unique_ptr<sim::CacheHierarchy> h;
        std::uint64_t end = 0;
        ThreadStats s0, s1;
    };
    auto run = [&](bool slice_events) {
        RunOut out;
        out.p0 = std::make_unique<RandomProgram>(seed * 17, 1500, 0x10000);
        out.p1 = std::make_unique<RandomProgram>(seed * 19, 1200, 0x50000);
        out.h = std::make_unique<sim::CacheHierarchy>();
        sim::SingleCorePort port(*out.h);
        TimeSlicePolicyConfig pc = base;
        pc.slice_events = slice_events;
        TimeSlice policy(pc);
        EngineConfig ec;
        ec.seed = seed;
        Engine engine(port, timing::Uarch::intelXeonE52690(), policy, ec);
        out.end = engine.run(*out.p0, *out.p1, 1);
        out.s0 = engine.stats(0);
        out.s1 = engine.stats(1);
        return out;
    };

    const RunOut per_op = run(false);
    const RunOut sliced = run(true);

    EXPECT_EQ(per_op.end, sliced.end)
        << "quantum " << cell.quantum << " seed " << seed;
    expectSameTrace(*per_op.p0, *sliced.p0);
    expectSameTrace(*per_op.p1, *sliced.p1);
    expectSameStats(per_op.s0, sliced.s0);
    expectSameStats(per_op.s1, sliced.s1);
    for (sim::ThreadId t : {sim::ThreadId{0}, sim::ThreadId{1},
                            base.kernel_thread, base.background_thread}) {
        expectSameCounters(per_op.h->l1(), sliced.h->l1(), t);
        expectSameCounters(per_op.h->l2(), sliced.h->l2(), t);
        expectSameCounters(per_op.h->llc(), sliced.h->llc(), t);
    }
}

TEST(SliceEvents, EquivalentToPerOpSteppingAcrossQuantumGrid)
{
    const GridCell grid[] = {
        // Small quanta: many slices, switches, background slices.
        {5'000, 2'000, 2'500, 0.3},
        // Quantum smaller than a typical op run: degenerate slices.
        {500, 0, 0, 0.0},
        // Tick-dominated: several ticks per slice.
        {20'000, 5'000, 1'000, 0.2},
        // No jitter, no background: pure rotation.
        {8'000, 0, 4'000, 0.0},
        // Large quantum: whole program inside one slice.
        {50'000'000, 10'000'000, 1'000'000, 0.25},
    };
    for (const GridCell &cell : grid) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed)
            runCell(cell, seed);
    }
}

TEST(SliceEvents, TrueQuantumScaleMatchesPerOpStepping)
{
    // The production scale: paper-faithful 1.5e8-cycle quanta with the
    // default jitter/tick knobs.  Per-op stepping can still afford this
    // at test sizes; the equality here is what licenses the fast path
    // for the fig6/fig15/channel_matrix experiments.
    GridCell cell{150'000'000, 80'000'000, 4'000'000, 0.25};
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        runCell(cell, seed);
}

TEST(SliceEvents, NestedUnderLowestClockIgnoresSliceEvents)
{
    // Nested TimeSlice must stay per-op no matter what the flag says:
    // the parent has to interleave the other core's LLC traffic between
    // ops.  Equality of the two flag settings proves the flag is inert
    // when nested.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        auto run = [&](bool slice_events) {
            struct Out
            {
                std::unique_ptr<RandomProgram> p0, p1, p2;
                std::unique_ptr<sim::MultiCoreHierarchy> h;
                std::uint64_t end = 0;
            };
            Out out;
            sim::MultiCoreConfig mc;
            mc.cores = 2;
            mc.seed = seed;
            out.p0 = std::make_unique<RandomProgram>(seed * 5, 900,
                                                     0x10000);
            out.p1 = std::make_unique<RandomProgram>(seed * 7, 800,
                                                     0x50000);
            out.p2 = std::make_unique<RandomProgram>(seed * 9, 700,
                                                     0x90000);
            out.h = std::make_unique<sim::MultiCoreHierarchy>(mc);
            sim::MultiCorePort port(*out.h);

            TimeSlicePolicyConfig pc;
            pc.quantum = 5'000;
            pc.quantum_jitter = 2'000;
            pc.switch_cost = 300;
            pc.kernel_noise_lines = 8;
            pc.background_prob = 0.3;
            pc.background_lines = 32;
            pc.tick_period = 2'500;
            pc.tick_lines = 4;
            pc.slice_events = slice_events;

            LowestClock policy;
            policy.nest(0, std::make_unique<TimeSlice>(pc));
            EngineConfig ec;
            ec.seed = seed;
            Engine engine(port, timing::Uarch::intelXeonE52690(), policy,
                          ec);
            const ThreadSpec specs[3] = {
                {out.p0.get(), 0}, {out.p1.get(), 0}, {out.p2.get(), 1}};
            out.end = engine.run(specs, 1);
            return out;
        };
        const auto off = run(false);
        const auto on = run(true);
        EXPECT_EQ(off.end, on.end) << "seed " << seed;
        expectSameTrace(*off.p0, *on.p0);
        expectSameTrace(*off.p1, *on.p1);
        expectSameTrace(*off.p2, *on.p2);
        EXPECT_EQ(off.h->backInvalidations(), on.h->backInvalidations());
    }
}

// ------------------------------------------------------ run compression

/** Everything a compressed and a per-op run must agree on. */
struct CompressionRun
{
    std::vector<channel::Sample> samples;
    std::vector<sim::HitLevel> encode_levels;
    ThreadStats s0, s1;
    std::vector<sim::LevelStats> levels; //!< per level: 4 threads, total
    std::uint64_t end = 0;
    std::uint64_t next_draw = 0;
    std::vector<sim::CacheSet> l1_sets;
    std::uint64_t compressed = 0;
};

void
expectSameRun(const CompressionRun &per_op, const CompressionRun &fast,
              const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(per_op.end, fast.end);
    EXPECT_EQ(per_op.next_draw, fast.next_draw);
    ASSERT_EQ(per_op.samples.size(), fast.samples.size());
    for (std::size_t i = 0; i < per_op.samples.size(); ++i) {
        EXPECT_EQ(per_op.samples[i].tsc, fast.samples[i].tsc) << i;
        EXPECT_EQ(per_op.samples[i].latency, fast.samples[i].latency) << i;
        EXPECT_EQ(per_op.samples[i].level, fast.samples[i].level) << i;
    }
    EXPECT_EQ(per_op.encode_levels, fast.encode_levels);
    expectSameStats(per_op.s0, fast.s0);
    expectSameStats(per_op.s1, fast.s1);
    ASSERT_EQ(per_op.levels.size(), fast.levels.size());
    for (std::size_t i = 0; i < per_op.levels.size(); ++i) {
        EXPECT_EQ(per_op.levels[i].accesses, fast.levels[i].accesses) << i;
        EXPECT_EQ(per_op.levels[i].hits, fast.levels[i].hits) << i;
        EXPECT_EQ(per_op.levels[i].misses, fast.levels[i].misses) << i;
        EXPECT_EQ(per_op.levels[i].writebacks, fast.levels[i].writebacks)
            << i;
    }
    ASSERT_EQ(per_op.l1_sets.size(), fast.l1_sets.size());
    for (std::size_t i = 0; i < per_op.l1_sets.size(); ++i)
        EXPECT_TRUE(per_op.l1_sets[i] == fast.l1_sets[i]) << "L1 set " << i;
    EXPECT_EQ(per_op.compressed, 0u);
}

/** Cache-side outcome shared by every compression run. */
void
captureCaches(const sim::CacheHierarchy &h,
              const TimeSlicePolicyConfig &tc, CompressionRun &out)
{
    for (const sim::Cache *level : {&h.l1(), &h.l2(), &h.llc()}) {
        for (sim::ThreadId t : {sim::ThreadId{0}, sim::ThreadId{1},
                                tc.kernel_thread, tc.background_thread})
            out.levels.push_back(level->counters().forThread(t));
        out.levels.push_back(level->counters().total());
    }
    for (std::uint32_t s = 0; s < h.l1().storageSets(); ++s)
        out.l1_sets.push_back(h.l1().cacheSet(s));
}

/** One time-sliced LRU-channel session (the Fig. 6/8/15 shape). */
struct SessionCase
{
    channel::ChannelId channel = channel::ChannelId::LruAlg1;
    timing::Uarch uarch = timing::Uarch::intelXeonE52690();
    sim::ReplPolicyKind policy = sim::ReplPolicyKind::TreePlru;
    std::uint8_t bit = 1;
    TimeSlicePolicyConfig os{};
    std::uint64_t tr = 25'000'000;
    std::uint64_t samples = 12;
    std::uint32_t d = 8;
    bool shared_same_vaddr = true;
    bool prefetcher = false;
    sim::SecureMode secure = sim::SecureMode::None;
    sim::PlMode pl_mode = sim::PlMode::Disabled;
    bool lock_line = false;
    sim::WriteHitPolicy write_hit = sim::WriteHitPolicy::WriteBack;
    std::uint64_t seed = 1;
};

CompressionRun
runSessionCase(const SessionCase &c, bool slice_events)
{
    sim::HierarchyConfig hc;
    hc.l1 = sim::CacheConfig::intelL1d(c.policy);
    hc.l1.seed = c.seed;
    hc.l1.secure = c.secure;
    for (sim::CacheConfig *cc : {&hc.l1, &hc.l2, &hc.llc})
        cc->write_hit = c.write_hit;
    hc.l1_way_predictor = c.uarch.way_predictor;
    hc.l1_pl_mode = c.pl_mode;
    hc.enable_prefetcher = c.prefetcher;
    sim::CacheHierarchy h(hc);
    sim::SingleCorePort port(h);

    const channel::ChannelLayout layout(hc.l1, 7, 63, c.shared_same_vaddr);
    channel::ChannelPairConfig pc;
    pc.message = channel::Bits{c.bit};
    pc.infinite = true;
    pc.tr = c.tr;
    pc.d = c.d;
    pc.encode_gap = 20'000;
    pc.max_samples = c.samples;
    pc.lock_line = c.lock_line;
    channel::ChannelPair pair(c.channel, layout, pc);

    TimeSlicePolicyConfig tc = c.os;
    tc.slice_events = slice_events;
    TimeSlice policy(tc);
    EngineConfig ec;
    ec.seed = c.seed;
    ec.max_cycles = 4'000'000'000'000ULL;
    Engine engine(port, c.uarch, policy, ec);

    CompressionRun out;
    out.end = engine.run(pair.sender(), pair.receiver(), 1);
    out.next_draw = engine.rng()();
    out.samples = pair.samples();
    out.encode_levels = pair.sender().encodeLevels();
    out.s0 = engine.stats(0);
    out.s1 = engine.stats(1);
    out.compressed = engine.compressedIterations();
    captureCaches(h, tc, out);
    return out;
}

/** Run both modes; returns the compressing run's iteration count. */
std::uint64_t
compareSession(const SessionCase &c, const std::string &what)
{
    const CompressionRun per_op = runSessionCase(c, false);
    const CompressionRun fast = runSessionCase(c, true);
    expectSameRun(per_op, fast, what);
    EXPECT_FALSE(fast.samples.empty()) << what;
    return fast.compressed;
}

/** The small-scale OS knobs of runCell (many slices per session). */
TimeSlicePolicyConfig
smallOs(std::uint64_t quantum, std::uint64_t quantum_jitter,
        std::uint64_t tick_period)
{
    TimeSlicePolicyConfig tc;
    tc.quantum = quantum;
    tc.quantum_jitter = quantum_jitter;
    tc.switch_cost = 300;
    tc.kernel_noise_lines = 8;
    tc.background_lines = 32;
    tc.tick_period = tick_period;
    tc.tick_lines = 4;
    return tc;
}

TEST(RunCompression, LruSessionsMatchPerOpAcrossPoliciesAndUarchs)
{
    const timing::Uarch uarchs[] = {timing::Uarch::intelXeonE52690(),
                                    timing::Uarch::amdEpyc7571(),
                                    timing::Uarch::intelXeonE31245v5()};
    const sim::ReplPolicyKind policies[] = {
        sim::ReplPolicyKind::TrueLru, sim::ReplPolicyKind::TreePlru,
        sim::ReplPolicyKind::BitPlru, sim::ReplPolicyKind::Fifo,
        sim::ReplPolicyKind::Random,  sim::ReplPolicyKind::Srrip};
    for (const auto &uarch : uarchs) {
        for (const auto policy : policies) {
            for (const auto channel : {channel::ChannelId::LruAlg1,
                                       channel::ChannelId::LruAlg2}) {
                for (std::uint8_t bit : {0, 1}) {
                    SessionCase c;
                    c.uarch = uarch;
                    c.policy = policy;
                    c.channel = channel;
                    c.bit = bit;
                    c.d = channel == channel::ChannelId::LruAlg1 ? 8 : 7;
                    c.shared_same_vaddr = !uarch.way_predictor;
                    c.seed = 3 + bit;
                    const std::string what =
                        uarch.name + " " +
                        std::string(sim::replPolicyName(policy)) +
                        (channel == channel::ChannelId::LruAlg1 ? " alg1"
                                                                : " alg2") +
                        " bit " + std::to_string(bit);
                    // Sender slices at the true quantum idle for
                    // thousands of iterations between ticks.
                    EXPECT_GT(compareSession(c, what), 1000u) << what;
                }
            }
        }
    }
}

TEST(RunCompression, TickAndQuantumGridMatchesPerOp)
{
    struct Cell
    {
        TimeSlicePolicyConfig os;
        std::uint64_t tr;
        std::uint64_t samples;
    };
    const Cell grid[] = {
        // Quanta shorter than a bit period: rarely a whole iteration.
        {smallOs(5'000, 2'000, 2'500), 20'000, 40},
        // Ticks every few bits.
        {smallOs(200'000, 50'000, 20'000), 150'000, 30},
        // Ticks off: runs end only at slice boundaries.
        {smallOs(2'000'000, 500'000, 0), 1'000'000, 20},
        // Ticks landing inside iterations and on bit deadlines.
        {smallOs(600'000, 0, 6'000), 400'000, 20},
        // The production knobs: true 1.5e8-cycle quanta.
        {TimeSlicePolicyConfig{}, 50'000'000, 10},
    };
    for (std::size_t i = 0; i < std::size(grid); ++i) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            for (std::uint8_t bit : {0, 1}) {
                SessionCase c;
                c.os = grid[i].os;
                c.tr = grid[i].tr;
                c.samples = grid[i].samples;
                c.bit = bit;
                c.seed = seed;
                compareSession(c, "cell " + std::to_string(i) + " seed " +
                                      std::to_string(seed) + " bit " +
                                      std::to_string(bit));
            }
        }
    }
}

TEST(RunCompression, RefusedProofsStillMatchPerOp)
{
    struct Refusal
    {
        std::string what;
        SessionCase c;
        std::vector<std::uint8_t> bits = {0, 1};
    };
    std::vector<Refusal> cases;
    {
        // Dirty-state encoding into a write-through L1: every store
        // hit is forwarded downstream.
        SessionCase c;
        c.channel = channel::ChannelId::FlushDirty;
        c.write_hit = sim::WriteHitPolicy::WriteThrough;
        cases.push_back({"write-through store", c, {1}});
    }
    {
        SessionCase c;
        c.prefetcher = true;
        cases.push_back({"prefetcher", c});
    }
    {
        SessionCase c;
        c.secure = sim::SecureMode::Dawg;
        cases.push_back({"DAWG", c});
    }
    {
        SessionCase c;
        c.secure = sim::SecureMode::RandomFill;
        cases.push_back({"RandomFill", c});
    }
    {
        SessionCase c;
        c.pl_mode = sim::PlMode::FixedLruLock;
        c.lock_line = true;
        cases.push_back({"PL-locked line", c});
    }
    for (const Refusal &r : cases) {
        for (std::uint8_t bit : r.bits) {
            SessionCase c = r.c;
            c.bit = bit;
            EXPECT_EQ(compareSession(c, r.what), 0u) << r.what;
        }
    }
}

TEST(RunCompression, DirtyStateSenderOverWriteBackL1Compresses)
{
    // Re-storing an already-dirty line is a fixed point under
    // write-back; the proof must accept it and stay exact.
    for (std::uint8_t bit : {0, 1}) {
        SessionCase c;
        c.channel = channel::ChannelId::FlushDirty;
        c.bit = bit;
        EXPECT_GT(compareSession(c, "flush-dirty write-back"), 1000u);
    }
}

/**
 * A synthetic idle loop: every iteration accesses `refs` and spins to
 * the next multiple of `period`, and says so through steadyRun().
 */
class SteadyProgram : public ThreadProgram
{
  public:
    SteadyProgram(std::vector<sim::MemRef> refs, std::uint64_t period,
                  std::uint64_t iterations)
        : refs_(std::move(refs)), period_(period), left_(iterations)
    {}

    Op
    next(std::uint64_t now) override
    {
        if (step_ == 0 && left_ == 0)
            return Op::done();
        if (step_ < refs_.size())
            return Op::access(refs_[step_++]);
        step_ = 0;
        --left_;
        ++done_;
        return Op::spinUntil(deadlineAfter(now));
    }

    void
    onResult(const OpResult &result) override
    {
        levels_.push_back(result.level);
    }

    SteadyRun
    steadyRun(std::uint64_t now) const override
    {
        if (step_ != 0 || left_ == 0)
            return {};
        return SteadyRun{refs_, deadlineAfter(now), period_, left_};
    }

    void
    skipSteady(std::uint64_t, std::uint64_t iterations) override
    {
        left_ -= iterations;
        done_ += iterations;
        levels_.insert(levels_.end(), iterations * refs_.size(),
                       sim::HitLevel::L1);
    }

    std::uint64_t iterationsDone() const { return done_; }
    const std::vector<sim::HitLevel> &levels() const { return levels_; }

  private:
    std::uint64_t
    deadlineAfter(std::uint64_t now) const
    {
        return (now / period_ + 1) * period_;
    }

    std::vector<sim::MemRef> refs_;
    std::uint64_t period_;
    std::uint64_t left_;
    std::uint64_t done_ = 0;
    std::size_t step_ = 0;
    std::vector<sim::HitLevel> levels_;
};

/** A steady program beside a random one, both modes compared. */
std::uint64_t
compareSteadyProgram(sim::ReplPolicyKind repl,
                     const std::vector<sim::MemRef> &refs,
                     std::uint64_t seed, const std::string &what)
{
    auto run = [&](bool slice_events, std::uint64_t &done,
                   std::vector<sim::HitLevel> &levels,
                   std::vector<OpResult> &other) {
        sim::HierarchyConfig hc;
        hc.l1 = sim::CacheConfig::intelL1d(repl);
        sim::CacheHierarchy h(hc);
        sim::SingleCorePort port(h);
        TimeSlicePolicyConfig tc = smallOs(400'000, 100'000, 50'000);
        tc.slice_events = slice_events;
        TimeSlice policy(tc);
        EngineConfig ec;
        ec.seed = seed;
        Engine engine(port, timing::Uarch::intelXeonE52690(), policy, ec);
        SteadyProgram steady(refs, 700, 3'000);
        RandomProgram random(seed * 29, 3'000, 0x90000);
        CompressionRun out;
        out.end = engine.run(steady, random, 1);
        out.next_draw = engine.rng()();
        out.s0 = engine.stats(0);
        out.s1 = engine.stats(1);
        out.compressed = engine.compressedIterations();
        captureCaches(h, tc, out);
        done = steady.iterationsDone();
        levels = steady.levels();
        other = random.results();
        return out;
    };
    std::uint64_t done_a = 0, done_b = 0;
    std::vector<sim::HitLevel> levels_a, levels_b;
    std::vector<OpResult> other_a, other_b;
    const CompressionRun per_op = run(false, done_a, levels_a, other_a);
    const CompressionRun fast = run(true, done_b, levels_b, other_b);
    expectSameRun(per_op, fast, what);
    EXPECT_EQ(done_a, done_b) << what;
    EXPECT_EQ(levels_a, levels_b) << what;
    EXPECT_EQ(other_a.size(), other_b.size()) << what;
    for (std::size_t i = 0; i < std::min(other_a.size(), other_b.size());
         ++i) {
        EXPECT_EQ(other_a[i].level, other_b[i].level) << what << " " << i;
        EXPECT_EQ(other_a[i].measured, other_b[i].measured) << what;
        EXPECT_EQ(other_a[i].tsc, other_b[i].tsc) << what << " " << i;
    }
    return fast.compressed;
}

/** Line @p i of L1 set @p set (distinct tags, one 4 KiB page apart). */
sim::MemRef
setLine(std::uint32_t set, std::uint32_t i)
{
    const sim::Addr a = 0x40'0000 + set * 64 + i * 4096;
    return sim::MemRef::load(a);
}

TEST(RunCompression, SyntheticSteadyProgramMatchesPerOp)
{
    const std::vector<sim::MemRef> refs{setLine(3, 0), setLine(3, 1),
                                        setLine(9, 0)};
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (auto policy : {sim::ReplPolicyKind::TrueLru,
                            sim::ReplPolicyKind::TreePlru,
                            sim::ReplPolicyKind::BitPlru,
                            sim::ReplPolicyKind::Srrip}) {
            EXPECT_GT(compareSteadyProgram(policy, refs, seed,
                                           "steady " + std::to_string(seed)),
                      0u);
        }
    }
}

TEST(RunCompression, BitPlruCycleIsNeverAOneIterationFixedPoint)
{
    // Touching all eight ways of a Bit-PLRU set in order saturates the
    // MRU bits mid-pass, so the state after a pass cycles with period
    // eight and never equals the state before it.
    std::vector<sim::MemRef> refs;
    for (std::uint32_t i = 0; i < 8; ++i)
        refs.push_back(setLine(5, i));
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        EXPECT_EQ(compareSteadyProgram(sim::ReplPolicyKind::BitPlru, refs,
                                       seed, "bit-plru cycle"),
                  0u);
}

} // namespace
