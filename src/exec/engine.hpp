/**
 * @file
 * The execution engine: N thread programs, one memory system, one
 * pluggable arbitration policy.
 *
 * The paper's attack variants differ only in *how attacker and victim
 * interleave* — SMT hyperthreads sharing an L1, time-sliced sharing of
 * one context, and cross-core sharing of an inclusive LLC.  The engine
 * factors the part those settings share (program stepping, per-thread
 * clocks and telemetry, latency charging, deterministic seeding,
 * batched kernel bursts, the inclusion audit) out of the interleaving
 * itself, which becomes a pluggable ArbitrationPolicy:
 *
 *   RoundRobinSmt — per-op interleave of one core's hardware contexts
 *                   by lowest private clock (replaces SmtScheduler);
 *   TimeSlice     — quantum rotation on one core with OS context-switch
 *                   effects: kernel noise bursts, timer ticks and
 *                   background-process slices (replaces
 *                   TimeSliceScheduler);
 *   LowestClock   — cross-core arbitration: steps the core whose local
 *                   clock is furthest behind, serializing all shared-
 *                   level traffic on one deterministic global timeline
 *                   (replaces MultiCoreScheduler).
 *
 * Policies nest: LowestClock arbitrates *cores* and delegates each
 * core's intra-core schedule to a child policy — a RoundRobinSmt child
 * models a hyperthread pair on one core of a multi-core system, a
 * TimeSlice child models an OS time-slicing that core.  Cores without
 * an explicit child get a single-context leaf.  That composability is
 * what opens the combined-scenario matrix (`xcore_timesliced`,
 * `smt_multicore_traces`) without a fourth hand-rolled scheduler.
 *
 * Determinism: one engine-owned Xoshiro256 stream drives op jitter,
 * measurement noise and kernel bursts; the stepping order is a pure
 * function of thread clocks.  A given (programs, port, policy, seed)
 * tuple replays bit-identically.
 */

#ifndef LRULEAK_EXEC_ENGINE_HPP
#define LRULEAK_EXEC_ENGINE_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "exec/op.hpp"
#include "exec/thread_stats.hpp"
#include "sim/access_port.hpp"
#include "sim/random.hpp"
#include "timing/pointer_chase.hpp"
#include "timing/uarch.hpp"

namespace lruleak::exec {

/** Default inclusion-audit sampling period: debug builds sample, release
 *  builds skip (the walk costs a private-cache capacity scan).  Only
 *  ports with an inclusion invariant (multi-core) audit anything. */
#ifdef NDEBUG
inline constexpr std::uint32_t kDefaultAuditEvery = 0;
#else
inline constexpr std::uint32_t kDefaultAuditEvery = 1024;
#endif

/** Engine-level knobs shared by every arbitration policy. */
struct EngineConfig
{
    std::uint64_t max_cycles = 2'000'000'000ULL; //!< safety stop
    std::uint32_t op_overhead = 10; //!< non-memory work per op (address
                                    //!< arithmetic, loop control)
    std::uint32_t jitter = 4;       //!< uniform extra cycles per op,
                                    //!< models pipeline/port contention
    std::uint64_t seed = 42;
    /**
     * Run the port's inclusion audit every N executed operations; 0
     * disables it.  A violation throws std::logic_error naming the line.
     */
    std::uint32_t audit_every = kDefaultAuditEvery;
};

/** One thread program and the core its accesses are issued from. */
struct ThreadSpec
{
    ThreadProgram *program = nullptr;
    std::uint32_t core = 0;
};

class Engine;

/**
 * Decides which thread runs next and what the passage of time costs.
 * A policy is handed the subset of engine threads it schedules (the
 * whole set for a top-level policy, one core's group when nested under
 * LowestClock) and advances them through the engine's shared stepping
 * primitives.
 */
class ArbitrationPolicy
{
  public:
    virtual ~ArbitrationPolicy() = default;

    virtual std::string_view name() const = 0;

    /** Bind to a run.  @p threads are engine thread indices. */
    virtual void begin(Engine &engine,
                       std::span<const unsigned> threads) = 0;

    /**
     * Called by a nesting parent (LowestClock) before begin().  A
     * nested policy must keep step() one bounded event so the parent
     * can re-arbitrate between its children after every shared-level
     * access; a root policy is free to batch (TimeSlice's slice-event
     * fast path).  Default: nothing to adjust.
     */
    virtual void onNested() {}

    /**
     * Earliest time this policy could execute its next event, or
     * nullopt when it has nothing left to run (all threads done, or the
     * policy's stop condition — e.g. max_cycles at a slice boundary —
     * holds).  Used by a nesting parent to order its children; the
     * engine's run loop only calls step().
     */
    virtual std::optional<std::uint64_t>
    nextEventTime(const Engine &engine) const = 0;

    /**
     * Execute one bounded scheduling step.  Returns false — with no
     * side effects — when nextEventTime() would be nullopt, so the
     * run loop needs no separate probe per step.
     */
    virtual bool step(Engine &engine) = 0;
};

/**
 * The shared execution core.  Owns thread contexts (program, core
 * binding, private clock, spin state, telemetry), the RNG stream and
 * the measurement model; delegates *which thread advances when* to the
 * arbitration policy.
 */
class Engine
{
  public:
    Engine(sim::AccessPort &port, const timing::Uarch &uarch,
           ArbitrationPolicy &policy, EngineConfig config = {});

    /**
     * Run until thread @p primary yields Done (or the policy stops:
     * max_cycles elapsed, everything done).  Threads keep their spec
     * order as engine indices and scheduler thread ids.
     *
     * @return the final TSC value (global high-water clock).
     */
    std::uint64_t run(std::span<const ThreadSpec> threads,
                      unsigned primary);

    /** Classic two-program single-core shape (both on core 0). */
    std::uint64_t run(ThreadProgram &thread0, ThreadProgram &thread1,
                      unsigned primary = 1);

    /** TSC after the last run (subsequent runs continue from here). */
    std::uint64_t now() const { return now_; }

    // ----- state and primitives shared by arbitration policies -----

    /** One simulated thread's execution context. */
    struct Thread
    {
        ThreadProgram *program = nullptr;
        std::uint32_t core = 0;
        std::uint64_t clock = 0;      //!< private clock
        std::uint64_t spin_until = 0; //!< pending SpinUntil deadline
                                      //!< (TimeSlice bookkeeping)
        bool done = false;
        ThreadStats stats;
    };

    std::size_t threadCount() const { return threads_.size(); }
    Thread &thread(unsigned idx) { return threads_[idx]; }
    const Thread &thread(unsigned idx) const { return threads_[idx]; }
    /**
     * Telemetry of thread @p idx of the most recent run() — run()
     * rebuilds the thread contexts, so stats reset per run (unlike
     * now(), which persists).  Throws on an out-of-range index.
     */
    const ThreadStats &stats(unsigned idx) const
    {
        return threads_.at(idx).stats;
    }

    unsigned primary() const { return primary_; }
    const EngineConfig &config() const { return config_; }
    const timing::Uarch &uarch() const { return uarch_; }
    sim::AccessPort &port() { return port_; }
    sim::Xoshiro256 &rng() { return rng_; }

    /** Raise the global high-water clock to @p tsc (never lowers it). */
    void
    noteTime(std::uint64_t tsc)
    {
        if (tsc > now_)
            now_ = tsc;
    }

    /**
     * Execute one Access/Measure/Flush op of thread @p idx starting at
     * @p start: jitter draw, port access, result delivery, telemetry,
     * sampled inclusion audit.  Returns the op's cycle cost (latency +
     * op_overhead + jitter).  SpinUntil/Done are the policy's business.
     */
    std::uint64_t executeOp(unsigned idx, const Op &op,
                            std::uint64_t start);

    /**
     * Run compression: thread @p idx is at an op boundary at @p now (no
     * spin pending, nothing else due before @p horizon).  If its program
     * declares a steady run (ThreadProgram::steadyRun) and the port
     * proves the iteration a fixed point (AccessPort::creditFixedPoint),
     * advance the largest number of whole iterations that end at or
     * before @p horizon, within the declared count, as one event: the
     * same jitter draws, costs, telemetry, clocks and program state as
     * executing them op by op.  Returns the time the last compressed
     * iteration's spin ends, or 0 when nothing was compressed (no
     * declaration, no whole iteration fits, or the proof is refused).
     */
    std::uint64_t advanceSteadyRun(unsigned idx, std::uint64_t now,
                                   std::uint64_t horizon);

    /** Iterations advanced by advanceSteadyRun since construction. */
    std::uint64_t compressedIterations() const { return compressed_; }

    /**
     * One clock-arbitrated step of thread @p idx: yield the next op at
     * the thread's private clock, then either finish it (Done), busy-
     * wait (clock = max(clock + 1, until)) or execute and charge the
     * cost.  The shared stepping body of RoundRobinSmt and LowestClock.
     */
    void stepClockThread(unsigned idx);

    /**
     * Batched kernel-noise burst issued from @p core under thread id
     * @p tid: touches mean_lines on average (uniform in
     * [mean/2, 3*mean/2]) out of a footprint_lines working set starting
     * at @p base, through the port's batch interface.  Returns the
     * summed access latency; the caller charges it to its timeline.
     */
    std::uint64_t kernelBurst(std::uint32_t core, sim::ThreadId tid,
                              sim::Addr base, std::uint64_t footprint_lines,
                              std::uint64_t mean_lines);

  private:
    void maybeAudit();

    sim::AccessPort &port_;
    timing::Uarch uarch_;
    timing::MeasurementModel model_;
    ArbitrationPolicy &policy_;
    EngineConfig config_;
    sim::Xoshiro256 rng_;
    std::uint64_t now_ = 0;
    std::uint64_t ops_since_audit_ = 0;
    std::uint64_t compressed_ = 0;
    std::vector<Thread> threads_;
    unsigned primary_ = 0;
    std::vector<sim::MemRef> burst_refs_;     //!< reused burst buffer
    std::vector<sim::HitLevel> burst_levels_; //!< reused burst buffer
    std::vector<sim::HitLevel> run_levels_;   //!< reused AccessRun buffer
};

// ------------------------------------------------- arbitration policies

/**
 * Per-op interleave of one core's hardware contexts: always step the
 * live thread whose private clock is furthest behind (ties toward the
 * lowest index).  With two threads this is the fine-grained, phase-
 * drifting interleaving real SMT co-residency gives the paper's
 * Section V-A experiments.
 */
class RoundRobinSmt final : public ArbitrationPolicy
{
  public:
    std::string_view name() const override { return "rr-smt"; }
    void begin(Engine &engine,
               std::span<const unsigned> threads) override;
    std::optional<std::uint64_t>
    nextEventTime(const Engine &engine) const override;
    bool step(Engine &engine) override;

  private:
    /** Live thread with the lowest clock, or threadCount() if none. */
    unsigned pick(const Engine &engine) const;

    std::vector<unsigned> threads_;
};

/** Knobs of the time-sliced (OS scheduling) model. */
struct TimeSlicePolicyConfig
{
    /**
     * Scheduling quantum in cycles (~40 ms at 3.8 GHz).  Two CPU-bound
     * tasks on CFS get long slices; crucially the quantum is *larger*
     * than the paper's Tr values (up to 4.5e8), so several receiver
     * measurements run inside one slice and only the first one after a
     * sender slice reflects the sender — the mechanism behind Fig. 6's
     * ~30% ceiling.
     */
    std::uint64_t quantum = 150'000'000;
    std::uint64_t quantum_jitter = 80'000'000; //!< uniform extra per slice
    std::uint32_t switch_cost = 3'000;     //!< direct context-switch cost
    std::uint32_t kernel_noise_lines = 48; //!< mean kernel lines touched
                                           //!< per switch (spread over
                                           //!< all sets)
    double background_prob = 0.25; //!< chance a third process takes a
                                   //!< slice instead of the threads
    std::uint32_t background_lines = 1024; //!< its cache footprint
    /**
     * OS timer tick: every tick_period cycles the kernel interrupts the
     * running task and touches a few lines (timer/RCU/softirq work).
     * This is what ages the sender's imprint on the LRU state while the
     * receiver spins — the decay that caps Fig. 6's curves.
     */
    std::uint64_t tick_period = 4'000'000; //!< ~1 ms at ~4 GHz
    std::uint32_t tick_lines = 24;         //!< mean lines per tick

    /**
     * Slice-event fast path: when TimeSlice is the ROOT policy (not
     * nested under LowestClock), one step() call advances the whole
     * slice — open, run the resident thread to the slice end, close —
     * instead of one op per step.  Within a slice only the resident
     * thread ever runs, so nothing else can act between its ops.
     *
     * Inside the slice the fast path also compresses steady runs: at
     * an op boundary with no tick due, a program that declares one
     * (ThreadProgram::steadyRun — the LRU sender idling on L1 hits) and
     * whose iteration the port proves a fixed point
     * (AccessPort::creditFixedPoint) advances every whole iteration
     * that ends by the next tick or the slice end as one event
     * (Engine::advanceSteadyRun).  Ticks, background slices and slice
     * boundaries always run op by op.  The op order, every RNG draw,
     * every latency, the clocks, the telemetry and the cache state are
     * identical to per-op stepping (tests/test_slice_events.cpp proves
     * it against `slice_events = false`, the per-op reference).  Nested
     * instances ignore this and stay per-op: the parent must be able to
     * interleave other cores' shared-LLC traffic between ops.
     */
    bool slice_events = true;

    /** Kernel working set in lines (spread uniformly over all sets). */
    std::uint64_t kernel_footprint_lines = 4096;
    sim::Addr kernel_base = 0x7f00'0000'0000ULL;
    sim::Addr background_base = 0x6e00'0000'0000ULL;
    /** Thread ids for kernel / background accesses in perf counters. */
    sim::ThreadId kernel_thread = 1000;
    sim::ThreadId background_thread = 1001;
};

/**
 * Quantum rotation of one core's threads with OS context-switch
 * effects.  Only one thread runs at a time; every switch executes
 * kernel scheduler code whose cache footprint sprays lines across
 * random sets — the pollution that limits the time-sliced channel in
 * the paper.  Works for any thread count (the seed scheduler was
 * hard-wired to two) and, nested under LowestClock, for any core.
 */
class TimeSlice final : public ArbitrationPolicy
{
  public:
    explicit TimeSlice(TimeSlicePolicyConfig config = {})
        : config_(config)
    {}

    std::string_view name() const override { return "timeslice"; }
    void begin(Engine &engine,
               std::span<const unsigned> threads) override;
    void onNested() override { nested_ = true; }
    std::optional<std::uint64_t>
    nextEventTime(const Engine &engine) const override;
    bool step(Engine &engine) override;

    /** This core's local timeline. */
    std::uint64_t coreNow() const { return now_; }

    const TimeSlicePolicyConfig &config() const { return config_; }

  private:
    bool anyLive(const Engine &engine) const;
    void serviceTicks(Engine &engine);
    void contextSwitchNoise(Engine &engine);
    void backgroundSlice(Engine &engine, std::uint64_t slice_end);
    void openSlice(Engine &engine);
    void closeSlice(Engine &engine);
    void runInSlice(Engine &engine);
    /** Root fast path: run the opened slice to its end, then close it. */
    void runSliceEvents(Engine &engine);

    enum class State
    {
        NeedSlice, //!< next step opens a slice (or a background one)
        InSlice,   //!< next step runs one iteration of the active thread
    };

    TimeSlicePolicyConfig config_;
    std::vector<unsigned> threads_;
    std::uint32_t core_ = 0;
    bool nested_ = false; //!< under LowestClock: slice events disabled
    State state_ = State::NeedSlice;
    std::size_t active_ = 0;        //!< index into threads_
    std::uint64_t now_ = 0;         //!< core-local clock
    std::uint64_t slice_end_ = 0;
    std::uint64_t next_tick_ = 0;
};

/**
 * Cross-core arbitration: each core runs its threads under a child
 * policy (explicitly nested, or a single-context RoundRobinSmt leaf by
 * default), and the engine always steps the core whose next event is
 * earliest (ties toward the lowest core id).  Every core makes progress
 * at hardware speed, the interleaving at the shared level is fine-
 * grained and phase-drifting, and the whole run is deterministic for a
 * given seed.
 */
class LowestClock final : public ArbitrationPolicy
{
  public:
    LowestClock() = default;

    /**
     * Nest a child policy for one core's thread group.  Cores without
     * an explicit child get a RoundRobinSmt leaf (for a single bound
     * thread that degenerates to plain private-clock stepping).
     */
    void nest(std::uint32_t core,
              std::unique_ptr<ArbitrationPolicy> child);

    std::string_view name() const override { return "lowest-clock"; }
    void begin(Engine &engine,
               std::span<const unsigned> threads) override;
    std::optional<std::uint64_t>
    nextEventTime(const Engine &engine) const override;
    bool step(Engine &engine) override;

  private:
    /** Child with the earliest next event (and that time), or
     *  index == children_.size() when nothing is runnable. */
    struct Pick
    {
        std::size_t index = 0;
        std::uint64_t time = 0;
    };
    Pick pick(const Engine &engine) const;

    struct Child
    {
        std::uint32_t core = 0;
        ArbitrationPolicy *policy = nullptr;
    };

    /** Explicitly nested per-core policies, in nest() order. */
    std::vector<std::pair<std::uint32_t,
                          std::unique_ptr<ArbitrationPolicy>>> nested_;
    std::vector<std::unique_ptr<ArbitrationPolicy>> leaves_; //!< implicit
    std::vector<Child> children_; //!< active groups, ascending core id
};

// ------------------------------------------------------ noise programs

/** Knobs of a background-noise core. */
struct NoiseConfig
{
    /**
     * The footprint is a rectangle of cache sets x tags: accesses pick a
     * random set within `footprint_sets` consecutive LLC sets from
     * `base` and a random one of `lines_per_set` distinct tags mapping
     * to it (`set_stride` apart = one full LLC wrap).  The per-set depth
     * matters: more tags per set than the private associativity keeps
     * the core missing privately and streaming through the shared LLC,
     * where it contends for ways.  A flat footprint that fits the
     * private caches goes quiet after warm-up and perturbs nothing.
     */
    std::uint32_t footprint_sets = 128;   //!< consecutive sets covered
    std::uint32_t lines_per_set = 24;     //!< distinct tags per set
    sim::Addr set_stride = 2048 * 64;     //!< bytes between same-set tags
                                          //!< (LLC sets x line size)
    std::uint32_t burst = 32;             //!< accesses per burst
    std::uint64_t gap = 100;              //!< spin between bursts (cycles)
    std::uint64_t seed = 1;
    sim::Addr base = 0x6000'0000'0000ULL; //!< footprint base address
};

/**
 * A background process pinned to its own core: bursts of uniformly
 * random accesses over a private sets-x-tags footprint, separated by
 * short spins.  Every covered set sees contention for LLC ways, so the
 * core both ages replacement state and causes LLC evictions (hence
 * back-invalidations) at a rate set by its knobs.  Never yields Done;
 * deterministic for a given seed.
 */
class NoiseProgram : public ThreadProgram
{
  public:
    explicit NoiseProgram(NoiseConfig config);

    Op next(std::uint64_t now) override;

  private:
    NoiseConfig config_;
    sim::Xoshiro256 rng_;
    std::uint32_t in_burst_ = 0;
};

} // namespace lruleak::exec

#endif // LRULEAK_EXEC_ENGINE_HPP
