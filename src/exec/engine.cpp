/**
 * @file
 * Execution engine implementation.
 *
 * Behaviour contract: with the matching arbitration policy, the engine
 * replays the exact operation order and RNG draw sequence of the
 * scheduler it replaced (SmtScheduler / TimeSliceScheduler /
 * MultiCoreScheduler), so every pre-existing golden snapshot stays
 * byte-identical.  Anything that would change a draw order — jitter
 * before the access, measurement noise after it, kernel-burst sizing
 * before its lines — is deliberately kept in the legacy sequence.
 */

#include "exec/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace lruleak::exec {

// --------------------------------------------------------------- engine

Engine::Engine(sim::AccessPort &port, const timing::Uarch &uarch,
               ArbitrationPolicy &policy, EngineConfig config)
    : port_(port), uarch_(uarch), model_(uarch), policy_(policy),
      config_(config), rng_(config.seed)
{
}

void
Engine::maybeAudit()
{
    if (config_.audit_every == 0)
        return;
    if (++ops_since_audit_ < config_.audit_every)
        return;
    ops_since_audit_ = 0;
    if (auto violation = port_.auditInclusion())
        throw std::logic_error(*violation);
}

std::uint64_t
Engine::executeOp(unsigned idx, const Op &op, std::uint64_t start)
{
    Thread &t = threads_[idx];
    const std::uint64_t jitter = config_.jitter ? rng_.below(config_.jitter)
                                                : 0;
    switch (op.kind) {
      case OpKind::Access: {
        const auto pa = port_.access(t.core, op.ref, op.lock_req);
        OpResult out;
        out.kind = OpKind::Access;
        out.level = pa.level;
        out.writebacks = pa.writebacks;
        out.tsc = start;
        t.program->onResult(out);
        ++t.stats.accesses;
        maybeAudit();
        // Write-back stalls are deterministic and added after the
        // existing jitter draw, so read-only traces keep the exact RNG
        // sequence (and costs) of the pre-write-path engine.
        const std::uint64_t cost =
            uarch_.latency(pa.level) + config_.op_overhead + jitter +
            std::uint64_t{pa.writebacks} * uarch_.wb_latency;
        t.stats.busy_cycles += cost;
        return cost;
      }
      case OpKind::AccessRun: {
        const std::size_t n = op.run_refs.size();
        if (n == 0)
            return 0;
        run_levels_.resize(n);
        const std::uint64_t wbs =
            port_.accessRun(t.core, op.run_refs, run_levels_);
        // Charge exactly what n individual Access ops would have cost:
        // per-access latency, overhead and one jitter draw each (the
        // draw at the top of this function covers the first access).
        std::uint64_t cost = uarch_.latency(run_levels_[0]) +
                             config_.op_overhead + jitter;
        for (std::size_t i = 1; i < n; ++i)
            cost += uarch_.latency(run_levels_[i]) + config_.op_overhead +
                    (config_.jitter ? rng_.below(config_.jitter) : 0);
        cost += wbs * uarch_.wb_latency;
        OpResult out;
        out.kind = OpKind::AccessRun;
        out.level = run_levels_[0];
        out.writebacks = static_cast<std::uint32_t>(wbs);
        out.tsc = start;
        t.program->onResult(out);
        t.stats.accesses += n;
        maybeAudit();
        t.stats.busy_cycles += cost;
        return cost;
      }
      case OpKind::Measure: {
        const auto pa = port_.access(t.core, op.ref, op.lock_req);
        OpResult out;
        out.kind = OpKind::Measure;
        out.level = pa.level;
        out.writebacks = pa.writebacks;
        out.tsc = start;
        const std::uint32_t wb_stall =
            (op.chain_writebacks + pa.writebacks) * uarch_.wb_latency;
        out.measured =
            model_.chase(op.chain_levels, pa.level, rng_) + wb_stall;
        t.program->onResult(out);
        ++t.stats.measures;
        maybeAudit();
        const std::uint64_t cost = uarch_.latency(pa.level) +
                                   config_.op_overhead + jitter +
                                   std::uint64_t{pa.writebacks} *
                                       uarch_.wb_latency;
        t.stats.busy_cycles += cost;
        return cost;
      }
      case OpKind::Flush: {
        const auto fr = port_.flush(op.ref);
        OpResult out;
        out.kind = OpKind::Flush;
        out.tsc = start;
        t.program->onResult(out);
        ++t.stats.flushes;
        maybeAudit();
        // clflush drains to memory: charge a memory round trip, plus
        // the write-back when the dropped copy was dirty.
        const std::uint64_t cost =
            uarch_.mem_latency + config_.op_overhead + jitter +
            (fr.dirty ? uarch_.wb_latency : 0);
        t.stats.busy_cycles += cost;
        return cost;
      }
      case OpKind::MeasureFlush: {
        const auto fr = port_.flush(op.ref);
        OpResult out;
        out.kind = OpKind::MeasureFlush;
        out.level = fr.dirty ? sim::HitLevel::Memory : sim::HitLevel::L1;
        out.measured = model_.flushMeasure(fr.dirty, rng_);
        out.tsc = start;
        t.program->onResult(out);
        ++t.stats.measures;
        ++t.stats.flushes;
        maybeAudit();
        const std::uint64_t cost =
            uarch_.mem_latency + config_.op_overhead + jitter +
            (fr.dirty ? uarch_.wb_latency : 0);
        t.stats.busy_cycles += cost;
        return cost;
      }
      case OpKind::SpinUntil:
      case OpKind::Done:
        return 0; // handled by the arbitration policy
    }
    return 0;
}

std::uint64_t
Engine::advanceSteadyRun(unsigned idx, std::uint64_t now,
                         std::uint64_t horizon)
{
    Thread &t = threads_[idx];
    const SteadyRun run = t.program->steadyRun(now);
    if (run.iterations == 0 || run.deadline > horizon)
        return 0;

    // An iteration is as declared only if its accesses finish before
    // its deadline.  Bound them by the costliest jitter draw so no
    // draw has to be taken back: iteration 0 starts at now, each later
    // one at the previous deadline.
    const std::uint64_t n = run.refs.size();
    const std::uint64_t hit_cost =
        uarch_.latency(sim::HitLevel::L1) + config_.op_overhead;
    const std::uint64_t max_busy =
        n * (hit_cost + (config_.jitter ? config_.jitter - 1 : 0));
    if (now + max_busy >= run.deadline)
        return 0;
    std::uint64_t k = 1;
    if (run.period > max_busy)
        k = std::min(run.iterations,
                     (horizon - run.deadline) / run.period + 1);

    if (!port_.creditFixedPoint(t.core, run.refs, k))
        return 0;

    // Replay the per-op charges: one jitter draw per access, in order.
    // The last iteration's draws also place its SpinUntil yield.
    const std::uint64_t accesses = k * n;
    std::uint64_t jitter = 0;
    std::uint64_t last_jitter = 0;
    if (config_.jitter) {
        for (std::uint64_t a = 0; a < accesses; ++a) {
            const std::uint64_t draw = rng_.below(config_.jitter);
            jitter += draw;
            if (a + n >= accesses)
                last_jitter += draw;
        }
    }
    const std::uint64_t last_start =
        k == 1 ? now : run.deadline + (k - 2) * run.period;
    const std::uint64_t deadline = run.deadline + (k - 1) * run.period;
    t.clock = last_start + n * hit_cost + last_jitter;
    t.spin_until = deadline;
    t.stats.accesses += accesses;
    t.stats.spins += k;
    t.stats.busy_cycles += accesses * hit_cost + jitter;
    if (config_.audit_every != 0) {
        // The state is unchanged throughout, so the audits the per-op
        // path would have sampled all see the same state: one suffices.
        const std::uint64_t ops = ops_since_audit_ + accesses;
        ops_since_audit_ = ops % config_.audit_every;
        if (ops >= config_.audit_every) {
            if (auto violation = port_.auditInclusion())
                throw std::logic_error(*violation);
        }
    }
    t.program->skipSteady(now, k);
    noteTime(deadline);
    compressed_ += k;
    return deadline;
}

void
Engine::stepClockThread(unsigned idx)
{
    Thread &t = threads_[idx];
    const Op op = t.program->next(t.clock);

    if (op.kind == OpKind::Done) {
        t.done = true;
        return;
    }
    if (op.kind == OpKind::SpinUntil) {
        // Busy wait: consume time, no cache traffic.  Always make
        // forward progress even for a stale deadline.
        t.clock = std::max(t.clock + 1, op.until);
        ++t.stats.spins;
    } else {
        t.clock += executeOp(idx, op, t.clock);
    }
    noteTime(t.clock);
}

std::uint64_t
Engine::kernelBurst(std::uint32_t core, sim::ThreadId tid, sim::Addr base,
                    std::uint64_t footprint_lines, std::uint64_t mean_lines)
{
    if (mean_lines == 0)
        return 0;
    // The kernel touches a variable number of lines from its working
    // set; the mean is mean_lines.  The whole burst is one batched
    // replay — only the summed latency matters.
    const std::uint64_t count = mean_lines / 2 + rng_.below(mean_lines + 1);
    burst_refs_.resize(count);
    burst_levels_.resize(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const sim::Addr line = base + rng_.below(footprint_lines) * 64;
        burst_refs_[i] = sim::MemRef{line, line, tid, false};
    }
    port_.accessBatch(core, burst_refs_, burst_levels_);
    std::uint64_t cycles = 0;
    for (std::uint64_t i = 0; i < count; ++i)
        cycles += uarch_.latency(burst_levels_[i]);
    return cycles;
}

std::uint64_t
Engine::run(std::span<const ThreadSpec> specs, unsigned primary)
{
    if (specs.empty())
        throw std::invalid_argument("Engine: at least one thread required");
    if (primary >= specs.size())
        throw std::invalid_argument("Engine: bad primary thread");

    threads_.clear();
    threads_.reserve(specs.size());
    std::vector<unsigned> indices(specs.size());
    for (unsigned i = 0; i < specs.size(); ++i) {
        const ThreadSpec &spec = specs[i];
        if (spec.program == nullptr)
            throw std::invalid_argument("Engine: null thread program");
        if (spec.core >= port_.cores())
            throw std::invalid_argument(
                "Engine: thread bound to a core the port does not have");
        Thread t;
        t.program = spec.program;
        t.core = spec.core;
        t.clock = now_;
        threads_.push_back(t);
        spec.program->setThreadId(i);
        indices[i] = i;
    }
    primary_ = primary;
    policy_.begin(*this, indices);

    while (!threads_[primary_].done) {
        if (!policy_.step(*this))
            break;
    }
    return now_;
}

std::uint64_t
Engine::run(ThreadProgram &thread0, ThreadProgram &thread1, unsigned primary)
{
    const ThreadSpec specs[2] = {{&thread0, 0}, {&thread1, 0}};
    return run(specs, primary);
}

// -------------------------------------------------------- RoundRobinSmt

void
RoundRobinSmt::begin(Engine &, std::span<const unsigned> threads)
{
    threads_.assign(threads.begin(), threads.end());
}

unsigned
RoundRobinSmt::pick(const Engine &engine) const
{
    // Step whichever live thread is furthest behind in time (ties break
    // toward the lowest index).
    unsigned best = static_cast<unsigned>(engine.threadCount());
    for (unsigned t : threads_) {
        const auto &ctx = engine.thread(t);
        if (ctx.done)
            continue;
        if (best == engine.threadCount() ||
            ctx.clock < engine.thread(best).clock)
            best = t;
    }
    return best;
}

std::optional<std::uint64_t>
RoundRobinSmt::nextEventTime(const Engine &engine) const
{
    if (engine.now() >= engine.config().max_cycles)
        return std::nullopt;
    const unsigned t = pick(engine);
    if (t == engine.threadCount())
        return std::nullopt;
    return engine.thread(t).clock;
}

bool
RoundRobinSmt::step(Engine &engine)
{
    if (engine.now() >= engine.config().max_cycles)
        return false;
    const unsigned t = pick(engine);
    if (t == engine.threadCount())
        return false;
    engine.stepClockThread(t);
    return true;
}

// ------------------------------------------------------------ TimeSlice

void
TimeSlice::begin(Engine &engine, std::span<const unsigned> threads)
{
    if (threads.empty())
        throw std::invalid_argument(
            "TimeSlice: at least one thread required");
    threads_.assign(threads.begin(), threads.end());
    core_ = engine.thread(threads_[0]).core;
    for (unsigned t : threads_) {
        if (engine.thread(t).core != core_)
            throw std::invalid_argument(
                "TimeSlice: all threads must share one core (nest under "
                "LowestClock for multi-core time-slicing)");
    }
    state_ = State::NeedSlice;
    active_ = 0;
    now_ = engine.now();
    slice_end_ = 0;
    next_tick_ = 0;
}

bool
TimeSlice::anyLive(const Engine &engine) const
{
    for (unsigned t : threads_) {
        if (!engine.thread(t).done)
            return true;
    }
    return false;
}

std::optional<std::uint64_t>
TimeSlice::nextEventTime(const Engine &engine) const
{
    if (!anyLive(engine))
        return std::nullopt;
    // max_cycles is checked at slice boundaries only, exactly like the
    // seed scheduler: a slice that has started runs to its end.
    if (state_ == State::NeedSlice &&
        now_ >= engine.config().max_cycles)
        return std::nullopt;
    return now_;
}

void
TimeSlice::serviceTicks(Engine &engine)
{
    if (config_.tick_period == 0)
        return;
    if (next_tick_ == 0)
        next_tick_ = now_ + config_.tick_period;
    while (now_ >= next_tick_) {
        now_ += engine.kernelBurst(core_, config_.kernel_thread,
                                   config_.kernel_base,
                                   config_.kernel_footprint_lines,
                                   config_.tick_lines);
        next_tick_ += config_.tick_period;
    }
}

void
TimeSlice::contextSwitchNoise(Engine &engine)
{
    now_ += engine.kernelBurst(core_, config_.kernel_thread,
                               config_.kernel_base,
                               config_.kernel_footprint_lines,
                               config_.kernel_noise_lines);
}

void
TimeSlice::backgroundSlice(Engine &engine, std::uint64_t slice_end)
{
    for (std::uint32_t i = 0; i < config_.background_lines; ++i) {
        const sim::Addr line = config_.background_base +
            engine.rng().below(config_.background_lines * 4) * 64;
        const sim::MemRef ref{line, line, config_.background_thread, false};
        const auto pa = engine.port().access(core_, ref);
        now_ += engine.uarch().latency(pa.level) +
                engine.config().op_overhead +
                std::uint64_t{pa.writebacks} * engine.uarch().wb_latency;
        if (now_ >= slice_end)
            break;
    }
    now_ = std::max(now_, slice_end);
}

void
TimeSlice::openSlice(Engine &engine)
{
    slice_end_ = now_ + config_.quantum +
        (config_.quantum_jitter ? engine.rng().below(config_.quantum_jitter)
                                : 0);

    if (engine.rng().chance(config_.background_prob)) {
        // Another process won this slice.
        backgroundSlice(engine, slice_end_);
        now_ += config_.switch_cost;
        contextSwitchNoise(engine);
        engine.noteTime(now_);
        return; // state stays NeedSlice
    }
    state_ = State::InSlice;
}

void
TimeSlice::closeSlice(Engine &engine)
{
    // Context switch to the next live sibling (or keep running if none).
    now_ += config_.switch_cost;
    contextSwitchNoise(engine);
    engine.noteTime(now_);
    const std::size_t n = threads_.size();
    for (std::size_t k = 1; k <= n; ++k) {
        const std::size_t cand = (active_ + k) % n;
        if (!engine.thread(threads_[cand]).done) {
            active_ = cand;
            break;
        }
    }
    state_ = State::NeedSlice;
}

void
TimeSlice::runInSlice(Engine &engine)
{
    const unsigned idx = threads_[active_];
    auto &t = engine.thread(idx);

    serviceTicks(engine);
    if (t.spin_until > now_) {
        // Busy-waiting burns the slice without cache traffic;
        // fast-forward no further than the next timer tick.
        std::uint64_t stop = std::min(t.spin_until, slice_end_);
        if (config_.tick_period != 0)
            stop = std::min(stop, next_tick_);
        now_ = std::max(now_ + 1, stop);
        engine.noteTime(now_);
        return;
    }

    const Op op = t.program->next(now_);
    if (op.kind == OpKind::Done) {
        t.done = true;
    } else if (op.kind == OpKind::SpinUntil) {
        t.spin_until = op.until;
        ++t.stats.spins;
    } else {
        now_ += engine.executeOp(idx, op, now_);
    }
    t.clock = now_;
    engine.noteTime(now_);
}

void
TimeSlice::runSliceEvents(Engine &engine)
{
    // Slice-event fast path (root policy only): within a slice no other
    // actor has events — only the resident thread runs and ticks/
    // background work are serviced inside runInSlice — so looping here
    // executes the exact per-op sequence without a step()/
    // nextEventTime() round trip per op.  When the primary finishes,
    // stop before closeSlice: per-op stepping never reaches the switch
    // either (the run loop exits first), and the switch's RNG draws
    // must not happen.
    const unsigned idx = threads_[active_];
    const auto &t = engine.thread(idx);
    while (now_ < slice_end_ && !t.done) {
        // At an op boundary with no tick due, try to advance a proven
        // steady run up to the next tick or slice end.
        if (t.spin_until <= now_ &&
            (config_.tick_period == 0 || now_ < next_tick_)) {
            const std::uint64_t horizon =
                config_.tick_period == 0 ? slice_end_
                                         : std::min(slice_end_, next_tick_);
            if (const std::uint64_t end =
                    engine.advanceSteadyRun(idx, now_, horizon)) {
                now_ = end;
                continue;
            }
        }
        runInSlice(engine);
    }
    if (!engine.thread(engine.primary()).done)
        closeSlice(engine);
}

bool
TimeSlice::step(Engine &engine)
{
    if (!anyLive(engine))
        return false;
    if (state_ == State::NeedSlice) {
        if (now_ >= engine.config().max_cycles)
            return false;
        openSlice(engine);
        if (state_ == State::InSlice && config_.slice_events && !nested_)
            runSliceEvents(engine);
        return true;
    }
    if (now_ >= slice_end_ ||
        engine.thread(threads_[active_]).done) {
        closeSlice(engine);
        return true;
    }
    runInSlice(engine);
    return true;
}

// ---------------------------------------------------------- LowestClock

void
LowestClock::nest(std::uint32_t core,
                  std::unique_ptr<ArbitrationPolicy> child)
{
    for (const auto &[c, policy] : nested_) {
        if (c == core)
            throw std::logic_error(
                "LowestClock: core already has a nested policy");
    }
    nested_.emplace_back(core, std::move(child));
}

void
LowestClock::begin(Engine &engine, std::span<const unsigned> threads)
{
    // Partition the thread set by core, ascending core id, preserving
    // spec order within a core.
    children_.clear();
    leaves_.clear();
    std::vector<std::uint32_t> core_ids;
    for (unsigned t : threads) {
        const std::uint32_t core = engine.thread(t).core;
        if (std::find(core_ids.begin(), core_ids.end(), core) ==
            core_ids.end())
            core_ids.push_back(core);
    }
    std::sort(core_ids.begin(), core_ids.end());

    // A nested policy for a core no thread is bound to would silently
    // never run; that is a wiring bug, fail like the other binding
    // errors do.
    for (const auto &[core, policy] : nested_) {
        if (std::find(core_ids.begin(), core_ids.end(), core) ==
            core_ids.end())
            throw std::invalid_argument(
                "LowestClock: nested policy for a core with no bound "
                "threads");
    }

    for (std::uint32_t core : core_ids) {
        std::vector<unsigned> group;
        for (unsigned t : threads) {
            if (engine.thread(t).core == core)
                group.push_back(t);
        }

        ArbitrationPolicy *child = nullptr;
        for (const auto &[c, policy] : nested_) {
            if (c == core) {
                child = policy.get();
                break;
            }
        }
        if (child == nullptr) {
            leaves_.push_back(std::make_unique<RoundRobinSmt>());
            child = leaves_.back().get();
        }
        child->onNested();
        child->begin(engine, group);
        children_.push_back(Child{core, child});
    }
}

LowestClock::Pick
LowestClock::pick(const Engine &engine) const
{
    // Step the core whose next event is earliest (ties toward the
    // lowest core id).
    Pick best{children_.size(), 0};
    for (std::size_t i = 0; i < children_.size(); ++i) {
        const auto t = children_[i].policy->nextEventTime(engine);
        if (!t)
            continue;
        if (best.index == children_.size() || *t < best.time)
            best = Pick{i, *t};
    }
    return best;
}

std::optional<std::uint64_t>
LowestClock::nextEventTime(const Engine &engine) const
{
    const Pick best = pick(engine);
    if (best.index == children_.size())
        return std::nullopt;
    return best.time;
}

bool
LowestClock::step(Engine &engine)
{
    const Pick best = pick(engine);
    if (best.index == children_.size())
        return false;
    return children_[best.index].policy->step(engine);
}

// ---------------------------------------------------------------- noise

NoiseProgram::NoiseProgram(NoiseConfig config)
    : config_(config), rng_(config.seed)
{
}

Op
NoiseProgram::next(std::uint64_t now)
{
    if (in_burst_ >= config_.burst) {
        in_burst_ = 0;
        return Op::spinUntil(now + config_.gap);
    }
    ++in_burst_;
    const sim::Addr line = config_.base +
        rng_.below(config_.footprint_sets) * 64 +
        rng_.below(config_.lines_per_set) * config_.set_stride;
    return Op::access(sim::MemRef::load(line, threadId()));
}

} // namespace lruleak::exec
