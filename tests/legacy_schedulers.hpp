/**
 * @file
 * Test-only reference copies of the three retired ad-hoc schedulers.
 *
 * exec::Engine replaced SmtScheduler / TimeSliceScheduler /
 * MultiCoreScheduler with one shared stepping core and pluggable
 * arbitration policies; the production classes are now thin shims over
 * the engine.  To keep the equivalence claim *testable* (the shims
 * cannot differ from the engine by construction), the seed
 * implementations live on here verbatim — independent stepping loops,
 * independent RNG consumption — as the oracle the randomized
 * differential suite compares the engine against, the same pattern the
 * repo uses for the legacy virtual ReplacementPolicy vs sim::ReplState.
 *
 * Do not "fix" or modernise this code: its value is being the seed
 * behaviour, byte for byte.  The one addition is the AccessRun and
 * MeasureFlush cases of each executeOp, ops the seed did not have:
 * written from the op contract in exec/op.hpp rather than copied from
 * the engine, so the differential suite covers every op kind.
 */

#ifndef LRULEAK_TESTS_LEGACY_SCHEDULERS_HPP
#define LRULEAK_TESTS_LEGACY_SCHEDULERS_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "exec/op.hpp"
#include "sim/hierarchy.hpp"
#include "sim/multicore_hierarchy.hpp"
#include "sim/random.hpp"
#include "timing/pointer_chase.hpp"
#include "timing/uarch.hpp"

namespace lruleak::legacy {

struct LegacySmtConfig
{
    std::uint64_t max_cycles = 2'000'000'000ULL;
    std::uint32_t op_overhead = 10;
    std::uint32_t jitter = 4;
    std::uint64_t seed = 42;
};

/** Seed SmtScheduler, verbatim. */
class LegacySmtScheduler
{
  public:
    using Config = LegacySmtConfig;

    LegacySmtScheduler(sim::CacheHierarchy &hierarchy,
                       const timing::Uarch &uarch,
                       LegacySmtConfig config = {})
        : hierarchy_(hierarchy), uarch_(uarch), model_(uarch),
          config_(config), rng_(config.seed)
    {
    }

    std::uint64_t
    run(exec::ThreadProgram &thread0, exec::ThreadProgram &thread1,
        unsigned primary = 1)
    {
        exec::ThreadProgram *threads[2] = {&thread0, &thread1};
        threads[0]->setThreadId(0);
        threads[1]->setThreadId(1);

        std::uint64_t clock[2] = {now_, now_};
        bool done[2] = {false, false};

        while (now_ < config_.max_cycles) {
            unsigned idx;
            if (done[0] && done[1])
                break;
            if (done[0])
                idx = 1;
            else if (done[1])
                idx = 0;
            else
                idx = clock[0] <= clock[1] ? 0 : 1;

            exec::ThreadProgram &prog = *threads[idx];
            const exec::Op op = prog.next(clock[idx]);

            if (op.kind == exec::OpKind::Done) {
                done[idx] = true;
                if (idx == primary)
                    break;
                continue;
            }
            if (op.kind == exec::OpKind::SpinUntil) {
                clock[idx] = std::max(clock[idx] + 1, op.until);
            } else {
                clock[idx] += executeOp(prog, op, clock[idx]);
            }
            now_ = std::max(now_, clock[idx]);

            if (done[primary])
                break;
        }
        return now_;
    }

    std::uint64_t now() const { return now_; }

  private:
    std::uint64_t
    executeOp(exec::ThreadProgram &prog, const exec::Op &op,
              std::uint64_t start)
    {
        const std::uint64_t jitter =
            config_.jitter ? rng_.below(config_.jitter) : 0;
        switch (op.kind) {
          case exec::OpKind::Access: {
            const auto res = hierarchy_.access(op.ref, op.lock_req);
            exec::OpResult out;
            out.kind = exec::OpKind::Access;
            out.level = res.level;
            out.tsc = start;
            prog.onResult(out);
            return uarch_.latency(res.level) + config_.op_overhead + jitter;
          }
          case exec::OpKind::Measure: {
            const auto res = hierarchy_.access(op.ref, op.lock_req);
            exec::OpResult out;
            out.kind = exec::OpKind::Measure;
            out.level = res.level;
            out.measured = model_.chase(op.chain_levels, res.level, rng_);
            out.tsc = start;
            prog.onResult(out);
            return uarch_.latency(res.level) + config_.op_overhead + jitter;
          }
          case exec::OpKind::Flush: {
            hierarchy_.flush(op.ref);
            exec::OpResult out;
            out.kind = exec::OpKind::Flush;
            out.tsc = start;
            prog.onResult(out);
            return uarch_.mem_latency + config_.op_overhead + jitter;
          }
          case exec::OpKind::AccessRun: {
            // Each access is charged like a lone Access op (its own
            // jitter draw; the one above belongs to the first), and the
            // run reports once, with the first access's level.
            if (op.run_refs.empty())
                return 0;
            exec::OpResult out;
            out.kind = exec::OpKind::AccessRun;
            out.tsc = start;
            std::uint64_t cost = 0;
            for (std::size_t i = 0; i < op.run_refs.size(); ++i) {
                const auto res = hierarchy_.access(op.run_refs[i]);
                if (i == 0)
                    out.level = res.level;
                cost += uarch_.latency(res.level) + config_.op_overhead +
                        (i == 0 ? jitter
                                : (config_.jitter
                                       ? rng_.below(config_.jitter)
                                       : 0));
            }
            prog.onResult(out);
            return cost;
          }
          case exec::OpKind::MeasureFlush: {
            const auto fr = hierarchy_.flush(op.ref);
            exec::OpResult out;
            out.kind = exec::OpKind::MeasureFlush;
            out.level = fr.dirty ? sim::HitLevel::Memory : sim::HitLevel::L1;
            out.measured = model_.flushMeasure(fr.dirty, rng_);
            out.tsc = start;
            prog.onResult(out);
            return uarch_.mem_latency + config_.op_overhead + jitter +
                   (fr.dirty ? uarch_.wb_latency : 0);
          }
          case exec::OpKind::SpinUntil:
          case exec::OpKind::Done:
            return 0;
        }
        return 0;
    }

    sim::CacheHierarchy &hierarchy_;
    timing::Uarch uarch_;
    timing::MeasurementModel model_;
    Config config_;
    sim::Xoshiro256 rng_;
    std::uint64_t now_ = 0;
};

struct LegacyTimeSliceConfig
{
    std::uint64_t quantum = 150'000'000;
    std::uint64_t quantum_jitter = 80'000'000;
    std::uint32_t switch_cost = 3'000;
    std::uint32_t kernel_noise_lines = 48;
    double background_prob = 0.25;
    std::uint32_t background_lines = 1024;
    std::uint64_t tick_period = 4'000'000;
    std::uint32_t tick_lines = 24;

    std::uint64_t max_cycles = 4'000'000'000'000ULL;
    std::uint32_t op_overhead = 10;
    std::uint32_t jitter = 4;
    std::uint64_t seed = 42;
};

/** Seed TimeSliceScheduler, verbatim. */
class LegacyTimeSliceScheduler
{
  public:
    using Config = LegacyTimeSliceConfig;

    static constexpr sim::ThreadId kKernelThread = 1000;
    static constexpr sim::ThreadId kBackgroundThread = 1001;

    LegacyTimeSliceScheduler(sim::CacheHierarchy &hierarchy,
                             const timing::Uarch &uarch,
                       LegacyTimeSliceConfig config = {})
        : hierarchy_(hierarchy), uarch_(uarch), model_(uarch),
          config_(config), rng_(config.seed)
    {
    }

    std::uint64_t
    run(exec::ThreadProgram &thread0, exec::ThreadProgram &thread1,
        unsigned primary = 1)
    {
        exec::ThreadProgram *threads[2] = {&thread0, &thread1};
        threads[0]->setThreadId(0);
        threads[1]->setThreadId(1);

        bool done[2] = {false, false};
        std::uint64_t spin_until[2] = {0, 0};
        unsigned active = 0;

        while (now_ < config_.max_cycles && !done[primary]) {
            const std::uint64_t slice_end = now_ + config_.quantum +
                (config_.quantum_jitter
                     ? rng_.below(config_.quantum_jitter)
                     : 0);

            if (rng_.chance(config_.background_prob)) {
                backgroundSlice(slice_end);
                now_ += config_.switch_cost;
                contextSwitchNoise();
                continue;
            }

            exec::ThreadProgram &prog = *threads[active];
            while (now_ < slice_end && !done[active]) {
                serviceTicks();
                if (spin_until[active] > now_) {
                    std::uint64_t stop =
                        std::min(spin_until[active], slice_end);
                    if (config_.tick_period != 0)
                        stop = std::min(stop, next_tick_);
                    now_ = std::max(now_ + 1, stop);
                    if (spin_until[active] > now_ && now_ >= slice_end)
                        break;
                    continue;
                }
                const exec::Op op = prog.next(now_);
                if (op.kind == exec::OpKind::Done) {
                    done[active] = true;
                } else if (op.kind == exec::OpKind::SpinUntil) {
                    spin_until[active] = op.until;
                } else {
                    now_ += executeOp(prog, op, now_);
                }
            }

            if (done[primary])
                break;

            now_ += config_.switch_cost;
            contextSwitchNoise();
            const unsigned other = active ^ 1u;
            if (!done[other])
                active = other;
        }
        return now_;
    }

    std::uint64_t now() const { return now_; }

  private:
    static constexpr sim::Addr kKernelBase = 0x7f00'0000'0000ULL;
    static constexpr sim::Addr kBackgroundBase = 0x6e00'0000'0000ULL;
    static constexpr std::uint64_t kKernelLines = 4096;

    std::uint64_t
    executeOp(exec::ThreadProgram &prog, const exec::Op &op,
              std::uint64_t start)
    {
        const std::uint64_t jitter =
            config_.jitter ? rng_.below(config_.jitter) : 0;
        switch (op.kind) {
          case exec::OpKind::Access: {
            const auto res = hierarchy_.access(op.ref, op.lock_req);
            exec::OpResult out;
            out.kind = exec::OpKind::Access;
            out.level = res.level;
            out.tsc = start;
            prog.onResult(out);
            return uarch_.latency(res.level) + config_.op_overhead + jitter;
          }
          case exec::OpKind::Measure: {
            const auto res = hierarchy_.access(op.ref, op.lock_req);
            exec::OpResult out;
            out.kind = exec::OpKind::Measure;
            out.level = res.level;
            out.measured = model_.chase(op.chain_levels, res.level, rng_);
            out.tsc = start;
            prog.onResult(out);
            return uarch_.latency(res.level) + config_.op_overhead + jitter;
          }
          case exec::OpKind::Flush: {
            hierarchy_.flush(op.ref);
            exec::OpResult out;
            out.kind = exec::OpKind::Flush;
            out.tsc = start;
            prog.onResult(out);
            return uarch_.mem_latency + config_.op_overhead + jitter;
          }
          case exec::OpKind::AccessRun: {
            // Each access is charged like a lone Access op (its own
            // jitter draw; the one above belongs to the first), and the
            // run reports once, with the first access's level.
            if (op.run_refs.empty())
                return 0;
            exec::OpResult out;
            out.kind = exec::OpKind::AccessRun;
            out.tsc = start;
            std::uint64_t cost = 0;
            for (std::size_t i = 0; i < op.run_refs.size(); ++i) {
                const auto res = hierarchy_.access(op.run_refs[i]);
                if (i == 0)
                    out.level = res.level;
                cost += uarch_.latency(res.level) + config_.op_overhead +
                        (i == 0 ? jitter
                                : (config_.jitter
                                       ? rng_.below(config_.jitter)
                                       : 0));
            }
            prog.onResult(out);
            return cost;
          }
          case exec::OpKind::MeasureFlush: {
            const auto fr = hierarchy_.flush(op.ref);
            exec::OpResult out;
            out.kind = exec::OpKind::MeasureFlush;
            out.level = fr.dirty ? sim::HitLevel::Memory : sim::HitLevel::L1;
            out.measured = model_.flushMeasure(fr.dirty, rng_);
            out.tsc = start;
            prog.onResult(out);
            return uarch_.mem_latency + config_.op_overhead + jitter +
                   (fr.dirty ? uarch_.wb_latency : 0);
          }
          case exec::OpKind::SpinUntil:
          case exec::OpKind::Done:
            return 0;
        }
        return 0;
    }

    void
    kernelBurst(std::uint64_t mean_lines)
    {
        if (mean_lines == 0)
            return;
        const std::uint64_t count =
            mean_lines / 2 + rng_.below(mean_lines + 1);
        burst_refs_.resize(count);
        burst_levels_.resize(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            const sim::Addr line =
                kKernelBase + rng_.below(kKernelLines) * 64;
            burst_refs_[i] = sim::MemRef{line, line, kKernelThread, false};
        }
        for (std::uint64_t i = 0; i < count; ++i)
            burst_levels_[i] = hierarchy_.access(burst_refs_[i]).level;
        for (std::uint64_t i = 0; i < count; ++i)
            now_ += uarch_.latency(burst_levels_[i]);
    }

    void contextSwitchNoise() { kernelBurst(config_.kernel_noise_lines); }

    void
    serviceTicks()
    {
        if (config_.tick_period == 0)
            return;
        if (next_tick_ == 0)
            next_tick_ = now_ + config_.tick_period;
        while (now_ >= next_tick_) {
            kernelBurst(config_.tick_lines);
            next_tick_ += config_.tick_period;
        }
    }

    void
    backgroundSlice(std::uint64_t slice_end)
    {
        for (std::uint32_t i = 0; i < config_.background_lines; ++i) {
            const sim::Addr line = kBackgroundBase +
                rng_.below(config_.background_lines * 4) * 64;
            sim::MemRef ref{line, line, kBackgroundThread, false};
            const auto res = hierarchy_.access(ref);
            now_ += uarch_.latency(res.level) + config_.op_overhead;
            if (now_ >= slice_end)
                break;
        }
        now_ = std::max(now_, slice_end);
    }

    sim::CacheHierarchy &hierarchy_;
    timing::Uarch uarch_;
    timing::MeasurementModel model_;
    Config config_;
    sim::Xoshiro256 rng_;
    std::uint64_t now_ = 0;
    std::uint64_t next_tick_ = 0;
    std::vector<sim::MemRef> burst_refs_;
    std::vector<sim::HitLevel> burst_levels_;
};

struct LegacyMultiCoreConfig
{
    std::uint64_t max_cycles = 2'000'000'000ULL;
    std::uint32_t op_overhead = 10;
    std::uint32_t jitter = 4;
    std::uint64_t seed = 42;
    std::uint32_t audit_every = 0;
};

/** Seed MultiCoreScheduler, verbatim. */
class LegacyMultiCoreScheduler
{
  public:
    using Config = LegacyMultiCoreConfig;

    LegacyMultiCoreScheduler(sim::MultiCoreHierarchy &hierarchy,
                             const timing::Uarch &uarch,
                       LegacyMultiCoreConfig config = {})
        : hierarchy_(hierarchy), uarch_(uarch), model_(uarch),
          config_(config), rng_(config.seed)
    {
    }

    std::uint64_t
    run(std::span<exec::ThreadProgram *const> programs, unsigned primary)
    {
        const unsigned n = static_cast<unsigned>(programs.size());
        if (n != hierarchy_.cores())
            throw std::invalid_argument(
                "LegacyMultiCoreScheduler: one program per core required");
        if (primary >= n)
            throw std::invalid_argument(
                "LegacyMultiCoreScheduler: bad primary core");

        for (unsigned c = 0; c < n; ++c)
            programs[c]->setThreadId(c);

        std::vector<std::uint64_t> clock(n, now_);
        std::vector<bool> done(n, false);

        while (now_ < config_.max_cycles) {
            unsigned idx = n;
            for (unsigned c = 0; c < n; ++c) {
                if (!done[c] && (idx == n || clock[c] < clock[idx]))
                    idx = c;
            }
            if (idx == n)
                break;

            exec::ThreadProgram &prog = *programs[idx];
            const exec::Op op = prog.next(clock[idx]);

            if (op.kind == exec::OpKind::Done) {
                done[idx] = true;
                if (idx == primary)
                    break;
                continue;
            }
            if (op.kind == exec::OpKind::SpinUntil) {
                clock[idx] = std::max(clock[idx] + 1, op.until);
            } else {
                clock[idx] += executeOp(idx, prog, op, clock[idx]);
            }
            now_ = std::max(now_, clock[idx]);
        }
        return now_;
    }

    std::uint64_t now() const { return now_; }

  private:
    void
    maybeAudit()
    {
        if (config_.audit_every == 0)
            return;
        if (++ops_since_audit_ < config_.audit_every)
            return;
        ops_since_audit_ = 0;
        if (auto violation = hierarchy_.auditInclusion())
            throw std::logic_error(*violation);
    }

    std::uint64_t
    executeOp(unsigned core, exec::ThreadProgram &prog, const exec::Op &op,
              std::uint64_t start)
    {
        const std::uint64_t jitter =
            config_.jitter ? rng_.below(config_.jitter) : 0;
        switch (op.kind) {
          case exec::OpKind::Access: {
            const auto res = hierarchy_.access(core, op.ref);
            exec::OpResult out;
            out.kind = exec::OpKind::Access;
            out.level = res.level;
            out.tsc = start;
            prog.onResult(out);
            maybeAudit();
            return uarch_.latency(res.level) + config_.op_overhead + jitter;
          }
          case exec::OpKind::Measure: {
            const auto res = hierarchy_.access(core, op.ref);
            exec::OpResult out;
            out.kind = exec::OpKind::Measure;
            out.level = res.level;
            out.measured = model_.chase(op.chain_levels, res.level, rng_);
            out.tsc = start;
            prog.onResult(out);
            maybeAudit();
            return uarch_.latency(res.level) + config_.op_overhead + jitter;
          }
          case exec::OpKind::Flush: {
            hierarchy_.flush(op.ref);
            exec::OpResult out;
            out.kind = exec::OpKind::Flush;
            out.tsc = start;
            prog.onResult(out);
            maybeAudit();
            return uarch_.mem_latency + config_.op_overhead + jitter;
          }
          case exec::OpKind::AccessRun: {
            // Each access is charged like a lone Access op (its own
            // jitter draw; the one above belongs to the first), and the
            // run reports once, with the first access's level.
            if (op.run_refs.empty())
                return 0;
            exec::OpResult out;
            out.kind = exec::OpKind::AccessRun;
            out.tsc = start;
            std::uint64_t cost = 0;
            for (std::size_t i = 0; i < op.run_refs.size(); ++i) {
                const auto res = hierarchy_.access(core, op.run_refs[i]);
                if (i == 0)
                    out.level = res.level;
                cost += uarch_.latency(res.level) + config_.op_overhead +
                        (i == 0 ? jitter
                                : (config_.jitter
                                       ? rng_.below(config_.jitter)
                                       : 0));
            }
            prog.onResult(out);
            maybeAudit();
            return cost;
          }
          case exec::OpKind::MeasureFlush: {
            const auto fr = hierarchy_.flush(op.ref);
            exec::OpResult out;
            out.kind = exec::OpKind::MeasureFlush;
            out.level = fr.dirty ? sim::HitLevel::Memory : sim::HitLevel::L1;
            out.measured = model_.flushMeasure(fr.dirty, rng_);
            out.tsc = start;
            prog.onResult(out);
            maybeAudit();
            return uarch_.mem_latency + config_.op_overhead + jitter +
                   (fr.dirty ? uarch_.wb_latency : 0);
          }
          case exec::OpKind::SpinUntil:
          case exec::OpKind::Done:
            return 0;
        }
        return 0;
    }

    sim::MultiCoreHierarchy &hierarchy_;
    timing::Uarch uarch_;
    timing::MeasurementModel model_;
    Config config_;
    sim::Xoshiro256 rng_;
    std::uint64_t now_ = 0;
    std::uint64_t ops_since_audit_ = 0;
};

} // namespace lruleak::legacy

#endif // LRULEAK_TESTS_LEGACY_SCHEDULERS_HPP
