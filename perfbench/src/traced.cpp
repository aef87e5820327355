/**
 * @file
 * The traced rebuild of a channel session.
 *
 * channel::runSession builds its port, programs and policy internally,
 * so the per-layer split is taken by rebuilding the same session from
 * the public sim/exec/channel pieces, stage for stage as session.cpp
 * does, with three timing decorators in between:
 *
 *   TracedPort    around the sim::AccessPort      -> sim time, accesses
 *   TracedProgram around each party ThreadProgram -> channel program
 *                                                    time, op fetches
 *   TracedPolicy  around the root ArbitrationPolicy -> engine events
 *
 * The decorators only forward, so the rebuilt session must reproduce
 * runSession's result bit for bit; the benchmark checks every traced
 * session's digest against the untraced one.  Only the session shapes
 * the workloads use are rebuilt: single-core SMT and time-sliced
 * sessions, and cross-core sessions beside trace-replaying noise cores.
 */

#include <stdexcept>

#include "bench.hpp"
#include "channel/decoder.hpp"
#include "exec/trace_program.hpp"
#include "sim/access_port.hpp"

namespace perfbench {

using namespace lruleak;
using channel::SessionConfig;
using channel::SharingMode;

namespace {

/** Accumulates the wall time of a scope into a duration. */
class ScopeTimer
{
  public:
    explicit ScopeTimer(Clock::duration &sink)
        : sink_(sink), start_(Clock::now())
    {}
    ~ScopeTimer() { sink_ += Clock::now() - start_; }
    ScopeTimer(const ScopeTimer &) = delete;
    ScopeTimer &operator=(const ScopeTimer &) = delete;

  private:
    Clock::duration &sink_;
    Clock::time_point start_;
};

struct Accumulators
{
    Clock::duration sim{};
    Clock::duration program{};
    std::uint64_t accesses = 0;
    std::uint64_t party_steps = 0;
    std::uint64_t events = 0;
};

class TracedPort final : public sim::AccessPort
{
  public:
    TracedPort(sim::AccessPort &inner, Accumulators &acc)
        : inner_(inner), acc_(acc)
    {}

    std::uint32_t cores() const override { return inner_.cores(); }

    sim::PortAccess
    access(std::uint32_t core, const sim::MemRef &ref,
           sim::LockReq lock_req) override
    {
        ScopeTimer t(acc_.sim);
        ++acc_.accesses;
        return inner_.access(core, ref, lock_req);
    }

    void
    accessBatch(std::uint32_t core, std::span<const sim::MemRef> refs,
                std::span<sim::HitLevel> levels) override
    {
        ScopeTimer t(acc_.sim);
        acc_.accesses += refs.size();
        inner_.accessBatch(core, refs, levels);
    }

    void
    accessBatch(std::uint32_t core,
                std::span<const sim::MemRef> refs) override
    {
        ScopeTimer t(acc_.sim);
        acc_.accesses += refs.size();
        inner_.accessBatch(core, refs);
    }

    std::uint64_t
    accessRun(std::uint32_t core, std::span<const sim::MemRef> refs,
              std::span<sim::HitLevel> levels) override
    {
        ScopeTimer t(acc_.sim);
        acc_.accesses += refs.size();
        return inner_.accessRun(core, refs, levels);
    }

    sim::CacheFlushResult
    flush(const sim::MemRef &ref) override
    {
        ScopeTimer t(acc_.sim);
        ++acc_.accesses;
        return inner_.flush(ref);
    }

    std::optional<std::string>
    auditInclusion() const override
    {
        ScopeTimer t(acc_.sim);
        return inner_.auditInclusion();
    }

  private:
    sim::AccessPort &inner_;
    Accumulators &acc_;
};

class TracedProgram final : public exec::ThreadProgram
{
  public:
    TracedProgram(exec::ThreadProgram &inner, Accumulators &acc)
        : inner_(inner), acc_(acc)
    {}

    exec::Op
    next(std::uint64_t now) override
    {
        ScopeTimer t(acc_.program);
        ++acc_.party_steps;
        // The engine numbers the decorator; programs build their MemRefs
        // from their own id.
        inner_.setThreadId(threadId());
        return inner_.next(now);
    }

    void
    onResult(const exec::OpResult &result) override
    {
        ScopeTimer t(acc_.program);
        inner_.onResult(result);
    }

  private:
    exec::ThreadProgram &inner_;
    Accumulators &acc_;
};

class TracedPolicy final : public exec::ArbitrationPolicy
{
  public:
    TracedPolicy(exec::ArbitrationPolicy &inner, Accumulators &acc)
        : inner_(inner), acc_(acc)
    {}

    std::string_view name() const override { return inner_.name(); }

    void
    begin(exec::Engine &engine, std::span<const unsigned> threads) override
    {
        inner_.begin(engine, threads);
    }

    void onNested() override { inner_.onNested(); }

    std::optional<std::uint64_t>
    nextEventTime(const exec::Engine &engine) const override
    {
        return inner_.nextEventTime(engine);
    }

    bool
    step(exec::Engine &engine) override
    {
        ++acc_.events;
        return inner_.step(engine);
    }

  private:
    exec::ArbitrationPolicy &inner_;
    Accumulators &acc_;
};

// The private constants and helpers of channel/session.cpp the rebuild
// has to mirror.
constexpr std::uint64_t kTimeSlicedMaxCycles = 4'000'000'000'000ULL;

exec::TimeSlicePolicyConfig
partyCoreTimeSlice(const SessionConfig &config, std::uint32_t core)
{
    exec::TimeSlicePolicyConfig tc = config.tslice;
    tc.quantum = config.quantum;
    tc.kernel_thread = 1000 + 2 * core;
    tc.background_thread = 1001 + 2 * core;
    tc.background_base += core * 0x0100'0000'0000ULL;
    return tc;
}

/** Per-thread topology reuse, as runSession's pool does it. */
template <typename Topology, typename Config>
Topology &
pooled(const Config &config)
{
    static thread_local std::unique_ptr<Topology> pool;
    static thread_local Config pool_config;
    if (pool && pool_config == config) {
        pool->reset();
        return *pool;
    }
    pool = std::make_unique<Topology>(config);
    pool_config = config;
    return *pool;
}

std::uint64_t
drained(const sim::Cache &cache)
{
    return cache.counters().total().writebacks;
}

/** LLC fills that displaced a line: every LLC miss fills (no SHARP, no
 *  PL locks, write-allocate), and the pooled topology starts empty, so
 *  the lines still held at the end are the fills that evicted nothing.
 *  Exact while the session issues no clflush, as none rebuilt here do. */
std::uint64_t
llcEvictions(const sim::Cache &llc)
{
    std::uint64_t held = 0;
    for (std::uint32_t s = 0; s < llc.storageSets(); ++s)
        held += llc.cacheSet(s).occupancy();
    return llc.counters().total().misses - held;
}

struct RunEnd
{
    std::uint64_t end = 0;
    exec::ThreadStats sender;
    exec::ThreadStats receiver;
};

RunEnd
runEngine(sim::AccessPort &raw_port, const SessionConfig &config,
          exec::ArbitrationPolicy &raw_policy, exec::EngineConfig ec,
          std::span<const exec::ThreadSpec> specs, Accumulators &acc)
{
    TracedPort port(raw_port, acc);
    TracedPolicy policy(raw_policy, acc);
    exec::Engine engine(port, config.uarch, policy, ec);
    RunEnd out;
    out.end = engine.run(specs, /*primary=*/1);
    out.sender = engine.stats(0);
    out.receiver = engine.stats(1);
    return out;
}

} // namespace

LayerTimes &
LayerTimes::operator+=(const LayerTimes &o)
{
    sim_s += o.sim_s;
    exec_run_s += o.exec_run_s;
    program_s += o.program_s;
    setup_s += o.setup_s;
    decode_s += o.decode_s;
    leakage_s += o.leakage_s;
    accesses += o.accesses;
    party_steps += o.party_steps;
    events += o.events;
    leakage_calls += o.leakage_calls;
    hierarchy += o.hierarchy;
    return *this;
}

HierarchyCounts &
HierarchyCounts::operator+=(const HierarchyCounts &o)
{
    writebacks += o.writebacks;
    noise_writebacks += o.noise_writebacks;
    memory_writebacks += o.memory_writebacks;
    llc_evictions += o.llc_evictions;
    noise_accesses += o.noise_accesses;
    return *this;
}

Outcome
runTraced(const SessionSpec &spec, LayerTimes &times)
{
    const SessionConfig &config = spec.config;
    const bool multi = channel::sessionMultiCore(config);
    if (config.spies > 1 || config.llc_secure == sim::SecureMode::Sharp ||
        (multi && (config.mode != SharingMode::CrossCore ||
                   !config.noise_trace || config.noise_trace->empty())))
        throw std::invalid_argument(
            "traced rebuild: only single-core sessions and cross-core "
            "sessions with trace-replaying noise cores are rebuilt");

    Accumulators acc;
    Clock::duration setup{}, exec_run{}, decode{}, leak{};
    const auto setup_start = Clock::now();

    // ----- stage 1: sender/receiver over the carrier-geometry layout.
    const std::size_t nbits = config.message.size() * config.repeats;
    channel::ChannelPairConfig pc;
    pc.message = config.message;
    pc.repeats = config.repeats;
    pc.ts = config.ts;
    pc.tr = config.tr;
    pc.d = config.d;
    pc.chain_len = config.chain_len;
    pc.encode_gap = config.encode_gap;
    pc.infinite = config.infinite;
    pc.lock_line = config.sender_locks_line;
    pc.batch_walks = config.batch_walks;
    pc.max_samples = config.max_samples
        ? config.max_samples
        : (config.infinite
               ? 300
               : (nbits * config.ts) /
                         std::max<std::uint64_t>(config.tr, 1) +
                     8);
    const channel::ChannelLayout layout = channel::sessionLayoutFor(config);
    channel::ChannelPair pair(config.channel, layout, pc);
    TracedProgram sender(pair.sender(), acc);
    TracedProgram receiver(pair.receiver(), acc);

    const channel::Calibration cal = channel::calibrationFor(
        config.uarch, config.channel, channel::sessionCarrier(config),
        layout.ways(), config.chain_len);

    // ----- stage 2: topology + arbitration policy, then the run.
    channel::SessionResult res;
    RunEnd run;
    HierarchyCounts hc;
    std::vector<std::uint64_t> noise_replayed;
    const auto applyWritePolicy = [&](sim::CacheConfig &cc) {
        cc.write_hit = config.write_hit;
        cc.write_miss = config.write_miss;
    };
    exec::EngineConfig ec = config.sched;
    ec.seed = config.seed;
    if (multi) {
        sim::MultiCoreConfig mc;
        mc.cores = 2 + config.noise_cores;
        mc.l1 = sim::CacheConfig::intelL1d(config.l1_policy);
        mc.l1.secure = config.l1_secure;
        if (config.llc_policy)
            mc.llc.policy = *config.llc_policy;
        mc.llc.secure = config.llc_secure;
        mc.llc.sharp_alarm_threshold = config.llc_alarm_threshold;
        mc.seed = config.seed;
        applyWritePolicy(mc.l1);
        applyWritePolicy(mc.l2);
        applyWritePolicy(mc.llc);
        auto &hierarchy =
            pooled<sim::MultiCoreHierarchy, sim::MultiCoreConfig>(mc);
        sim::MultiCorePort port(hierarchy);

        // Sender on core 0, receiver on core 1, then one looping trace
        // replay per noise core with staggered start offsets, as
        // runSession's makeNoisePrograms does.
        std::vector<std::unique_ptr<exec::TraceProgram>> noise;
        std::vector<exec::ThreadSpec> specs{{&sender, 0}, {&receiver, 1}};
        for (std::uint32_t i = 0; i < config.noise_cores; ++i) {
            const std::size_t stagger =
                i * (config.noise_trace->size() / config.noise_cores);
            noise.push_back(std::make_unique<exec::TraceProgram>(
                config.noise_trace, stagger, /*loop=*/true));
            specs.push_back({noise.back().get(), 2 + i});
        }

        exec::LowestClock policy;
        if (config.quantum > 0) {
            // OS time-slicing on each party core, nested under LowestClock.
            for (std::uint32_t core = 0; core <= 1; ++core)
                policy.nest(core, std::make_unique<exec::TimeSlice>(
                                      partyCoreTimeSlice(config, core)));
        }
        setup += Clock::now() - setup_start;
        {
            ScopeTimer t(exec_run);
            run = runEngine(port, config, policy, ec, specs, acc);
        }

        res.cores = hierarchy.cores();
        res.back_invalidations = hierarchy.backInvalidations();
        for (std::uint32_t c = 0; c < hierarchy.cores(); ++c)
            hc.writebacks += drained(hierarchy.l1(c)) +
                             drained(hierarchy.l2(c));
        hc.writebacks += drained(hierarchy.llc());
        for (std::uint32_t i = 0; i < config.noise_cores; ++i) {
            const sim::ThreadId tid = noise[i]->threadId();
            hc.noise_writebacks +=
                hierarchy.l1(2 + i).counters().forThread(tid).writebacks +
                hierarchy.l2(2 + i).counters().forThread(tid).writebacks +
                hierarchy.llc().counters().forThread(tid).writebacks;
            hc.noise_accesses += noise[i]->replayed();
            noise_replayed.push_back(noise[i]->replayed());
        }
        hc.memory_writebacks = hierarchy.dirtyWritebacks();
        hc.llc_evictions = llcEvictions(hierarchy.llc());
        res.sender_l1 =
            hierarchy.l1(0).counters().forThread(channel::kSenderThread);
        res.sender_l2 =
            hierarchy.l2(0).counters().forThread(channel::kSenderThread);
        res.sender_llc =
            hierarchy.llc().counters().forThread(channel::kSenderThread);
        res.receiver_l1 = hierarchy.l1(1).counters().forThread(
            channel::kReceiverThread);
        res.receiver_llc =
            hierarchy.llc().counters().forThread(channel::kReceiverThread);
    } else {
        sim::HierarchyConfig h;
        h.l1 = sim::CacheConfig::intelL1d(config.l1_policy);
        h.l1.seed = config.seed;
        h.l1.secure = config.l1_secure;
        if (config.llc_policy)
            h.llc.policy = *config.llc_policy;
        h.l1_way_predictor = config.uarch.way_predictor;
        h.l1_pl_mode = config.pl_mode;
        applyWritePolicy(h.l1);
        applyWritePolicy(h.l2);
        applyWritePolicy(h.llc);
        auto &hierarchy =
            pooled<sim::CacheHierarchy, sim::HierarchyConfig>(h);
        sim::SingleCorePort port(hierarchy);
        const exec::ThreadSpec specs[] = {{&sender, 0}, {&receiver, 0}};
        setup += Clock::now() - setup_start;
        {
            ScopeTimer t(exec_run);
            if (config.mode == SharingMode::HyperThreaded) {
                exec::RoundRobinSmt policy;
                run = runEngine(port, config, policy, ec, specs, acc);
            } else {
                ec.max_cycles = kTimeSlicedMaxCycles;
                exec::TimeSlice policy(config.tslice);
                run = runEngine(port, config, policy, ec, specs, acc);
            }
        }
        res.sender_l1 =
            hierarchy.l1().counters().forThread(channel::kSenderThread);
        res.sender_l2 =
            hierarchy.l2().counters().forThread(channel::kSenderThread);
        res.sender_llc =
            hierarchy.llc().counters().forThread(channel::kSenderThread);
        res.receiver_l1 =
            hierarchy.l1().counters().forThread(channel::kReceiverThread);
        res.receiver_llc =
            hierarchy.llc().counters().forThread(channel::kReceiverThread);
        hc.writebacks = drained(hierarchy.l1()) + drained(hierarchy.l2()) +
                        drained(hierarchy.llc());
        hc.memory_writebacks = drained(hierarchy.llc());
        hc.llc_evictions = llcEvictions(hierarchy.llc());
    }
    res.sender_stats = run.sender;
    res.receiver_stats = run.receiver;

    // ----- stage 3: decode and score.
    Outcome out;
    {
        ScopeTimer t(decode);
        res.threshold = cal.threshold;
        res.invert = cal.invert;
        res.samples = pair.samples();
        res.sent = pair.sender().sentBits();
        res.sender_start = pair.sender().startTsc();
        if (!config.infinite) {
            res.received = channel::windowDecode(
                res.samples, res.threshold, res.invert, res.sender_start,
                config.ts, nbits);
            res.error_rate = channel::editErrorRate(res.sent, res.received);
            if (config.collect_symbols)
                res.decoded_symbols = channel::windowSymbols(
                    res.samples, res.threshold, res.invert,
                    res.sender_start, config.ts, nbits);
        }
        res.elapsed_cycles =
            run.end > res.sender_start ? run.end - res.sender_start : 0;
        res.kbps = config.uarch.kbps(nbits, res.elapsed_cycles);
        out = scoreDecode(spec, std::move(res));
    }
    if (spec.scoring == Scoring::DecodeLeakage) {
        {
            ScopeTimer t(leak);
            scoreLeakage(out);
        }
        ++times.leakage_calls;
    }
    out.noise_replayed = std::move(noise_replayed);

    const auto seconds = [](Clock::duration d) {
        return std::chrono::duration<double>(d).count();
    };
    times.sim_s += seconds(acc.sim);
    times.program_s += seconds(acc.program);
    times.exec_run_s += seconds(exec_run);
    times.setup_s += seconds(setup);
    times.decode_s += seconds(decode);
    times.leakage_s += seconds(leak);
    times.accesses += acc.accesses;
    times.party_steps += acc.party_steps;
    times.events += acc.events;
    times.hierarchy += hc;
    return out;
}

} // namespace perfbench
