/**
 * @file
 * The unified channel-session pipeline.
 */

#include "channel/session.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "channel/multi_spy.hpp"
#include "exec/trace_program.hpp"
#include "sim/access_port.hpp"
#include "util/strings.hpp"

namespace lruleak::channel {

std::string_view
sharingModeToken(SharingMode mode)
{
    switch (mode) {
      case SharingMode::HyperThreaded: return "hyperthreaded";
      case SharingMode::TimeSliced:    return "timesliced";
      case SharingMode::CrossCore:     return "crosscore";
    }
    return "unknown";
}

const std::vector<SharingMode> &
allSharingModes()
{
    static const std::vector<SharingMode> modes{
        SharingMode::HyperThreaded, SharingMode::TimeSliced,
        SharingMode::CrossCore};
    return modes;
}

SharingMode
sharingModeFromName(std::string_view name)
{
    const std::string n = util::normalizeToken(name);
    for (SharingMode mode : allSharingModes()) {
        if (n == sharingModeToken(mode))
            return mode;
    }
    if (n == "ht" || n == "smt" || n == "hyper-threaded")
        return SharingMode::HyperThreaded;
    if (n == "ts" || n == "time-sliced")
        return SharingMode::TimeSliced;
    if (n == "xcore" || n == "cross-core")
        return SharingMode::CrossCore;

    std::ostringstream os;
    os << "unknown sharing mode '" << name << "'; valid modes:";
    for (SharingMode mode : allSharingModes())
        os << " " << sharingModeToken(mode);
    throw std::invalid_argument(os.str());
}

Carrier
sessionCarrier(const SessionConfig &config)
{
    // Cross-core parties can only meet in the shared LLC; the x-core
    // channel speaks LLC geometry natively in every mode.
    if (config.mode == SharingMode::CrossCore ||
        channelCaps(config.channel).llc_geometry)
        return Carrier::Llc;
    return Carrier::L1;
}

bool
sessionMultiCore(const SessionConfig &config)
{
    return config.mode == SharingMode::CrossCore ||
           config.noise_cores > 0 || config.multicore;
}

ChannelLayout
sessionLayoutFor(const SessionConfig &config)
{
    if (sessionCarrier(config) == Carrier::Llc) {
        // LLC geometry: lines 0..N-1 share one LLC set *and*, because
        // LLC-set bits contain the private-cache set bits, one private
        // set per core too.
        sim::CacheConfig llc = sim::CacheConfig::intelLlc();
        if (config.llc_policy)
            llc.policy = *config.llc_policy;
        return ChannelLayout(llc, config.target_set, config.chase_set,
                             config.shared_same_vaddr);
    }
    return ChannelLayout(sim::CacheConfig::intelL1d(config.l1_policy),
                         config.target_set, config.chase_set,
                         config.shared_same_vaddr);
}

namespace {

/** Time-sliced runs outlive the SMT safety stop by orders of magnitude
 *  (quanta are ~1e8 cycles); keep the seed schedulers' respective caps. */
constexpr std::uint64_t kTimeSlicedMaxCycles = 4'000'000'000'000ULL;

/**
 * Build one background program per noise core.  Default: a
 * NoiseProgram with per-core seed and footprint base so the cores
 * never run in lockstep.  With SessionConfig::noise_trace set: a
 * looping TraceProgram per core, start offsets staggered across the
 * trace so N cores approximate N concurrent phases of the recorded
 * victim.
 */
std::vector<std::unique_ptr<exec::ThreadProgram>>
makeNoisePrograms(const SessionConfig &config)
{
    std::vector<std::unique_ptr<exec::ThreadProgram>> noise;
    noise.reserve(config.noise_cores);
    for (std::uint32_t i = 0; i < config.noise_cores; ++i) {
        if (config.noise_trace && !config.noise_trace->empty()) {
            const std::size_t stagger =
                i * (config.noise_trace->size() / config.noise_cores);
            noise.push_back(std::make_unique<exec::TraceProgram>(
                config.noise_trace, stagger, /*loop=*/true));
            continue;
        }
        exec::NoiseConfig nc = config.noise;
        nc.seed = config.seed + 0x6e01'0000ULL + i;
        nc.base = config.noise.base + i * 0x0100'0000'0000ULL;
        noise.push_back(std::make_unique<exec::NoiseProgram>(nc));
    }
    return noise;
}

/**
 * Per-party-core OS model for the time-sliced cross-core scenario:
 * same quantum on both cores, distinct kernel/background thread ids
 * and background footprints (the kernel working set is shared — it is
 * the same kernel).
 */
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

/**
 * Topology reuse pool.  Building a topology is the dominant cost of a
 * short session (the LLC alone is 8192 sets, each with four per-way
 * vectors), while reset() — verified by test_session_fastpath — returns
 * a used topology to its exactly-as-constructed state: every
 * replacement-state struct's constructor delegates to its reset(), and
 * Cache::reset() reseeds the fill RNG with the constructor expression.
 * So runSession caches the last topology per thread and swaps it in
 * whenever the config tuple repeats, which is every repeated-session
 * workload (bench lanes, matrix sweeps, percent-ones loops).  Each
 * topology type has its own pool.
 */
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

/** End-of-run values that must outlive the engine. */
struct RunOutcome
{
    std::uint64_t end = 0;
    exec::ThreadStats sender_stats;
    exec::ThreadStats receiver_stats;
};

RunOutcome
finish(exec::Engine &engine, std::span<const exec::ThreadSpec> specs)
{
    RunOutcome out;
    out.end = engine.run(specs, /*primary=*/1);
    out.sender_stats = engine.stats(0);
    out.receiver_stats = engine.stats(1);
    return out;
}

/** Single-core stage: CacheHierarchy under RoundRobinSmt or TimeSlice. */
RunOutcome
runSingleCore(const SessionConfig &config, ChannelPair &pair,
              sim::CacheHierarchy &hierarchy)
{
    sim::SingleCorePort port(hierarchy);
    const std::vector<exec::ThreadSpec> specs{{&pair.sender(), 0},
                                              {&pair.receiver(), 0}};
    exec::EngineConfig ec = config.sched;
    ec.seed = config.seed;
    if (config.mode == SharingMode::HyperThreaded) {
        exec::RoundRobinSmt policy;
        exec::Engine engine(port, config.uarch, policy, ec);
        return finish(engine, specs);
    }
    ec.max_cycles = kTimeSlicedMaxCycles;
    exec::TimeSlice policy(config.tslice);
    exec::Engine engine(port, config.uarch, policy, ec);
    return finish(engine, specs);
}

/**
 * Multi-core stage: MultiCoreHierarchy under LowestClock, with the
 * sharing mode's intra-core policy nested on the party core(s) and
 * noise programs pinned to the remaining cores.  @p receivers holds
 * one program per receiving thread (the factory receiver, or the K
 * spies of a multi-spy session); cross-core receiver j runs on core
 * 1 + j.
 */
RunOutcome
runMultiCore(const SessionConfig &config, LruSender &sender,
             std::span<exec::ThreadProgram *const> receivers,
             sim::MultiCoreHierarchy &hierarchy)
{
    const bool xcore = config.mode == SharingMode::CrossCore;
    const std::uint32_t nrecv =
        static_cast<std::uint32_t>(receivers.size());
    const std::uint32_t first_noise_core = xcore ? 1 + nrecv : 1;

    const auto noise = makeNoisePrograms(config);
    std::vector<exec::ThreadSpec> specs{{&sender, 0}};
    for (std::uint32_t j = 0; j < nrecv; ++j)
        specs.push_back(exec::ThreadSpec{receivers[j], xcore ? 1 + j : 0});
    for (std::uint32_t i = 0; i < config.noise_cores; ++i)
        specs.push_back(exec::ThreadSpec{noise[i].get(),
                                         first_noise_core + i});

    sim::MultiCorePort port(hierarchy);
    exec::LowestClock policy;
    exec::EngineConfig ec = config.sched;
    ec.seed = config.seed;
    switch (config.mode) {
      case SharingMode::CrossCore:
        if (config.quantum > 0) {
            // Layer OS time-slicing on the party cores: TimeSlice nests
            // under the cross-core LowestClock arbitration.  Noise
            // cores stay dedicated (pinned background processes).
            for (std::uint32_t core = 0; core <= nrecv; ++core)
                policy.nest(core, std::make_unique<exec::TimeSlice>(
                                      partyCoreTimeSlice(config, core)));
        }
        break;
      case SharingMode::HyperThreaded:
        // The hyperthread pair on core 0; noise cores get the default
        // leaf.
        policy.nest(0, std::make_unique<exec::RoundRobinSmt>());
        break;
      case SharingMode::TimeSliced:
        policy.nest(0, std::make_unique<exec::TimeSlice>(config.tslice));
        ec.max_cycles = kTimeSlicedMaxCycles;
        break;
    }

    exec::Engine engine(port, config.uarch, policy, ec);
    return finish(engine, specs);
}

} // namespace

SessionResult
runSession(const SessionConfig &config)
{
    const std::size_t nbits = config.message.size() * config.repeats;
    const bool multi = sessionMultiCore(config);
    const std::uint32_t spy_count =
        std::max<std::uint32_t>(config.spies, 1);
    if (spy_count > 1 && (config.mode != SharingMode::CrossCore ||
                          config.channel != ChannelId::XCoreLruAlg2))
        throw std::invalid_argument(
            "multi-spy sessions (spies > 1) require the crosscore "
            "sharing mode and the xcore-lru-alg2 channel");

    // ----- stage 1: sender/receiver over the carrier-geometry layout.
    ChannelPairConfig pc;
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
    // Sample slightly past the end of the message so the last bit gets
    // its full window even with scheduling skew.
    pc.max_samples = config.max_samples
        ? config.max_samples
        : (config.infinite
               ? 300
               : (nbits * config.ts) /
                         std::max<std::uint64_t>(config.tr, 1) +
                     8);

    const ChannelLayout layout = sessionLayoutFor(config);

    // One factory pair for the ordinary case; for a multi-spy session
    // the sender is built directly (same knobs the factory would use)
    // and the receiving side is the K-spy team.
    std::unique_ptr<ChannelPair> pair;
    std::unique_ptr<LruSender> team_sender;
    std::unique_ptr<MultiSpyReceiver> team;
    LruSender *sender = nullptr;
    std::vector<exec::ThreadProgram *> receivers;
    if (spy_count > 1) {
        SenderConfig sc;
        sc.alg = senderAlgorithmFor(config.channel);
        sc.message = pc.message;
        sc.repeats = pc.repeats;
        sc.ts = pc.ts;
        sc.encode_gap = pc.encode_gap;
        sc.infinite = pc.infinite;
        sc.lock_line = pc.lock_line;
        // Against SHARP the team runs the pin-slices protocol and the
        // cooperating sender waives its own line's ownership (see
        // channel/multi_spy.hpp).
        sc.kick_private = config.llc_secure == sim::SecureMode::Sharp;
        team_sender = std::make_unique<LruSender>(layout, sc);
        sender = team_sender.get();

        MultiSpyConfig msc;
        msc.spies = spy_count;
        msc.d = pc.d ? pc.d
                     : defaultInitDepth(config.channel, layout.ways());
        msc.tr = pc.tr;
        msc.max_samples = pc.max_samples;
        msc.chain_len = pc.chain_len;
        msc.pin_slices = config.llc_secure == sim::SecureMode::Sharp;
        team = std::make_unique<MultiSpyReceiver>(layout, msc);
        for (std::uint32_t j = 0; j < spy_count; ++j)
            receivers.push_back(&team->spy(j));
    } else {
        pair = std::make_unique<ChannelPair>(config.channel, layout, pc);
        sender = &pair->sender();
        receivers.push_back(&pair->receiver());
    }

    // ----- stage 2: topology + arbitration policy, then the run.
    SessionResult res;
    RunOutcome run;
    const auto applyWritePolicy = [&](sim::CacheConfig &cc) {
        cc.write_hit = config.write_hit;
        cc.write_miss = config.write_miss;
    };
    if (multi) {
        sim::MultiCoreConfig mc;
        // Summed in 64 bits: a huge noise count must reach the
        // hierarchy's core limit, not wrap round to a small topology.
        const std::uint64_t cores =
            (config.mode == SharingMode::CrossCore ? 1u + spy_count : 1u) +
            std::uint64_t{config.noise_cores};
        mc.cores = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            cores, std::numeric_limits<std::uint32_t>::max()));
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
        auto &hierarchy = pooled<sim::MultiCoreHierarchy>(mc);

        run = runMultiCore(config, *sender, receivers, hierarchy);

        const std::uint32_t rcore =
            config.mode == SharingMode::CrossCore ? 1 : 0;
        res.cores = hierarchy.cores();
        res.back_invalidations = hierarchy.backInvalidations();
        res.sender_l1 = hierarchy.l1(0).counters().forThread(kSenderThread);
        res.sender_l2 = hierarchy.l2(0).counters().forThread(kSenderThread);
        res.sender_llc = hierarchy.llc().counters().forThread(kSenderThread);
        res.receiver_l1 =
            hierarchy.l1(rcore).counters().forThread(kReceiverThread);
        res.receiver_llc =
            hierarchy.llc().counters().forThread(kReceiverThread);
        if (config.llc_secure == sim::SecureMode::Sharp) {
            const sim::Cache &llc = hierarchy.llc();
            res.sharp_alarms = llc.sharpAlarmsTotal();
            res.sharp_forced = llc.sharpForcedTotal();
            res.sharp_denied = llc.sharpDeniedTotal();
            res.sharp_core_alarms.resize(hierarchy.cores());
            for (std::uint32_t c = 0; c < hierarchy.cores(); ++c)
                res.sharp_core_alarms[c] = llc.sharpAlarms(c);
        }
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
        auto &hierarchy = pooled<sim::CacheHierarchy>(h);

        run = runSingleCore(config, *pair, hierarchy);

        res.sender_l1 = hierarchy.l1().counters().forThread(kSenderThread);
        res.sender_l2 = hierarchy.l2().counters().forThread(kSenderThread);
        res.sender_llc = hierarchy.llc().counters().forThread(kSenderThread);
        res.receiver_l1 =
            hierarchy.l1().counters().forThread(kReceiverThread);
        res.receiver_llc =
            hierarchy.llc().counters().forThread(kReceiverThread);
    }
    res.sender_stats = run.sender_stats;
    res.receiver_stats = run.receiver_stats;

    // ----- stage 3: calibrate, decode, score.
    const Calibration cal =
        calibrationFor(config.uarch, config.channel,
                       sessionCarrier(config), layout.ways(),
                       config.chain_len);
    res.threshold = cal.threshold;
    res.invert = cal.invert;

    res.spies = spy_count;
    res.samples = team ? team->mergedSamples() : pair->samples();
    res.sent = sender->sentBits();
    res.sender_start = sender->startTsc();
    if (!config.infinite) {
        if (team) {
            // Per-spy alignment first, then the any-spy-wins merge: each
            // spy's trace is windowed against the same sender bit clock,
            // so the merged row keeps the K=1 sent-bit alignment.
            std::vector<Bits> rows;
            rows.reserve(spy_count);
            for (std::uint32_t j = 0; j < spy_count; ++j) {
                rows.push_back(windowSymbols(
                    team->spySamples(j), res.threshold, res.invert,
                    res.sender_start, config.ts, nbits));
            }
            const Bits merged = mergeSpySymbols(rows);
            res.received.clear();
            for (const std::uint8_t s : merged) {
                if (s != kErasureSymbol)
                    res.received.push_back(s);
            }
            res.error_rate = editErrorRate(res.sent, res.received);
            if (config.collect_symbols)
                res.decoded_symbols = merged;
        } else {
            res.received =
                windowDecode(res.samples, res.threshold, res.invert,
                             res.sender_start, config.ts, nbits);
            res.error_rate = editErrorRate(res.sent, res.received);
            if (config.collect_symbols)
                res.decoded_symbols =
                    windowSymbols(res.samples, res.threshold, res.invert,
                                  res.sender_start, config.ts, nbits);
        }
    }

    res.elapsed_cycles =
        run.end > res.sender_start ? run.end - res.sender_start : 0;
    res.kbps = config.uarch.kbps(nbits, res.elapsed_cycles);
    return res;
}

double
sessionPercentOnes(SessionConfig config, std::uint8_t constant_bit)
{
    config.message = Bits{constant_bit};
    config.repeats = 1;
    config.infinite = true;
    const SessionResult r = runSession(config);

    const Bits bits = thresholdSamples(r.samples, r.threshold, r.invert);
    // Skip the first few warm-up observations.
    const std::size_t skip = std::min<std::size_t>(bits.size(), 4);
    Bits tail(bits.begin() + static_cast<std::ptrdiff_t>(skip), bits.end());
    return fractionOnes(tail);
}

} // namespace lruleak::channel
