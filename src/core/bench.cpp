/**
 * @file
 * `lruleak bench` implementation.
 */

#include "core/bench.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <ostream>

#include "channel/session.hpp"
#include "exec/trace_program.hpp"
#include "sim/access_port.hpp"
#include "sim/cache_set.hpp"
#include "sim/hierarchy.hpp"
#include "sim/random.hpp"
#include "sim/replacement.hpp"
#include "spectre/transient_core.hpp"
#include "spectre/victim.hpp"

namespace lruleak::core {

namespace {

using sim::Addr;

/**
 * Faithful copy of the SEED CacheSet (PR 1 state): an array-of-structs
 * line vector plus a heap-allocated virtual replacement policy, one
 * virtual dispatch per access.  This is the baseline lane the redesign
 * is measured against; it must keep the old code shape, so don't "fix"
 * it.  The access body is the seed's Fig. 10 flow chart verbatim
 * (PL-mode branches included) and stays out of line because the seed
 * compiled it in its own translation unit — per-access calls never
 * inlined into the experiment loops.
 */
class LegacySet
{
  public:
    LegacySet(std::uint32_t ways, sim::ReplPolicyKind kind,
              std::uint64_t seed)
        : ways_(ways), lines_(ways),
          policy_(sim::makeReplacementPolicy(kind, ways, seed))
    {}

    struct LineState
    {
        Addr tag = 0;
        bool valid = false;
        bool locked = false;
        std::uint16_t utag = 0;
        sim::ThreadId filled_by = 0;
    };

    struct Result
    {
        bool hit = false;
        std::uint32_t way = sim::kNoWay;
        bool filled = false;
        bool bypassed = false;
        bool utag_mismatch = false;
        std::optional<Addr> evicted_tag;
    };

    [[gnu::noinline]] Result
    access(Addr tag, std::uint16_t utag, bool check_utag,
           sim::LockReq lock_req, sim::ThreadId thread)
    {
        Result res;

        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (lines_[w].valid && lines_[w].tag == tag) {
                res.hit = true;
                res.way = w;
                LineState &line = lines_[w];
                if (check_utag && line.utag != utag) {
                    res.utag_mismatch = true;
                    line.utag = utag;
                }
                policy_->touch(w);
                if (lock_req == sim::LockReq::Lock)
                    line.locked = true;
                else if (lock_req == sim::LockReq::Unlock)
                    line.locked = false;
                return res;
            }
        }

        std::uint32_t victim = sim::kNoWay;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!lines_[w].valid) {
                victim = w;
                break;
            }
        }
        if (victim == sim::kNoWay) {
            victim = policy_->selectVictim();
            res.evicted_tag = lines_[victim].tag;
        }
        LineState &line = lines_[victim];
        line.tag = tag;
        line.valid = true;
        line.locked = false;
        line.utag = utag;
        line.filled_by = thread;
        policy_->onFill(victim);
        res.way = victim;
        res.filled = true;
        return res;
    }

  private:
    std::uint32_t ways_;
    std::vector<LineState> lines_;
    std::unique_ptr<sim::ReplacementPolicy> policy_;
};

/** The shared tag trace of one workload, replayed cyclically. */
std::vector<Addr>
makeTrace(const SimBenchConfig &config, BenchWorkload workload)
{
    // A bounded trace replayed cyclically keeps memory flat while the
    // access count scales.
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(config.accesses, 1u << 20));
    std::vector<Addr> trace(len);
    switch (workload) {
      case BenchWorkload::Seq1Walk:
        // Paper Sequence 1: lines 0..N in order (N+1 tags in an N-way
        // set) — the channel init/decode walk and the Table I loop.
        for (std::size_t i = 0; i < len; ++i)
            trace[i] = 1 + (i % (config.ways + 1));
        break;
      case BenchWorkload::HotMix: {
        sim::Xoshiro256 rng(config.seed);
        for (auto &tag : trace) {
            if (rng.chance(config.hot_fraction))
                tag = 1 + rng.below(config.hot_tags);
            else
                tag = 1000 + rng.below(config.cold_tags);
        }
        break;
      }
    }
    return trace;
}

using Clock = std::chrono::steady_clock;

double
accessesPerSecond(std::uint64_t accesses, Clock::time_point start,
                  Clock::time_point stop)
{
    const double secs =
        std::chrono::duration<double>(stop - start).count();
    return secs > 0.0 ? static_cast<double>(accesses) / secs : 0.0;
}

/** Fold a result into the anti-DCE checksum. */
inline std::uint64_t
fold(std::uint64_t sink, std::uint32_t way, bool hit)
{
    return sink + way + (hit ? 1 : 0);
}

// Keep the checksum observable so no lane gets optimised away.
volatile std::uint64_t g_bench_sink = 0;

double
benchLegacy(const SimBenchConfig &config, sim::ReplPolicyKind kind,
            const std::vector<Addr> &trace)
{
    LegacySet set(config.ways, kind, config.seed);
    std::uint64_t sink = 0;
    std::size_t pos = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < config.accesses; ++i) {
        const auto res =
            set.access(trace[pos], 0, false, sim::LockReq::None, 0);
        if (++pos == trace.size())
            pos = 0;
        sink = fold(sink, res.way, res.hit);
    }
    const auto stop = Clock::now();
    g_bench_sink = g_bench_sink + sink;
    return accessesPerSecond(config.accesses, start, stop);
}

double
benchValue(const SimBenchConfig &config, sim::ReplPolicyKind kind,
           const std::vector<Addr> &trace)
{
    sim::CacheSet set(config.ways,
                      sim::ReplState::make(kind, config.ways, config.seed));
    std::uint64_t sink = 0;
    std::size_t pos = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < config.accesses; ++i) {
        const auto res = set.access(trace[pos], 0, false,
                                    sim::LockReq::None, 0);
        if (++pos == trace.size())
            pos = 0;
        sink = fold(sink, res.way, res.hit);
    }
    const auto stop = Clock::now();
    g_bench_sink = g_bench_sink + sink;
    return accessesPerSecond(config.accesses, start, stop);
}

double
benchReplay(const SimBenchConfig &config, sim::ReplPolicyKind kind,
            const std::vector<Addr> &trace)
{
    sim::CacheSet set(config.ways,
                      sim::ReplState::make(kind, config.ways, config.seed));
    std::uint64_t sink = 0;
    std::uint64_t done = 0;
    std::size_t pos = 0;
    const auto start = Clock::now();
    while (done < config.accesses) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(config.batch,
                                    config.accesses - done));
        const std::size_t run = std::min(n, trace.size() - pos);
        const auto stats = set.replayBatch(
            std::span<const Addr>(trace.data() + pos, run));
        sink += stats.hits + stats.fills;
        pos = (pos + run) % trace.size();
        done += run;
    }
    const auto stop = Clock::now();
    g_bench_sink = g_bench_sink + sink;
    return accessesPerSecond(config.accesses, start, stop);
}

double
benchBatch(const SimBenchConfig &config, sim::ReplPolicyKind kind,
           const std::vector<Addr> &trace)
{
    sim::CacheSet set(config.ways,
                      sim::ReplState::make(kind, config.ways, config.seed));
    std::vector<sim::SetAccessResult> results(config.batch);
    std::uint64_t sink = 0;
    std::uint64_t done = 0;
    std::size_t pos = 0;
    const auto start = Clock::now();
    while (done < config.accesses) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(config.batch,
                                    config.accesses - done));
        // The trace is replayed cyclically; feed contiguous runs so the
        // batch sees one span (wrap mid-trace by splitting the chunk).
        const std::size_t run =
            std::min(n, trace.size() - pos);
        set.accessBatch(std::span<const Addr>(trace.data() + pos, run),
                        std::span<sim::SetAccessResult>(results.data(),
                                                        run));
        for (std::size_t i = 0; i < run; ++i)
            sink = fold(sink, results[i].way, results[i].hit);
        pos = (pos + run) % trace.size();
        done += run;
    }
    const auto stop = Clock::now();
    g_bench_sink = g_bench_sink + sink;
    return accessesPerSecond(config.accesses, start, stop);
}

} // namespace

std::string_view
benchWorkloadName(BenchWorkload w)
{
    switch (w) {
      case BenchWorkload::Seq1Walk: return "seq1_walk";
      case BenchWorkload::HotMix:   return "hot_mix";
    }
    return "unknown";
}

std::vector<MacroBenchRow>
runMacroBench(const SimBenchConfig &config)
{
    // Per-lane op counts scale with --accesses (and therefore shrink
    // under --smoke); the expensive end-to-end lanes scale sublinearly.
    const std::uint64_t fast_ops =
        std::max<std::uint64_t>(config.accesses / 4, 10'000);
    const std::uint64_t walk_ops =
        std::max<std::uint64_t>(config.accesses / 8, 5'000);
    // Sized for the Session fast path: bits are ~25x cheaper than they
    // were pre-overhaul, so a full-scale run times 160 bits per lane —
    // a multi-millisecond window that measures the steady-state per-bit
    // cost instead of timer noise.
    const std::uint64_t channel_bits =
        std::max<std::uint64_t>(config.accesses / 25'000, 4);
    const std::uint64_t victim_calls =
        std::max<std::uint64_t>(config.accesses / 2'000, 200);

    std::vector<MacroBenchRow> rows;

    {
        // L1 hit path: one resident line accessed repeatedly.
        sim::Cache cache(sim::CacheConfig::intelL1d());
        const auto ref = sim::MemRef::load(0x40);
        cache.access(ref);
        std::uint64_t sink = 0;
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < fast_ops; ++i)
            sink = fold(sink, cache.access(ref).way, true);
        const auto stop = Clock::now();
        g_bench_sink = g_bench_sink + sink;
        rows.push_back({"cache_access_hit", fast_ops,
                        accessesPerSecond(fast_ops, start, stop)});
    }
    {
        // Streaming miss path: every access fills a new line.
        sim::Cache cache(sim::CacheConfig::intelL1d());
        sim::Addr addr = 0;
        std::uint64_t sink = 0;
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < fast_ops; ++i) {
            sink = fold(sink, cache.access(sim::MemRef::load(addr)).way,
                        false);
            addr += 64;
        }
        const auto stop = Clock::now();
        g_bench_sink = g_bench_sink + sink;
        rows.push_back({"cache_miss_stream", fast_ops,
                        accessesPerSecond(fast_ops, start, stop)});
    }
    {
        // Full three-level hierarchy walk over a large random footprint.
        sim::CacheHierarchy h;
        sim::Xoshiro256 rng(config.seed + 1);
        std::uint64_t sink = 0;
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < walk_ops; ++i) {
            const auto res =
                h.access(sim::MemRef::load(rng.below(1 << 22) * 64));
            sink += static_cast<std::uint64_t>(res.level);
        }
        const auto stop = Clock::now();
        g_bench_sink = g_bench_sink + sink;
        rows.push_back({"hierarchy_walk", walk_ops,
                        accessesPerSecond(walk_ops, start, stop)});
    }
    {
        // Trace-fed hierarchy replay: the fleet front end's fast path
        // (workload::TraceFile pumped through AccessPort::accessBatch),
        // on a mixed load/store trace so the write path is in the lane.
        const auto trace = workload::generateTrace(
            "gccmix", static_cast<std::size_t>(walk_ops),
            config.seed + 5, 0.2);
        sim::CacheHierarchy h;
        sim::SingleCorePort port(h);
        {
            // Warm-up: first-touch page faults of the ref/level buffers
            // and the trace pages stay out of the measured window.
            workload::TraceFile warm;
            warm.records.assign(
                trace.records.begin(),
                trace.records.begin() +
                    std::min<std::size_t>(trace.size(), 10'000));
            exec::replayTrace(port, 0, warm);
            h.reset();
        }
        const auto start = Clock::now();
        const auto stats = exec::replayTrace(port, 0, trace);
        const auto stop = Clock::now();
        g_bench_sink = g_bench_sink + stats.hits;
        rows.push_back({"trace_replay_access", stats.accesses,
                        accessesPerSecond(stats.accesses, start, stop)});
    }
    {
        // End-to-end covert-channel bits through the execution engine
        // (RoundRobinSmt over the single-core hierarchy), on the
        // Session fast path: pooled topology, memoized calibration,
        // batched walks, sender paced at the receiver's sampling
        // period.
        channel::SessionConfig cfg;
        cfg.channel = channel::ChannelId::LruAlg1;
        cfg.message = channel::Bits{1, 0, 1, 1};
        cfg.repeats = static_cast<std::uint32_t>(
            std::max<std::uint64_t>(channel_bits / 4, 1));
        cfg.batch_walks = true;
        cfg.encode_gap = static_cast<std::uint32_t>(cfg.tr);
        cfg.seed = config.seed + 3;
        const std::uint64_t bits = cfg.message.size() * cfg.repeats;
        {
            // Warm-up session: fills the thread-local topology pool
            // and the calibration memo so the measured window covers
            // the steady-state per-bit cost, not one-time setup.
            channel::SessionConfig warm = cfg;
            warm.repeats = 1;
            channel::runSession(warm);
        }
        const auto start = Clock::now();
        const auto res = channel::runSession(cfg);
        const auto stop = Clock::now();
        g_bench_sink = g_bench_sink + res.received.size();
        rows.push_back({"covert_channel_bit", bits,
                        accessesPerSecond(bits, start, stop)});
    }
    {
        // Cross-core bits: LowestClock over the multi-core hierarchy,
        // same fast-path methodology as the covert lane.
        channel::SessionConfig cfg;
        cfg.channel = channel::ChannelId::XCoreLruAlg2;
        cfg.mode = channel::SharingMode::CrossCore;
        cfg.d = 12;
        cfg.tr = 3000;
        cfg.ts = 30000;
        cfg.llc_policy = sim::ReplPolicyKind::TreePlru;
        cfg.message = channel::Bits{1, 0, 1, 1};
        cfg.repeats = static_cast<std::uint32_t>(
            std::max<std::uint64_t>(channel_bits / 4, 1));
        cfg.batch_walks = true;
        cfg.encode_gap = static_cast<std::uint32_t>(cfg.tr);
        cfg.seed = config.seed + 4;
        const std::uint64_t bits = cfg.message.size() * cfg.repeats;
        {
            channel::SessionConfig warm = cfg;
            warm.repeats = 1;
            channel::runSession(warm);
        }
        const auto start = Clock::now();
        const auto res = channel::runSession(cfg);
        const auto stop = Clock::now();
        g_bench_sink = g_bench_sink + res.received.size();
        rows.push_back({"xcore_channel_bit", bits,
                        accessesPerSecond(bits, start, stop)});
    }
    {
        // Transient victim calls (the Spectre harness inner loop).
        sim::CacheHierarchy h;
        spectre::SpectreVictim victim("x");
        spectre::TransientCore core(h, timing::Uarch::intelXeonE52690());
        for (int i = 0; i < 6; ++i)
            core.callVictim(victim, 0, spectre::GadgetPart::LowSixBits);
        std::uint64_t sink = 0;
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < victim_calls; ++i) {
            sink += core.callVictim(victim,
                                    spectre::SpectreVictim::maliciousX(0),
                                    spectre::GadgetPart::LowSixBits)
                        .load2_landed
                        ? 1
                        : 0;
        }
        const auto stop = Clock::now();
        g_bench_sink = g_bench_sink + sink;
        rows.push_back({"spectre_victim_call", victim_calls,
                        accessesPerSecond(victim_calls, start, stop)});
    }

    return rows;
}

std::vector<SimBenchRow>
runSimBench(const SimBenchConfig &config)
{
    const auto policies = config.policies.empty()
                              ? sim::allReplPolicyKinds()
                              : config.policies;

    std::vector<SimBenchRow> rows;
    rows.reserve(2 * policies.size());
    for (auto workload : {BenchWorkload::Seq1Walk, BenchWorkload::HotMix}) {
        const auto trace = makeTrace(config, workload);
        for (auto kind : policies) {
            SimBenchRow row;
            row.workload = workload;
            row.policy = kind;
            // Warm-up pass per lane keeps the first-touch page faults
            // and frequency ramp out of the measured window.
            {
                SimBenchConfig warm = config;
                warm.accesses = std::min<std::uint64_t>(config.accesses,
                                                        100'000);
                benchLegacy(warm, kind, trace);
                benchValue(warm, kind, trace);
                benchBatch(warm, kind, trace);
                benchReplay(warm, kind, trace);
            }
            row.legacy_aps = benchLegacy(config, kind, trace);
            row.value_aps = benchValue(config, kind, trace);
            row.batch_aps = benchBatch(config, kind, trace);
            row.replay_aps = benchReplay(config, kind, trace);
            rows.push_back(row);
        }
    }
    return rows;
}

bool
checkSimBench(const BenchCheckConfig &check,
              const std::vector<SimBenchRow> &rows,
              const std::vector<MacroBenchRow> &macro, std::ostream &os)
{
    bool ok = true;
    for (const auto &row : rows) {
        if (row.replayOverLegacy() < check.replay_ratio_floor) {
            os << "CHECK FAILED: " << benchWorkloadName(row.workload)
               << "/" << sim::replPolicyName(row.policy)
               << " replay_over_legacy " << row.replayOverLegacy()
               << " < " << check.replay_ratio_floor << "\n";
            ok = false;
        }
    }
    const auto macroFloor = [&](const char *lane, double floor) {
        for (const auto &row : macro) {
            if (row.name != lane)
                continue;
            if (row.items_per_sec < floor) {
                os << "CHECK FAILED: " << lane << " " << row.items_per_sec
                   << " items/s < floor " << floor << "\n";
                ok = false;
            }
            return;
        }
        os << "CHECK FAILED: lane '" << lane << "' missing from run\n";
        ok = false;
    };
    macroFloor("covert_channel_bit", check.covert_bit_floor);
    macroFloor("xcore_channel_bit", check.xcore_bit_floor);
    macroFloor("trace_replay_access", check.trace_replay_floor);
    return ok;
}

void
writeSimBenchJson(const SimBenchConfig &config,
                  const std::vector<SimBenchRow> &rows,
                  const std::vector<MacroBenchRow> &macro, std::ostream &os)
{
    os << "{\n"
       << "  \"bench\": \"sim_access\",\n"
       << "  \"unit\": \"accesses_per_second\",\n"
       << "  \"accesses\": " << config.accesses << ",\n"
       << "  \"ways\": " << config.ways << ",\n"
       << "  \"batch\": " << config.batch << ",\n"
       << "  \"seed\": " << config.seed << ",\n"
       << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &row = rows[i];
        os << "    {\"workload\": \"" << benchWorkloadName(row.workload)
           << "\", \"policy\": \"" << sim::replPolicyName(row.policy)
           << "\", \"legacy_virtual\": " << row.legacy_aps
           << ", \"value_access\": " << row.value_aps
           << ", \"value_batch\": " << row.batch_aps
           << ", \"value_replay\": " << row.replay_aps
           << ", \"batch_over_legacy\": " << row.batchOverLegacy()
           << ", \"replay_over_legacy\": " << row.replayOverLegacy()
           << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n"
       << "  \"macro\": [\n";
    for (std::size_t i = 0; i < macro.size(); ++i) {
        os << "    {\"lane\": \"" << macro[i].name
           << "\", \"items\": " << macro[i].items
           << ", \"items_per_second\": " << macro[i].items_per_sec << "}"
           << (i + 1 < macro.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace lruleak::core
