/**
 * @file
 * The three benchmark workloads and the paper reference probe.
 *
 *  - timesliced: the Fig. 6/8/15 grids.  The sender constantly sends
 *    0 or 1 under the root TimeSlice policy at the true ~1.5e8-cycle
 *    quanta, so the cost is the sender's idle spin on one L1-hit line.
 *  - hyperthreaded: SMT transmissions of random messages over four
 *    channels x four L1 policies x Intel/AMD, scored by the leakage
 *    estimator.  Per-op RoundRobinSmt interleaving, nothing idle.
 *  - crosscore_writes: cross-core LLC channels beside six noise cores
 *    that replay a store-heavy trace; each session's noise touches more
 *    lines than the LLC holds.  Half the cells time-slice the party
 *    cores (TimeSlice nested under LowestClock).
 */

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "bench.hpp"
#include "channel/bitstring.hpp"
#include "core/trial_runner.hpp"

namespace perfbench {

using namespace lruleak;
using channel::ChannelId;
using channel::SessionConfig;
using channel::SharingMode;

namespace {

constexpr std::size_t kVariants = 4;

// ------------------------------------------------------------ timesliced

/** Receiver samples per time-sliced session (the figures use 100; the
 *  smaller count keeps a 10 s run above 100 sessions). */
constexpr std::uint64_t kMeasurements = 10;

struct SlicedCell
{
    const char *uarch;
    std::uint64_t fig_seed;
    std::uint64_t tr;
    std::uint32_t d;
    std::uint8_t bit;
};

std::vector<SlicedCell>
slicedCells()
{
    std::vector<SlicedCell> cells;
    const auto grid = [&](const char *uarch, std::uint64_t fig_seed,
                          std::vector<std::uint64_t> trs,
                          std::vector<std::uint32_t> ds) {
        for (std::uint8_t bit : {0, 1})
            for (std::uint64_t tr : trs)
                for (std::uint32_t d : ds)
                    cells.push_back({uarch, fig_seed, tr, d, bit});
    };
    // Fig. 6 (E5-2690), Fig. 8 (EPYC 7571), Fig. 15 (E3-1245 v5): the
    // registered experiments' Tr x d grids and seeds.
    grid("e5-2690", 31,
         {25'000'000, 50'000'000, 100'000'000, 200'000'000, 400'000'000},
         {1, 2, 3, 4, 5, 6, 7, 8});
    grid("epyc-7571", 51,
         {25'000'000, 100'000'000, 200'000'000, 400'000'000},
         {2, 4, 6, 8});
    grid("e3-1245v5", 61,
         {25'000'000, 100'000'000, 200'000'000, 400'000'000},
         {2, 4, 6, 8});
    return cells;
}

const std::vector<SlicedCell> &
slicedUniverse()
{
    static const std::vector<SlicedCell> cells = slicedCells();
    return cells;
}

SessionSpec
slicedSpec(std::size_t cell, std::size_t variant)
{
    const SlicedCell &c = slicedUniverse().at(cell);
    SessionSpec s;
    s.key = std::string(c.uarch) + "/tr" + std::to_string(c.tr / 1'000'000) +
            "/d" + std::to_string(c.d) + "/bit" + std::to_string(c.bit) +
            "/v" + std::to_string(variant);
    s.scoring = Scoring::PercentOnes;
    s.constant_bit = c.bit;
    SessionConfig &cfg = s.config;
    cfg.uarch = timing::uarchFromName(c.uarch);
    cfg.mode = SharingMode::TimeSliced;
    cfg.d = c.d;
    cfg.tr = c.tr;
    cfg.encode_gap = 20'000;
    cfg.max_samples = kMeasurements;
    cfg.seed = c.fig_seed + c.d + 1000 * variant;
    // What sessionPercentOnes does to the config before runSession.
    cfg.message = channel::Bits{c.bit};
    cfg.repeats = 1;
    cfg.infinite = true;
    return s;
}

// --------------------------------------------------------- hyperthreaded

constexpr const char *kHtUarchs[] = {"e5-2690", "epyc-7571"};
constexpr ChannelId kHtChannels[] = {ChannelId::LruAlg1, ChannelId::LruAlg2,
                                     ChannelId::PrimeProbe, ChannelId::FrL1};
constexpr sim::ReplPolicyKind kHtPolicies[] = {
    sim::ReplPolicyKind::TreePlru, sim::ReplPolicyKind::TrueLru,
    sim::ReplPolicyKind::BitPlru, sim::ReplPolicyKind::Srrip};
constexpr std::size_t kHtCells =
    std::size(kHtUarchs) * std::size(kHtChannels) * std::size(kHtPolicies);

SessionSpec
htSpec(std::size_t cell, std::size_t variant)
{
    const std::size_t pol = cell % std::size(kHtPolicies);
    const std::size_t chan = (cell / std::size(kHtPolicies)) %
                             std::size(kHtChannels);
    const std::size_t uarch =
        cell / (std::size(kHtPolicies) * std::size(kHtChannels));
    SessionSpec s;
    s.key = std::string(kHtUarchs[uarch]) + "/" +
            std::string(channel::channelIdToken(kHtChannels[chan])) + "/" +
            std::string(sim::replPolicyName(kHtPolicies[pol])) + "/v" +
            std::to_string(variant);
    s.scoring = Scoring::DecodeLeakage;
    SessionConfig &cfg = s.config;
    cfg.channel = kHtChannels[chan];
    cfg.mode = SharingMode::HyperThreaded;
    cfg.uarch = timing::uarchFromName(kHtUarchs[uarch]);
    cfg.l1_policy = kHtPolicies[pol];
    // The channel_matrix / leakage_matrix hyper-threaded operating point.
    cfg.tr = 600;
    cfg.ts = 6000;
    cfg.message = channel::randomBits(64, 0x4854'0000ULL + variant);
    cfg.collect_symbols = true;
    cfg.seed = 1 + cell + 1000 * variant;
    return s;
}

// ------------------------------------------------------ crosscore_writes

constexpr ChannelId kXcChannels[] = {ChannelId::XCoreLruAlg2,
                                     ChannelId::DirtyEvict};
constexpr sim::ReplPolicyKind kXcPolicies[] = {sim::ReplPolicyKind::TreePlru,
                                               sim::ReplPolicyKind::Srrip};
constexpr std::uint64_t kXcQuanta[] = {0, 50'000};
constexpr std::uint64_t kXcTs[] = {40'000, 60'000};
constexpr std::size_t kXcCells = std::size(kXcChannels) *
                                 std::size(kXcPolicies) *
                                 std::size(kXcQuanta) * std::size(kXcTs);

/**
 * Noise: pointer chasing over 8 MiB (four times the modeled 2 MiB LLC),
 * 30% of accesses promoted to stores, on six noise cores (the
 * E5-2690's eight cores, two of them the parties').  A noise core
 * touches a new line about every 300 simulated cycles, so with the
 * 64-bit messages and Ts >= 40000 below every session's noise touches
 * more distinct lines than the LLC holds (sim.noise_footprint_llc in
 * the traced run; 1.3x to 3.4x per session).
 */
constexpr const char *kTraceWorkload = "ptrchase";
constexpr std::size_t kTraceRecords = 1 << 18;
constexpr double kTraceWrites = 0.3;
constexpr std::uint32_t kXcNoiseCores = 6;

SessionSpec
xcSpec(const Workload &w, std::size_t cell, std::size_t variant)
{
    std::size_t rest = cell;
    const std::size_t ts = rest % std::size(kXcTs);
    rest /= std::size(kXcTs);
    const std::size_t q = rest % std::size(kXcQuanta);
    rest /= std::size(kXcQuanta);
    const std::size_t pol = rest % std::size(kXcPolicies);
    const std::size_t chan = rest / std::size(kXcPolicies);
    SessionSpec s;
    s.key = std::string(channel::channelIdToken(kXcChannels[chan])) + "/" +
            std::string(sim::replPolicyName(kXcPolicies[pol])) + "/q" +
            std::to_string(kXcQuanta[q]) + "/ts" +
            std::to_string(kXcTs[ts]) + "/v" + std::to_string(variant);
    s.scoring = Scoring::Decode;
    SessionConfig &cfg = s.config;
    cfg.channel = kXcChannels[chan];
    cfg.mode = SharingMode::CrossCore;
    cfg.llc_policy = kXcPolicies[pol];
    cfg.tr = 3000;
    cfg.ts = kXcTs[ts];
    cfg.noise_cores = kXcNoiseCores;
    cfg.noise_trace = w.traces.at(variant);
    cfg.message = channel::randomBits(64, 0x5843'0000ULL + variant);
    // xcore_timesliced's OS knobs: jitter half a quantum, ~25 us tick.
    cfg.quantum = kXcQuanta[q];
    cfg.tslice.quantum_jitter = kXcQuanta[q] / 2;
    cfg.tslice.tick_period = 100'000;
    cfg.seed = 1 + cell + 1000 * variant;
    return s;
}

} // namespace

SessionSpec
Workload::spec(std::size_t cell, std::size_t variant) const
{
    if (name == "timesliced")
        return slicedSpec(cell, variant);
    if (name == "hyperthreaded")
        return htSpec(cell, variant);
    return xcSpec(*this, cell, variant);
}

Workload
makeWorkload(const std::string &name)
{
    Workload w;
    w.name = name;
    w.variants = kVariants;
    if (name == "timesliced") {
        w.cells = slicedUniverse().size();
        w.batch = 4;
        w.traced_sessions = 12;
    } else if (name == "hyperthreaded") {
        w.cells = kHtCells;
        w.batch = kHtCells;
        w.traced_sessions = 4 * kHtCells;
    } else if (name == "crosscore_writes") {
        w.cells = kXcCells;
        w.batch = kXcCells;
        w.traced_sessions = kXcCells;
        const auto start = Clock::now();
        for (std::size_t v = 0; v < kVariants; ++v)
            w.traces.push_back(std::make_shared<const workload::TraceFile>(
                workload::generateTrace(kTraceWorkload, kTraceRecords,
                                        0x7ace'0000ULL + v, kTraceWrites)));
        w.trace_gen_s = secondsSince(start);
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

std::vector<std::pair<std::size_t, std::size_t>>
sessionPlan(const Workload &w, std::uint64_t seed, std::size_t count)
{
    std::vector<std::pair<std::size_t, std::size_t>> plan;
    plan.reserve(count);
    std::vector<std::size_t> order(w.cells);
    // variants[cell * w.variants + k]: the variant the cell runs in the
    // k-th cycle of the current block.
    std::vector<std::size_t> variants(w.cells * w.variants);
    for (std::uint64_t cycle = 0; plan.size() < count; ++cycle) {
        sim::Xoshiro256 rng = core::trialStream(seed, cycle);
        const std::size_t k = cycle % w.variants;
        if (k == 0) {
            for (std::size_t c = 0; c < w.cells; ++c) {
                std::size_t *perm = &variants[c * w.variants];
                for (std::size_t v = 0; v < w.variants; ++v)
                    perm[v] = v;
                for (std::size_t v = w.variants; v > 1; --v)
                    std::swap(perm[v - 1], perm[rng.below(v)]);
            }
        }
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        for (std::size_t i = 0; i < order.size() && plan.size() < count;
             ++i)
            plan.emplace_back(order[i],
                              variants[order[i] * w.variants + k]);
    }
    return plan;
}

std::vector<PaperPoint>
paperProbe()
{
    std::vector<PaperPoint> points;

    // Fig. 6, as exp_fig6_timesliced runs it at its defaults.
    SessionConfig fig6;
    fig6.uarch = timing::Uarch::intelXeonE52690();
    fig6.mode = SharingMode::TimeSliced;
    fig6.d = 8;
    fig6.tr = 100'000'000;
    fig6.encode_gap = 20'000;
    fig6.max_samples = 100;
    fig6.seed = 31 + 8;
    points.push_back({"Fig. 6 E5-2690 sending 1, Tr=1e8, d=8",
                      100.0 * channel::sessionPercentOnes(fig6, 1), 30.0,
                      "% of 1s"});

    // Table IV hyper-threaded Algorithm 1, as exp_tab4 runs it.
    const auto htKbps = [](const timing::Uarch &uarch) {
        SessionConfig cfg;
        cfg.channel = ChannelId::LruAlg1;
        cfg.uarch = uarch;
        cfg.d = 8;
        cfg.ts = uarch.way_predictor ? 100'000 : 6000;
        cfg.tr = uarch.way_predictor ? 1000 : 600;
        cfg.message = channel::randomBits(96, 17);
        cfg.seed = 3;
        return channel::runSession(cfg).kbps;
    };
    points.push_back({"Table IV HT Alg. 1 E5-2690",
                      htKbps(timing::Uarch::intelXeonE52690()), 500.0,
                      "Kbps"});
    points.push_back({"Table IV HT Alg. 1 EPYC 7571",
                      htKbps(timing::Uarch::amdEpyc7571()), 20.0, "Kbps"});
    return points;
}

} // namespace perfbench
