/**
 * @file
 * The channel-session matrix: every channel design the repo implements
 * (both LRU algorithms, both Flush+Reload baselines, Prime+Probe, the
 * cross-core LLC Algorithm 2 and the dirty-state family) run in every
 * sharing mode (hyper-threaded, OS-time-sliced, cross-core) over every
 * replacement policy of the carrier cache — error rate and effective
 * bandwidth per cell, through the one channel::Session pipeline — plus
 * a PL-cache secure-mode ablation of the hyper-threaded column, an AMD
 * way-predictor cross-address-space comparison, and a time-sliced +
 * LLC-noise-cores combination.
 *
 * This is the payoff of unifying the three transmission harnesses:
 * cells like cross-core Flush+Reload (the shared line decoded at
 * LLC-vs-memory scale) and time-sliced Prime+Probe simply could not be
 * expressed before, because each harness hard-wired one channel family
 * to one topology.  The paper's Tables IV-VII compare channels across
 * these axes one at a time; the matrix runs the whole cross product.
 *
 * Scale note: the time-sliced cells default to the paper-faithful CFS
 * geometry — 1.5e8-cycle quanta with the ~1 ms timer tick — which the
 * TimeSlice slice-event fast path makes affordable (idle spans advance
 * as single slice events; see tests/test_slice_events.cpp for the
 * equivalence proof).  The protocol periods of those cells stretch
 * with the quantum so a bit spans the same number of slices at any
 * scale.  Passing a quantum below 1e6 (e.g. --quantum=30000) selects
 * the legacy scaled OS model — quantum, jitter and timer tick shrink
 * together, exactly as `xcore_timesliced` does.
 */

#include "channel/session.hpp"
#include "core/trial_runner.hpp"
#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

/** Per-mode protocol periods: the paper's single-core operating point
 *  and the cross-core one (the LLC round trip needs the longer Ts). */
struct ModePoint
{
    SharingMode mode;
    std::uint64_t tr;
    std::uint64_t ts;
};

constexpr ModePoint kModes[] = {
    {SharingMode::HyperThreaded, 600, 6000},
    {SharingMode::TimeSliced, 600, 6000},
    {SharingMode::CrossCore, 3000, 30000},
};

class ChannelMatrix final : public Experiment
{
  public:
    std::string name() const override { return "channel_matrix"; }

    std::string
    description() const override
    {
        return "channel-session matrix: all channels x all 3 sharing "
               "modes x carrier replacement policies, plus PL-cache, "
               "AMD cross-address-space and noise-core ablations";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("bits", 24, "random message length"),
            ParamSpec::integer("repeats", 1,
                               "times the message is re-sent"),
            ParamSpec::integer("quantum", 150'000'000,
                               "time-sliced cells: scheduling quantum in "
                               "cycles; values below 1e6 select the "
                               "scaled OS model (e.g. --quantum=30000)"),
            ParamSpec::integer("noise_cores", 2,
                               "background cores in the time-sliced + "
                               "noise section"),
            ParamSpec::str("policies",
                           "lru,treeplru,bitplru,fifo,random,srrip",
                           "comma-separated carrier replacement-policy "
                           "list"),
            uarchParam("e5-2690"),
            seedParam(29),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto seed = params.getUint("seed");
        const auto repeats = params.getUint32("repeats");
        const auto quantum = params.getUint("quantum");
        const Bits message = randomBits(
            static_cast<std::size_t>(params.getUint("bits")), 20200415);
        const auto uarch = uarchFromParams(params);
        const auto policies = parsePolicies(params.getStr("policies"));

        // Regime switch: paper-faithful CFS quanta (default) or the
        // legacy scaled OS model.  Time-sliced protocol periods stretch
        // with the quantum so a bit spans the same number of slices in
        // either regime; at true scale the sender is paced at the
        // Fig. 6 re-encode gap instead of spinning the whole bit.
        const bool scaled = quantum < 1'000'000;
        const std::uint64_t period_scale = scaled ? 1 : quantum / 30'000;
        const auto configureTimeSlice = [&](SessionConfig &cfg,
                                            const ModePoint &point) {
            cfg.tr = point.tr * period_scale;
            cfg.ts = point.ts * period_scale;
            if (!scaled)
                cfg.encode_gap = 20'000;
            cfg.tslice.quantum = quantum;
            cfg.tslice.quantum_jitter = quantum / 2;
            cfg.tslice.tick_period = scaled ? 100'000 : 4'000'000;
        };

        const auto &channels = allChannelIds();
        const auto &modes = kModes;
        const std::uint32_t n_modes =
            static_cast<std::uint32_t>(std::size(modes));
        const std::uint32_t n_channels =
            static_cast<std::uint32_t>(channels.size());
        const std::uint32_t cells = static_cast<std::uint32_t>(
            policies.size() * n_channels * n_modes);

        sink.note("=== channel-session matrix: channel x sharing mode x "
                  "carrier policy, " + uarch.name + " ===\n(" +
                  std::to_string(params.getUint("bits")) + "-bit random "
                  "string x" + std::to_string(repeats) + "; one "
                  "channel::Session per cell; error = edit distance / "
                  "bits sent;\ntime-sliced cells run a quantum-" +
                  std::to_string(quantum) +
                  (scaled ? " scaled OS model" : " CFS model (true "
                                                 "quanta, ~1 ms tick)") +
                  "; cross-core cells decode through the shared "
                  "inclusive LLC)");

        // One flat trial-parallel sweep over (policy, channel, mode);
        // the per-cell seed depends only on the cell index, so any
        // LRULEAK_THREADS produces the same table.
        const auto results = core::runTrials(
            cells, seed, [&](std::uint32_t idx, sim::Xoshiro256 &) {
                const std::uint32_t mode_idx = idx % n_modes;
                const std::uint32_t chan_idx =
                    (idx / n_modes) % n_channels;
                const std::size_t pol = idx / (n_modes * n_channels);

                SessionConfig cfg;
                cfg.channel = channels[chan_idx];
                cfg.mode = modes[mode_idx].mode;
                cfg.uarch = uarch;
                cfg.tr = modes[mode_idx].tr;
                cfg.ts = modes[mode_idx].ts;
                cfg.message = message;
                cfg.repeats = repeats;
                cfg.seed = seed + idx;
                // The swept policy governs the carrier cache: the L1
                // for single-core cells, the shared LLC for LLC-carried
                // ones.
                if (sessionCarrier(cfg) == Carrier::Llc)
                    cfg.llc_policy = policies[pol];
                else
                    cfg.l1_policy = policies[pol];
                if (cfg.mode == SharingMode::TimeSliced)
                    configureTimeSlice(cfg, modes[mode_idx]);
                const auto res = runSession(cfg);
                return std::pair<double, double>(res.error_rate,
                                                 res.kbps);
            });

        const auto cell = [&](std::size_t pol, std::uint32_t chan,
                              std::uint32_t mode) {
            return results[(pol * n_channels + chan) * n_modes + mode];
        };

        for (std::uint32_t m = 0; m < n_modes; ++m) {
            Table table(headerFor(policies));
            for (std::uint32_t c = 0; c < n_channels; ++c) {
                std::vector<std::string> row{
                    channelDisplayName(channels[c])};
                for (std::size_t p = 0; p < policies.size(); ++p) {
                    const auto &[err, kbps] = cell(p, c, m);
                    row.push_back(fmtPercent(err) + " @ " +
                                  fmtKbps(kbps));
                }
                table.addRow(row);
            }
            const bool stretched =
                modes[m].mode == SharingMode::TimeSliced;
            const std::uint64_t eff_scale = stretched ? period_scale : 1;
            sink.table(
                "--- sharing mode: " +
                    std::string(sharingModeToken(modes[m].mode)) +
                    " (Tr=" + std::to_string(modes[m].tr * eff_scale) +
                    ", Ts=" + std::to_string(modes[m].ts * eff_scale) +
                    ") ---",
                table);
        }

        // The headline matrix (first listed policy), one scalar per
        // channel x mode so trends are machine-checkable.
        for (std::uint32_t c = 0; c < n_channels; ++c) {
            for (std::uint32_t m = 0; m < n_modes; ++m) {
                sink.scalar(
                    "error_" +
                        std::string(channelIdToken(channels[c])) + "_" +
                        std::string(sharingModeToken(modes[m].mode)),
                    cell(0, c, m).first);
            }
        }

        // ----- PL-cache secure-mode ablation (Fig. 11's defense axis):
        // hyper-threaded cells, first listed policy, the sender locking
        // its line in a partition-locked L1.  The original PL design
        // still updates replacement state on locked hits, so the
        // LRU-state channels survive it; the fixed design freezes the
        // state and the dirty channels lose their evictable line.
        const sim::PlMode pl_modes[] = {sim::PlMode::Original,
                                        sim::PlMode::FixedLruLock};
        const auto pl_results = core::runTrials(
            n_channels * 2, seed + cells,
            [&](std::uint32_t idx, sim::Xoshiro256 &) {
                SessionConfig cfg;
                cfg.channel = channels[idx / 2];
                cfg.mode = SharingMode::HyperThreaded;
                cfg.uarch = uarch;
                cfg.tr = modes[0].tr;
                cfg.ts = modes[0].ts;
                cfg.message = message;
                cfg.repeats = repeats;
                cfg.seed = seed + cells + idx;
                cfg.l1_policy = policies[0];
                cfg.pl_mode = pl_modes[idx % 2];
                cfg.sender_locks_line = true;
                return runSession(cfg).error_rate;
            });

        Table pl_table({"Channel", "no PL-cache", "PL original",
                        "PL fixed (LRU-lock)"});
        for (std::uint32_t c = 0; c < n_channels; ++c) {
            pl_table.addRow({channelDisplayName(channels[c]),
                             fmtPercent(cell(0, c, 0).first),
                             fmtPercent(pl_results[c * 2]),
                             fmtPercent(pl_results[c * 2 + 1])});
            sink.scalar("error_" +
                            std::string(channelIdToken(channels[c])) +
                            "_pl_original",
                        pl_results[c * 2]);
            sink.scalar("error_" +
                            std::string(channelIdToken(channels[c])) +
                            "_pl_fixed",
                        pl_results[c * 2 + 1]);
        }
        sink.table("--- PL-cache ablation (hyperthreaded, " +
                       std::string(sim::replPolicyName(policies[0])) +
                       ", sender locks its line) ---",
                   pl_table);

        // ----- AMD way-predictor, cross-address-space (Section VII):
        // on Zen the L1 way predictor keys on a linear-address utag, so
        // sender and receiver mapping the shared line at *different*
        // virtual addresses fight the predictor on every probe.  Both
        // columns run the AMD model so the comparison isolates the
        // address-space split.
        const auto amd = timing::Uarch::amdEpyc7571();
        const std::uint64_t amd_base = seed + cells + n_channels * 2;
        const auto amd_results = core::runTrials(
            n_channels * 2, amd_base,
            [&](std::uint32_t idx, sim::Xoshiro256 &) {
                SessionConfig cfg;
                cfg.channel = channels[idx / 2];
                cfg.mode = SharingMode::HyperThreaded;
                cfg.uarch = amd;
                cfg.tr = modes[0].tr;
                cfg.ts = modes[0].ts;
                cfg.message = message;
                cfg.repeats = repeats;
                cfg.seed = amd_base + idx;
                cfg.l1_policy = policies[0];
                cfg.shared_same_vaddr = idx % 2 == 0;
                return runSession(cfg).error_rate;
            });

        Table amd_table({"Channel", "same vaddr", "separate spaces"});
        for (std::uint32_t c = 0; c < n_channels; ++c) {
            amd_table.addRow({channelDisplayName(channels[c]),
                              fmtPercent(amd_results[c * 2]),
                              fmtPercent(amd_results[c * 2 + 1])});
            sink.scalar("error_" +
                            std::string(channelIdToken(channels[c])) +
                            "_amd_xspace",
                        amd_results[c * 2 + 1]);
        }
        sink.table("--- AMD way predictor (hyperthreaded, " + amd.name +
                       ", " +
                       std::string(sim::replPolicyName(policies[0])) +
                       "): shared vaddr vs separate address spaces ---",
                   amd_table);

        // ----- time-sliced + noise cores: OS scheduling on the party
        // core while background cores hammer the shared LLC — the two
        // noise sources the paper studies separately, combined.  Runs
        // on the multi-core topology with TimeSlice nested on core 0,
        // where the slice-event fast path must stay per-op (the parent
        // LowestClock interleaves the noise cores' LLC traffic between
        // ops) — so this section always uses the scaled OS model; true
        // quanta here would mean minutes of per-op stepping per cell.
        const auto noise_cores = params.getUint32("noise_cores");
        const std::uint64_t noise_quantum = scaled ? quantum : 30'000;
        const std::uint64_t tsn_base = amd_base + n_channels * 2;
        const auto tsn_results = core::runTrials(
            n_channels, tsn_base, [&](std::uint32_t idx, sim::Xoshiro256 &) {
                SessionConfig cfg;
                cfg.channel = channels[idx];
                cfg.mode = SharingMode::TimeSliced;
                cfg.uarch = uarch;
                cfg.message = message;
                cfg.repeats = repeats;
                cfg.seed = tsn_base + idx;
                cfg.tr = modes[1].tr;
                cfg.ts = modes[1].ts;
                cfg.l1_policy = policies[0];
                cfg.noise_cores = noise_cores;
                cfg.tslice.quantum = noise_quantum;
                cfg.tslice.quantum_jitter = noise_quantum / 2;
                cfg.tslice.tick_period = 100'000;
                return runSession(cfg).error_rate;
            });

        // Baseline column at the *same* (scaled) OS scale, so the
        // comparison isolates the noise cores.  Under the scaled regime
        // the matrix's own time-sliced cells already are that baseline.
        std::vector<double> tsn_baseline(n_channels);
        if (scaled) {
            for (std::uint32_t c = 0; c < n_channels; ++c)
                tsn_baseline[c] = cell(0, c, 1).first;
        } else {
            const std::uint64_t base_seed = tsn_base + n_channels;
            const auto fresh = core::runTrials(
                n_channels, base_seed,
                [&](std::uint32_t idx, sim::Xoshiro256 &) {
                    SessionConfig cfg;
                    cfg.channel = channels[idx];
                    cfg.mode = SharingMode::TimeSliced;
                    cfg.uarch = uarch;
                    cfg.message = message;
                    cfg.repeats = repeats;
                    cfg.seed = base_seed + idx;
                    cfg.tr = modes[1].tr;
                    cfg.ts = modes[1].ts;
                    cfg.l1_policy = policies[0];
                    cfg.tslice.quantum = noise_quantum;
                    cfg.tslice.quantum_jitter = noise_quantum / 2;
                    cfg.tslice.tick_period = 100'000;
                    return runSession(cfg).error_rate;
                });
            for (std::uint32_t c = 0; c < n_channels; ++c)
                tsn_baseline[c] = fresh[c];
        }

        Table tsn_table({"Channel", "no noise cores",
                         "+" + std::to_string(noise_cores) +
                             " noise cores"});
        for (std::uint32_t c = 0; c < n_channels; ++c) {
            tsn_table.addRow({channelDisplayName(channels[c]),
                              fmtPercent(tsn_baseline[c]),
                              fmtPercent(tsn_results[c])});
            sink.scalar("error_" +
                            std::string(channelIdToken(channels[c])) +
                            "_timesliced_noise",
                        tsn_results[c]);
        }
        sink.table("--- time-sliced + LLC noise cores (" +
                       std::string(sim::replPolicyName(policies[0])) +
                       ", quantum-" + std::to_string(noise_quantum) +
                       " scaled OS model) ---",
                   tsn_table);

        sink.note("\nReading the matrix: the hyper-threaded column of "
                  "each table reproduces the paper's\nTable IV/VI "
                  "operating points; time-slicing degrades every design "
                  "(only the first\nmeasurement after a sender slice "
                  "carries signal); cross-core keeps the LLC-\ncarried "
                  "channels alive while the L1-resident F+R (L1) "
                  "design goes dark.  The\ncross-core Flush+Reload and "
                  "time-sliced Prime+Probe cells were unreachable\n"
                  "before the Session refactor.");
    }

  private:
    static std::vector<std::string>
    headerFor(const std::vector<sim::ReplPolicyKind> &policies)
    {
        std::vector<std::string> header{"Channel"};
        for (auto p : policies)
            header.push_back(std::string(sim::replPolicyName(p)));
        return header;
    }
};

LRULEAK_REGISTER_EXPERIMENT(ChannelMatrix)

} // namespace

} // namespace lruleak::experiments
