/**
 * @file
 * The leakage matrix: channel_matrix upgraded from "does the channel
 * work" (edit-distance error) to "how much does it leak" (empirical
 * mutual information and capacity).
 *
 * Every cell runs `trials` independent channel::Session transmissions
 * with symbol collection on, pools their aligned (sent, decoded)
 * pairs through leakage::Report, and reports
 *
 *   - bits/use: Miller-Madow-corrected mutual information of the
 *     pooled confusion matrix (input {0,1}, output {0,1,erasure});
 *   - a 95% bootstrap CI over the per-trial estimates;
 *   - Blahut-Arimoto capacity of the empirical channel;
 *   - bits/second: bits/use x the session's raw symbol rate.
 *
 * Axes: every ChannelId x every sharing mode x the carrier replacement
 * policies, plus a secure-mode column over the hyper-threaded cells —
 * DAWG and RandomFill L1s (CacheConfig::secure) and both PL-cache
 * modes — which turns the repo's defenses into entries on one leakage
 * scale.  DAWG partitions the L1 ways and replacement state between
 * the sender and receiver domains, so the L1-carried channels should
 * score ~0 bits/use under it.  A final section runs the cross-core
 * column under a SHARP-protected LLC (sim::SecureMode::Sharp), whose
 * eviction filtering refuses the single receiver's displacement of the
 * sender-owned line — the x-core LRU channel's bits/use collapses to
 * ~0 (the multi-spy counter-attack is scored by `sharp_defense`).
 *
 * Determinism: one flat core::runTrials sweep per section with
 * per-session seeds derived only from the flat index, then strictly
 * sequential aggregation — any LRULEAK_THREADS yields byte-identical
 * output, which the golden snapshot pins.
 */

#include "channel/session.hpp"
#include "core/trial_runner.hpp"
#include "experiments/common.hpp"
#include "leakage/report.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

/** Per-mode protocol periods (same operating points as channel_matrix). */
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

/** Secure-mode column of the hyper-threaded section. */
struct SecurePoint
{
    const char *token;
    sim::SecureMode l1_secure;
    sim::PlMode pl_mode;
    bool lock_line;
};

constexpr SecurePoint kSecure[] = {
    {"dawg", sim::SecureMode::Dawg, sim::PlMode::Disabled, false},
    {"randomfill", sim::SecureMode::RandomFill, sim::PlMode::Disabled,
     false},
    {"pl_original", sim::SecureMode::None, sim::PlMode::Original, true},
    {"pl_fixed", sim::SecureMode::None, sim::PlMode::FixedLruLock, true},
};

/** What one session contributes to its cell's Report. */
struct TrialTrace
{
    Bits sent;
    Bits decoded;
    double kbps = 0.0;
};

class LeakageMatrix final : public Experiment
{
  public:
    std::string name() const override { return "leakage_matrix"; }

    std::string
    description() const override
    {
        return "empirical leakage instrument: bits/use (Miller-Madow "
               "MI), Blahut-Arimoto capacity and bits/s per channel x "
               "sharing mode x carrier policy x secure-cache mode";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("bits", 24, "random message length"),
            ParamSpec::integer("repeats", 1,
                               "times the message is re-sent"),
            ParamSpec::integer("trials", 2,
                               "independent sessions pooled per cell"),
            ParamSpec::integer("resamples", 200,
                               "bootstrap resamples behind the 95% CIs"),
            ParamSpec::integer("quantum", 30'000,
                               "time-sliced cells: scheduling quantum in "
                               "cycles (scaled OS model)"),
            ParamSpec::str("policies", "treeplru,lru,srrip",
                           "comma-separated carrier replacement-policy "
                           "list"),
            uarchParam("e5-2690"),
            seedParam(31),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto seed = params.getUint("seed");
        const auto repeats = params.getUint32("repeats");
        const auto trials = params.getUint32("trials");
        const auto resamples =
            static_cast<std::size_t>(params.getUint("resamples"));
        const auto quantum = params.getUint("quantum");
        const Bits message = randomBits(
            static_cast<std::size_t>(params.getUint("bits")), 20200415);
        const auto uarch = uarchFromParams(params);
        const auto policies = parsePolicies(params.getStr("policies"));

        const auto &channels = allChannelIds();
        const std::uint32_t n_modes =
            static_cast<std::uint32_t>(std::size(kModes));
        const std::uint32_t n_channels =
            static_cast<std::uint32_t>(channels.size());
        const std::uint32_t n_policies =
            static_cast<std::uint32_t>(policies.size());
        const std::uint32_t cells = n_policies * n_channels * n_modes;

        sink.note("=== leakage matrix: empirical bits/use and bits/s "
                  "per channel x sharing mode x policy, " + uarch.name +
                  " ===\n(" + std::to_string(params.getUint("bits")) +
                  "-bit random string x" + std::to_string(repeats) +
                  "; " + std::to_string(trials) + " session(s) pooled "
                  "per cell; MI is Miller-Madow corrected over the "
                  "{0,1}->{0,1,erasure}\nconfusion matrix; capacity is "
                  "Blahut-Arimoto over the empirical conditionals; CIs "
                  "are 95%\npercentile bootstrap over trials)");

        // ----- section A: channel x mode x policy.
        // One flat sweep; session (cell, t) sits at idx = cell*trials+t
        // and is seeded by idx alone, so the table is independent of
        // LRULEAK_THREADS.
        const auto traces = core::runTrials(
            cells * trials, seed, [&](std::uint32_t idx, sim::Xoshiro256 &) {
                const std::uint32_t cell_idx = idx / trials;
                const std::uint32_t mode_idx = cell_idx % n_modes;
                const std::uint32_t chan_idx =
                    (cell_idx / n_modes) % n_channels;
                const std::size_t pol = cell_idx / (n_modes * n_channels);

                SessionConfig cfg;
                cfg.channel = channels[chan_idx];
                cfg.mode = kModes[mode_idx].mode;
                cfg.uarch = uarch;
                cfg.tr = kModes[mode_idx].tr;
                cfg.ts = kModes[mode_idx].ts;
                cfg.message = message;
                cfg.repeats = repeats;
                cfg.collect_symbols = true;
                cfg.seed = seed + idx;
                if (sessionCarrier(cfg) == Carrier::Llc)
                    cfg.llc_policy = policies[pol];
                else
                    cfg.l1_policy = policies[pol];
                if (cfg.mode == SharingMode::TimeSliced) {
                    cfg.tslice.quantum = quantum;
                    cfg.tslice.quantum_jitter = quantum / 2;
                    cfg.tslice.tick_period = 100'000;
                }
                const auto res = runSession(cfg);
                return TrialTrace{res.sent, res.decoded_symbols, res.kbps};
            });

        // Sequential aggregation, one Report per cell, bootstrap seed a
        // function of the cell index only.
        const auto aggregateCell = [&](const auto &all,
                                       std::uint32_t cell_idx,
                                       std::uint64_t boot_seed) {
            leakage::Report::Config rc;
            rc.resamples = resamples;
            rc.seed = boot_seed;
            leakage::Report report(rc);
            for (std::uint32_t t = 0; t < trials; ++t) {
                const TrialTrace &tr = all[cell_idx * trials + t];
                report.addTrial(tr.sent, tr.decoded, tr.kbps * 1000.0);
            }
            return report.aggregate();
        };

        std::vector<leakage::Aggregate> agg(cells);
        for (std::uint32_t cell_idx = 0; cell_idx < cells; ++cell_idx)
            agg[cell_idx] = aggregateCell(traces, cell_idx, 97 + cell_idx);

        const auto cellAgg = [&](std::size_t pol, std::uint32_t chan,
                                 std::uint32_t mode) -> const auto & {
            return agg[(pol * n_channels + chan) * n_modes + mode];
        };

        for (std::uint32_t m = 0; m < n_modes; ++m) {
            Table table(headerFor(policies));
            for (std::uint32_t c = 0; c < n_channels; ++c) {
                std::vector<std::string> row{
                    channelDisplayName(channels[c])};
                for (std::uint32_t p = 0; p < n_policies; ++p) {
                    const auto &a = cellAgg(p, c, m);
                    row.push_back(
                        fmtDouble(a.pooled.corrected_bits_per_use, 3) +
                        " b/u @ " +
                        fmtDouble(a.pooled.bits_per_second, 0) + " b/s");
                }
                table.addRow(row);
            }
            sink.table("--- sharing mode: " +
                           std::string(sharingModeToken(kModes[m].mode)) +
                           " (Tr=" + std::to_string(kModes[m].tr) +
                           ", Ts=" + std::to_string(kModes[m].ts) +
                           ") ---",
                       table);
        }

        // Every cell as machine-checkable scalars (bits/use, bits/s).
        for (std::uint32_t p = 0; p < n_policies; ++p) {
            const std::string pol =
                std::string(sim::replPolicyName(policies[p]));
            for (std::uint32_t c = 0; c < n_channels; ++c) {
                for (std::uint32_t m = 0; m < n_modes; ++m) {
                    const auto &a = cellAgg(p, c, m);
                    const std::string key =
                        std::string(channelIdToken(channels[c])) + "_" +
                        std::string(sharingModeToken(kModes[m].mode)) +
                        "_" + pol;
                    sink.scalar("bpu_" + key,
                                a.pooled.corrected_bits_per_use);
                    sink.scalar("bps_" + key, a.pooled.bits_per_second);
                }
            }
        }

        // Detail view of the headline column: hyper-threaded cells on
        // the first listed policy, with CIs and capacity.
        Table detail({"Channel", "bits/use", "95% CI", "capacity b/u",
                      "bits/s", "pairs"});
        for (std::uint32_t c = 0; c < n_channels; ++c) {
            const auto &a = cellAgg(0, c, 0);
            detail.addRow(
                {channelDisplayName(channels[c]),
                 fmtDouble(a.pooled.corrected_bits_per_use, 4),
                 "[" + fmtDouble(a.bits_per_use_ci.lo, 4) + ", " +
                     fmtDouble(a.bits_per_use_ci.hi, 4) + "]",
                 fmtDouble(a.pooled.capacity_bits_per_use, 4),
                 fmtDouble(a.pooled.bits_per_second, 0),
                 std::to_string(a.pairs)});
            sink.scalar("capacity_" +
                            std::string(channelIdToken(channels[c])) +
                            "_hyperthreaded",
                        a.pooled.capacity_bits_per_use);
        }
        sink.table("--- hyperthreaded detail (" +
                       std::string(sim::replPolicyName(policies[0])) +
                       "): corrected MI, bootstrap CI, capacity ---",
                   detail);

        // ----- section B: secure-cache modes over the hyper-threaded
        // column (first listed policy).  DAWG / RandomFill act on the
        // L1 (CacheConfig::secure); the PL modes lock the sender's
        // line.  The "none" baseline is section A's cell.
        const std::uint32_t n_secure =
            static_cast<std::uint32_t>(std::size(kSecure));
        const std::uint64_t sec_base = seed + cells * trials;
        const auto sec_traces = core::runTrials(
            n_secure * n_channels * trials, sec_base,
            [&](std::uint32_t idx, sim::Xoshiro256 &) {
                const std::uint32_t cell_idx = idx / trials;
                const SecurePoint &sp = kSecure[cell_idx % n_secure];
                const std::uint32_t chan_idx = cell_idx / n_secure;

                SessionConfig cfg;
                cfg.channel = channels[chan_idx];
                cfg.mode = SharingMode::HyperThreaded;
                cfg.uarch = uarch;
                cfg.tr = kModes[0].tr;
                cfg.ts = kModes[0].ts;
                cfg.message = message;
                cfg.repeats = repeats;
                cfg.collect_symbols = true;
                cfg.seed = sec_base + idx;
                cfg.l1_policy = policies[0];
                cfg.l1_secure = sp.l1_secure;
                cfg.pl_mode = sp.pl_mode;
                cfg.sender_locks_line = sp.lock_line;
                const auto res = runSession(cfg);
                return TrialTrace{res.sent, res.decoded_symbols, res.kbps};
            });

        Table sec_table({"Channel", "none", "dawg", "randomfill",
                         "pl_original", "pl_fixed"});
        for (std::uint32_t c = 0; c < n_channels; ++c) {
            std::vector<std::string> row{channelDisplayName(channels[c])};
            row.push_back(fmtDouble(
                cellAgg(0, c, 0).pooled.corrected_bits_per_use, 3));
            for (std::uint32_t s = 0; s < n_secure; ++s) {
                const std::uint32_t cell_idx = c * n_secure + s;
                const auto a = aggregateCell(sec_traces, cell_idx,
                                             0x5ec0 + cell_idx);
                row.push_back(fmtDouble(
                    a.pooled.corrected_bits_per_use, 3));
                const std::string key =
                    std::string(channelIdToken(channels[c])) + "_" +
                    kSecure[s].token;
                sink.scalar("bpu_" + key,
                            a.pooled.corrected_bits_per_use);
                sink.scalar("bps_" + key, a.pooled.bits_per_second);
            }
            sec_table.addRow(row);
        }
        sink.table("--- secure-cache modes, bits/use (hyperthreaded, " +
                       std::string(sim::replPolicyName(policies[0])) +
                       ") ---",
                   sec_table);

        // ----- section C: SHARP on the shared LLC over the cross-core
        // column (first listed policy, single receiver, threshold 0 —
        // the pure detector already refuses every cross-owner eviction,
        // which is what kills the single-spy channel).  The "none"
        // baseline is section A's cross-core cell.  The multi-spy
        // counter-attack and the alarm economics live in the dedicated
        // `sharp_defense` experiment.
        const std::uint32_t xc_mode = n_modes - 1; // CrossCore
        const std::uint64_t sharp_base =
            sec_base + n_secure * n_channels * trials;
        const auto sharp_traces = core::runTrials(
            n_channels * trials, sharp_base,
            [&](std::uint32_t idx, sim::Xoshiro256 &) {
                const std::uint32_t chan_idx = idx / trials;

                SessionConfig cfg;
                cfg.channel = channels[chan_idx];
                cfg.mode = SharingMode::CrossCore;
                cfg.uarch = uarch;
                cfg.tr = kModes[xc_mode].tr;
                cfg.ts = kModes[xc_mode].ts;
                cfg.message = message;
                cfg.repeats = repeats;
                cfg.collect_symbols = true;
                cfg.seed = sharp_base + idx;
                if (sessionCarrier(cfg) == Carrier::Llc)
                    cfg.llc_policy = policies[0];
                else
                    cfg.l1_policy = policies[0];
                cfg.llc_secure = sim::SecureMode::Sharp;
                const auto res = runSession(cfg);
                return TrialTrace{res.sent, res.decoded_symbols, res.kbps};
            });

        Table sharp_table({"Channel", "none", "sharp"});
        for (std::uint32_t c = 0; c < n_channels; ++c) {
            const auto a =
                aggregateCell(sharp_traces, c, 0x5a9f + c);
            sharp_table.addRow(
                {channelDisplayName(channels[c]),
                 fmtDouble(
                     cellAgg(0, c, xc_mode).pooled.corrected_bits_per_use,
                     3),
                 fmtDouble(a.pooled.corrected_bits_per_use, 3)});
            const std::string key =
                std::string(channelIdToken(channels[c])) + "_sharp";
            sink.scalar("bpu_" + key, a.pooled.corrected_bits_per_use);
            sink.scalar("bps_" + key, a.pooled.bits_per_second);
        }
        sink.table("--- SHARP-protected LLC, bits/use (crosscore, " +
                       std::string(sim::replPolicyName(policies[0])) +
                       ") ---",
                   sharp_table);

        sink.note("\nReading the matrix: a cell near 1.0 b/u leaks its "
                  "full input bit every use; the\nsecure-mode columns "
                  "show what each defense buys — DAWG partitions the "
                  "L1's ways\nand replacement state per thread domain, "
                  "so every L1-carried channel drops to ~0\nwhile the "
                  "memory-latency and LLC channels ride straight "
                  "through; the original PL\ndesign still updates LRU "
                  "state on locked hits, which is the residue Alg. 2 "
                  "keeps.\nThe SHARP row plays the same role for the "
                  "shared LLC: refusing cross-owner\nevictions severs "
                  "the x-core carrier for a lone receiver.  bits/s "
                  "folds the\nsession's real pace in: a clean but slow "
                  "channel can leak less per second than a\nnoisy fast "
                  "one.");
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

LRULEAK_REGISTER_EXPERIMENT(LeakageMatrix)

} // namespace

} // namespace lruleak::experiments
