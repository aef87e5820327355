/**
 * @file
 * Leakage of the cross-core LRU channel beside trace-fed noise cores.
 *
 * The fleet-mode front end: instead of the synthetic NoiseProgram, the
 * background cores replay a workload::TraceFile — either a file
 * captured/exported earlier (`trace=path`) or a trace materialized on
 * the spot from the synthetic suite (`workload=...`, with a store
 * fraction so the PR-6 write path runs too).  The covert Session
 * (Algorithm 2 over the shared inclusive LLC) transmits while N cores
 * replay the trace at staggered offsets, and leakage::Report scores
 * the channel per carrier replacement policy: Miller-Madow bits/use,
 * a bootstrap CI, and bits/s.
 *
 * A preliminary section replays the trace through a bare single-core
 * hierarchy (exec::replayTrace, the engine-free fast path) to
 * characterize the workload itself — records, store fraction, cache
 * hit rate — so the leakage table can be read against the pressure
 * the trace actually generates.
 *
 * Determinism: the trace is a pure function of (workload, accesses,
 * writes, seed); sessions sit in one flat core::runTrials sweep with
 * per-cell seeds derived only from the flat index.  Golden-snapshotted
 * at smoke scale like every registered experiment.
 */

#include <memory>

#include "channel/session.hpp"
#include "core/trial_runner.hpp"
#include "exec/trace_program.hpp"
#include "experiments/common.hpp"
#include "leakage/report.hpp"
#include "sim/access_port.hpp"
#include "workload/trace_file.hpp"
#include "workload/trace_gen.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

/** Cross-core operating point (same as the channel/leakage matrices). */
constexpr std::uint64_t kTr = 3000;
constexpr std::uint64_t kTs = 30'000;

class TraceReplay final : public Experiment
{
  public:
    std::string name() const override { return "trace_replay"; }

    std::string
    description() const override
    {
        return "x-core LRU channel leakage (bits/use, bits/s) beside "
               "noise cores replaying a memory-access trace, per "
               "carrier policy; traces loaded from file or generated "
               "from the synthetic suite";
    }

    std::vector<ParamSpec>
    params() const override
    {
        std::string suite;
        for (const auto &w : workload::workloadNames()) {
            if (!suite.empty())
                suite += ", ";
            suite += w;
        }
        return {
            ParamSpec::str("trace", "",
                           "trace file to replay on the noise cores "
                           "(text or LRUT binary; empty: generate from "
                           "'workload')"),
            ParamSpec::str("workload", "gccmix",
                           "synthetic generator behind an empty 'trace' "
                           "(" + suite + ")"),
            ParamSpec::integer("accesses", 20'000,
                               "records of the generated trace"),
            ParamSpec::real("writes", 0.2,
                            "store fraction of the generated trace"),
            ParamSpec::integer("noise-cores", 2,
                               "cores replaying the trace beside the "
                               "channel parties"),
            ParamSpec::integer("bits", 24, "random message length"),
            ParamSpec::integer("repeats", 1,
                               "times the message is re-sent"),
            ParamSpec::integer("trials", 2,
                               "independent sessions pooled per policy"),
            ParamSpec::integer("resamples", 200,
                               "bootstrap resamples behind the 95% CIs"),
            ParamSpec::str("policies", "treeplru,lru,srrip",
                           "comma-separated carrier replacement-policy "
                           "list (shared LLC)"),
            uarchParam("e5-2690"),
            seedParam(42),
        };
    }

    std::map<std::string, std::string>
    smokeParams() const override
    {
        auto overrides = Experiment::smokeParams();
        overrides["accesses"] = "4000";
        return overrides;
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto seed = params.getUint("seed");
        const auto trials = params.getUint32("trials");
        const auto noise_cores = params.getUint32("noise-cores");
        const auto resamples =
            static_cast<std::size_t>(params.getUint("resamples"));
        const Bits message = randomBits(
            static_cast<std::size_t>(params.getUint("bits")), 20200415);
        const auto uarch = uarchFromParams(params);
        const auto policies = parsePolicies(params.getStr("policies"));

        // ----- the trace: load it, or materialize the named workload.
        const std::string trace_path = params.getStr("trace");
        auto trace = std::make_shared<const workload::TraceFile>(
            trace_path.empty()
                ? workload::generateTrace(
                      params.getStr("workload"),
                      static_cast<std::size_t>(
                          params.getUint("accesses")),
                      seed ^ 0x7ace'0000ULL, params.getReal("writes"))
                : workload::loadTrace(trace_path));
        std::uint64_t stores = 0;
        for (const auto &r : trace->records)
            stores += r.is_write ? 1 : 0;
        const double store_frac =
            trace->empty() ? 0.0
                           : static_cast<double>(stores) /
                                 static_cast<double>(trace->size());

        // ----- characterize the workload on a bare hierarchy (the
        // engine-free replay fast path).
        sim::CacheHierarchy hierarchy;
        sim::SingleCorePort port(hierarchy);
        const auto replay = exec::replayTrace(port, 0, *trace);
        const double hit_rate =
            replay.accesses == 0
                ? 0.0
                : static_cast<double>(replay.hits) /
                      static_cast<double>(replay.accesses);

        sink.note("=== trace replay: x-core LRU channel vs trace-fed "
                  "noise cores, " + uarch.name + " ===\n(trace '" +
                  trace->source + "': " +
                  std::to_string(trace->size()) + " accesses, " +
                  fmtDouble(100.0 * store_frac, 1) + "% stores; " +
                  std::to_string(noise_cores) + " noise core(s) replay "
                  "it at staggered offsets while the covert parties "
                  "transmit\nover the shared LLC; Tr=" +
                  std::to_string(kTr) + ", Ts=" + std::to_string(kTs) +
                  ")");

        Table shape({"Trace", "accesses", "stores", "cache hit rate"});
        shape.addRow({trace->source, std::to_string(trace->size()),
                      std::to_string(stores),
                      fmtDouble(hit_rate, 4)});
        sink.table("--- workload shape (bare-hierarchy replay) ---",
                   shape);
        sink.scalar("trace_accesses",
                    static_cast<double>(trace->size()));
        sink.scalar("trace_store_fraction", store_frac);
        sink.scalar("replay_hit_rate", hit_rate);

        // ----- the leakage sweep: one flat trial grid, policy-major.
        const std::uint32_t n_policies =
            static_cast<std::uint32_t>(policies.size());
        struct TrialTrace
        {
            Bits sent;
            Bits decoded;
            double kbps = 0.0;
        };
        const auto traces = core::runTrials(
            n_policies * trials, seed,
            [&](std::uint32_t idx, sim::Xoshiro256 &) {
                const std::uint32_t pol = idx / trials;

                SessionConfig cfg;
                cfg.channel = ChannelId::XCoreLruAlg2;
                cfg.mode = SharingMode::CrossCore;
                cfg.uarch = uarch;
                cfg.tr = kTr;
                cfg.ts = kTs;
                cfg.message = message;
                cfg.repeats = params.getUint32("repeats");
                cfg.collect_symbols = true;
                cfg.seed = seed + idx;
                cfg.llc_policy = policies[pol];
                cfg.noise_cores = noise_cores;
                cfg.noise_trace = trace;
                const auto res = runSession(cfg);
                return TrialTrace{res.sent, res.decoded_symbols,
                                  res.kbps};
            });

        Table table({"Carrier policy", "bits/use", "95% CI", "bits/s",
                     "pairs"});
        for (std::uint32_t p = 0; p < n_policies; ++p) {
            leakage::Report::Config rc;
            rc.resamples = resamples;
            rc.seed = 0x7ace + p;
            leakage::Report report(rc);
            for (std::uint32_t t = 0; t < trials; ++t) {
                const TrialTrace &tr = traces[p * trials + t];
                report.addTrial(tr.sent, tr.decoded, tr.kbps * 1000.0);
            }
            const auto a = report.aggregate();
            const std::string pol =
                std::string(sim::replPolicyName(policies[p]));
            table.addRow(
                {pol, fmtDouble(a.pooled.corrected_bits_per_use, 4),
                 "[" + fmtDouble(a.bits_per_use_ci.lo, 4) + ", " +
                     fmtDouble(a.bits_per_use_ci.hi, 4) + "]",
                 fmtDouble(a.pooled.bits_per_second, 0),
                 std::to_string(a.pairs)});
            sink.scalar("bpu_" + pol, a.pooled.corrected_bits_per_use);
            sink.scalar("bps_" + pol, a.pooled.bits_per_second);
        }
        sink.table("--- leakage beside the replayed trace, per carrier "
                   "policy ---",
                   table);

        sink.note("\nReading it: the channel's bits/use under REAL "
                  "workload pressure, not the synthetic\nnoise model — "
                  "a trace with high LLC pressure displaces the "
                  "carrier lines and erodes\nthe channel, a cache-"
                  "friendly trace leaves it intact.  Swap `trace=` for "
                  "a captured\nfile (or `lruleak trace-gen` output) to "
                  "score leakage beside any workload.");
    }
};

LRULEAK_REGISTER_EXPERIMENT(TraceReplay)

} // namespace

} // namespace lruleak::experiments
