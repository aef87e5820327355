/**
 * @file
 * Shared types of the repository benchmark.
 *
 * A workload is a fixed universe of sessions: `cells` channel-session
 * shapes, each in `variants` input variants (message, noise trace and
 * simulation seed).  Every (cell, variant) pair has a committed digest
 * of its simulated output in perfbench/expected/, so a session is
 * checked against a known answer whatever benchmark seed selected it.
 * The benchmark seed only decides which variant of each cell runs and
 * in which order; the library sees nothing but the generated messages,
 * traces and configs.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "channel/session.hpp"
#include "leakage/estimator.hpp"
#include "workload/trace_file.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** How a session's raw result is turned into scored symbols. */
enum class Scoring
{
    PercentOnes,   //!< Fig. 6/8/15: threshold each sample vs a constant bit
    Decode,        //!< window-decode, edit-distance score
    DecodeLeakage, //!< Decode plus the leakage estimator on the symbols
};

/** One runnable session of a workload universe. */
struct SessionSpec
{
    std::string key; //!< "<cell>/v<variant>", the digest lookup key
    lruleak::channel::SessionConfig config; //!< passed to runSession as is
    Scoring scoring = Scoring::Decode;
    std::uint8_t constant_bit = 0; //!< PercentOnes: the bit being sent
};

/** A session's simulated output after scoring. */
struct Outcome
{
    lruleak::channel::SessionResult result;
    std::uint64_t scored = 0; //!< symbols decoded and scored
    std::uint64_t errors = 0; //!< scored symbols in error
    double percent_ones = 0.0;
    lruleak::leakage::Estimate leak;
    /** Trace records each noise core replayed (traced rebuild only). */
    std::vector<std::uint64_t> noise_replayed;
};

/** Score a raw runSession result the way @p spec asks (no leakage). */
Outcome scoreDecode(const SessionSpec &spec,
                    lruleak::channel::SessionResult result);

/** Apply the leakage estimator to a decoded outcome (DecodeLeakage). */
void scoreLeakage(Outcome &out);

/** Hex digest of every simulated field of @p out. */
std::string digestOf(const Outcome &out);

/** A workload: its universe, its closed-loop shape and its inputs. */
struct Workload
{
    std::string name;
    std::size_t batch = 8;          //!< sessions per runTrials call
    std::size_t traced_sessions = 8; //!< sessions in one traced pass
    std::size_t cells = 0;
    std::size_t variants = 0;
    /** Noise traces, one per variant (crosscore_writes only). */
    std::vector<std::shared_ptr<const lruleak::workload::TraceFile>> traces;
    double trace_gen_s = 0.0;       //!< host time spent in generateTrace

    /** Session (cell, variant), fully built. */
    SessionSpec spec(std::size_t cell, std::size_t variant) const;
};

/** Build workload @p name, generating its inputs (throws on a bad name). */
Workload makeWorkload(const std::string &name);

/**
 * The run's session order: cycles through the universe, each cycle a
 * seeded shuffle of the cells.  Cycles come in blocks of `variants`;
 * within a block each cell runs each of its variants once, in a seeded
 * order.  So every whole block runs every (cell, variant) exactly once,
 * whatever the seed.  Returns the first @p count sessions as (cell,
 * variant) pairs.
 */
std::vector<std::pair<std::size_t, std::size_t>>
sessionPlan(const Workload &w, std::uint64_t seed, std::size_t count);

/** One paper-referenced quantity reproduced by the model. */
struct PaperPoint
{
    std::string what;
    double simulated = 0.0;
    double reference = 0.0;
    std::string unit;
};

/**
 * The fixed reference probe behind paper_gap_pct: the figures whose
 * "Paper reference" notes give a number (Fig. 6 % of 1s at Tr=1e8,
 * d=8; Table IV hyper-threaded Algorithm 1 rates on Intel and AMD).
 */
std::vector<PaperPoint> paperProbe();

/**
 * Simulated counts of one traced session that runSession does not
 * return: whole-hierarchy figures (every core and level, noise and OS
 * threads included) read from the rebuilt topology after the run.
 * Deterministic for a session.
 */
struct HierarchyCounts
{
    std::uint64_t writebacks = 0;        //!< dirty lines drained, all caches
    std::uint64_t noise_writebacks = 0;  //!< ... by noise-core accesses
    std::uint64_t memory_writebacks = 0; //!< write-backs reaching memory
    std::uint64_t llc_evictions = 0;     //!< LLC fills that displaced a line
    std::uint64_t noise_accesses = 0;    //!< trace records the noise replayed

    HierarchyCounts &operator+=(const HierarchyCounts &o);
    bool operator==(const HierarchyCounts &) const = default;
};

/** Per-layer accumulators of one traced session (see traced.cpp). */
struct LayerTimes
{
    double sim_s = 0.0;
    double exec_run_s = 0.0; //!< Engine construction + run, children incl.
    double program_s = 0.0;
    double setup_s = 0.0;
    double decode_s = 0.0;
    double leakage_s = 0.0;
    std::uint64_t accesses = 0;     //!< memory accesses through the port
    std::uint64_t party_steps = 0;  //!< party ThreadProgram::next calls
    std::uint64_t events = 0;       //!< root ArbitrationPolicy::step calls
    std::uint64_t leakage_calls = 0;
    HierarchyCounts hierarchy;

    LayerTimes &operator+=(const LayerTimes &o);
};

/**
 * Rebuild @p spec's session from the public sim/exec/channel pieces
 * with timing decorators at the AccessPort, the party ThreadPrograms
 * and the root ArbitrationPolicy, then score it like the untraced run.
 * The outcome must be bit-identical to runSession's.
 */
Outcome runTraced(const SessionSpec &spec, LayerTimes &times);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
