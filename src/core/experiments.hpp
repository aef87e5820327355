/**
 * @file
 * Shared experiment runners behind the registered experiments.
 *
 * Each function implements the measurement logic of one paper artifact
 * (the experiments then only sweep parameters and print).  See
 * DESIGN.md for the experiment-to-module map.
 */

#ifndef LRULEAK_CORE_EXPERIMENTS_HPP
#define LRULEAK_CORE_EXPERIMENTS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "channel/channel_factory.hpp"
#include "channel/session.hpp"
#include "core/histogram.hpp"
#include "timing/uarch.hpp"
#include "workload/cpu_model.hpp"

namespace lruleak::core {

// ------------------------------------------------------------- Table I

/** Warm-up state of the target set before the measured loop. */
enum class InitCondition
{
    Random,     //!< lines 0..7 (and others) accessed in random order
    Sequential, //!< lines 0..7 accessed in order (Sequence 2 warm-up)
};

/** The two access sequences of Section IV-C. */
enum class AccessSequence
{
    Seq1, //!< 0 -> 1 -> ... -> 7 -> 8
    Seq2, //!< 0 (x) 1 (x) ... (x) 7, x inserted with probability 1/2
};

/** Table I study knobs. */
struct EvictionStudyConfig
{
    std::uint32_t ways = 8;
    std::uint32_t trials = 10'000;
    std::uint32_t loop_iterations = 8;
    double x_probability = 0.5;
    std::uint64_t seed = 2020;
};

/**
 * Probability that line 0 has been evicted after each loop iteration
 * (index 0 = after the first iteration), reproducing one cell-column of
 * Table I.
 */
std::vector<double> evictionProbabilities(sim::ReplPolicyKind policy,
                                          InitCondition init,
                                          AccessSequence seq,
                                          const EvictionStudyConfig &config);

// ----------------------------------------------------- Figures 3 and 13

/** Hit/miss latency distributions of a measurement primitive. */
struct LatencyHistograms
{
    Histogram hit;   //!< target served from L1
    Histogram miss;  //!< target served from L2
};

/** Fig. 3: pointer-chase readout distributions. */
LatencyHistograms pointerChaseHistograms(const timing::Uarch &uarch,
                                         std::uint32_t samples = 20'000,
                                         std::uint64_t seed = 3);

/** Fig. 13 (Appendix A): single-access rdtscp readout distributions. */
LatencyHistograms singleAccessHistograms(const timing::Uarch &uarch,
                                         std::uint32_t samples = 20'000,
                                         std::uint64_t seed = 3);

// ------------------------------------------------------------- Table V

/**
 * The channels compared in Tables V and VI — now the library-wide
 * channel::ChannelId (see channel/channel_factory.hpp), so experiment
 * code and the CLI select channels through one name table.
 */
using ChannelKind = channel::ChannelId;

std::string channelKindName(ChannelKind kind);

/**
 * Mean sender encoding latency in cycles (Table V): victim-address
 * arithmetic plus the sender's one memory access at whatever level the
 * channel leaves its line.
 */
double meanEncodeLatency(const timing::Uarch &uarch, ChannelKind kind,
                         std::uint64_t seed = 5);

// ------------------------------------------------------------ Table VI

/** Sender-process miss rates in one co-residency scenario. */
struct MissRateRow
{
    std::string scenario;
    sim::LevelStats l1;
    sim::LevelStats l2;
    sim::LevelStats llc;
};

/**
 * Table VI: the four channels plus the "sender & gcc" and "sender only"
 * baselines; stats are the sender thread's per-level counters.
 */
std::vector<MissRateRow> senderMissRates(const timing::Uarch &uarch,
                                         std::uint64_t seed = 6);

/** Same, over an explicit channel list (CLI --channels path). */
std::vector<MissRateRow>
senderMissRates(const timing::Uarch &uarch,
                const std::vector<ChannelKind> &channels,
                std::uint64_t seed);

// -------------------------------------------------------------- Fig. 9

/**
 * Run the whole synthetic suite under each policy.  Rows come back
 * grouped by workload in suite order, one row per policy.
 */
std::vector<workload::CpuRunResult>
replacementPerformance(const std::vector<sim::ReplPolicyKind> &policies,
                       std::uint64_t instructions = 400'000,
                       std::uint64_t seed = 9);

// ------------------------------------------------------------- Fig. 11

/** Receiver trace of the PL-cache attack (Fig. 11). */
struct PlAttackTrace
{
    std::vector<channel::Sample> samples;
    channel::Bits sent;
    std::uint32_t threshold = 0;
    double error_rate = 0.0;
    bool constant = false; //!< all observations identical (fixed design)
};

/**
 * Run LRU Algorithm 2 against a PL-cache L1 whose victim line the sender
 * has locked; @p mode selects the original (leaky) or fixed design.
 */
PlAttackTrace plCacheAttack(sim::PlMode mode,
                            const timing::Uarch &uarch =
                                timing::Uarch::intelXeonE52690(),
                            std::size_t bits = 24, std::uint64_t seed = 11);

} // namespace lruleak::core

#endif // LRULEAK_CORE_EXPERIMENTS_HPP
