/**
 * @file
 * The repository benchmark binary.  perfbench/run.py builds and drives
 * it; see perfbench/README.md for the workloads and metrics.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --expected FILE [--max-sessions N] [--setup-only]
 *             [--setup-samples S1,S2,...]
 *   perfbench --workload W --write-expected FILE
 *
 * --trace 0: a closed loop of channel::runSession calls through
 *   core::runTrials until S seconds, one whole block of the universe
 *   and kMinSessions sessions have passed; prints the end-to-end
 *   metrics.
 * --trace 1: alternates an untraced and a traced pass over the same
 *   fixed sessions for S seconds; prints the per-layer metrics.
 *
 * Every session's simulated output is digested and compared with the
 * committed digest of its (cell, variant); a mismatch or an exception
 * counts as failed.  The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "core/trial_runner.hpp"
#include "exec/engine.hpp"

namespace perfbench {
namespace {

using namespace lruleak;

/**
 * runTrials workers of the closed loops.  One, so runTrials runs each
 * batch inline on the main thread, whose thread_local calibration memo
 * and topology pool the warm-up fills: fresh workers per batch would
 * time cold sessions, which then set the p90.
 */
constexpr unsigned kThreads = 1;
/** Enough sessions for a p90 with ten samples beyond it. */
constexpr std::size_t kMinSessions = 100;
/** Stop looping after this long even below kMinSessions, so a run of a
 *  badly regressed build still ends inside a 180 s budget. */
constexpr double kMaxLoopSeconds = 120.0;

// -------------------------------------------------------------- options

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string expected;
    std::string write_expected;
    std::size_t max_sessions = 0; //!< 0 = run for `seconds`
    /** setup_s of earlier --setup-only processes, pooled with this
     *  process's own into the reported median. */
    std::vector<double> setup_samples;
    bool setup_only = false;
};

std::vector<double>
parseSamples(const std::string &list)
{
    std::vector<double> out;
    std::stringstream in(list);
    std::string item;
    while (std::getline(in, item, ','))
        out.push_back(std::stod(item));
    return out;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --expected FILE [--max-sessions N] "
                 "[--setup-only] [--setup-samples S1,S2,...]\n"
                 "       perfbench --workload W --write-expected FILE\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                o.workload = value();
            else if (arg == "--seed")
                o.seed = std::stoull(value());
            else if (arg == "--seconds")
                o.seconds = std::stod(value());
            else if (arg == "--trace")
                o.trace = std::stoi(value());
            else if (arg == "--expected")
                o.expected = value();
            else if (arg == "--write-expected")
                o.write_expected = value();
            else if (arg == "--max-sessions")
                o.max_sessions = std::stoull(value());
            else if (arg == "--setup-samples")
                o.setup_samples = parseSamples(value());
            else if (arg == "--setup-only")
                o.setup_only = true;
            else
                usage("unknown argument '" + arg + "'");
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (o.trace != 0 && o.trace != 1)
        usage("--trace must be 0 or 1");
    if (!(o.seconds >= 0.0))
        usage("--seconds must be >= 0");
    if (o.write_expected.empty() && o.expected.empty())
        usage("--expected is required");
    return o;
}

// --------------------------------------------------------------- output

std::string
fmtNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "")
    {
        metrics_.push_back({name, value, unit});
        std::cout << "metric " << name << " " << fmtNumber(value) << " "
                  << unit << (note.empty() ? "" : "  # " + note) << "\n";
    }

    /** Printed for the reader only; not part of the result object. */
    static void
    info(const std::string &name, double value, const std::string &unit,
         const std::string &note = "")
    {
        std::cout << "info " << name << " " << fmtNumber(value) << " "
                  << unit << (note.empty() ? "" : "  # " + note) << "\n";
    }

    void
    finish(bool correct, std::uint64_t attempted, std::uint64_t failed) const
    {
        std::ostringstream os;
        os << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << attempted
           << ", \"failed\": " << failed << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            os << (i ? ", " : "") << jsonString(m.name)
               << ": {\"value\": " << fmtNumber(m.value)
               << ", \"unit\": " << jsonString(m.unit) << "}";
        }
        os << "}}";
        std::cout << os.str() << std::endl;
    }

  private:
    std::vector<Metric> metrics_;
};

// ---------------------------------------------------------- fingerprint

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
        regs[0] >= 0x80000004u) {
        for (unsigned leaf = 0; leaf < 3; ++leaf)
            __get_cpuid(0x80000002u + leaf, &regs[4 * leaf],
                        &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                        &regs[4 * leaf + 3]);
        std::string brand(reinterpret_cast<const char *>(regs),
                          sizeof regs);
        brand.erase(brand.find('\0') == std::string::npos
                        ? brand.size()
                        : brand.find('\0'));
        const auto first = brand.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : brand.substr(first);
    }
#endif
    return "unknown";
}

std::string
compilerId()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

constexpr bool kNdebug =
#ifdef NDEBUG
    true;
#else
    false;
#endif

void
printHost(const Options &o)
{
    std::cout << "host {\"workload\": " << jsonString(o.workload)
              << ", \"seed\": " << o.seed << ", \"threads\": " << kThreads
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"cpu\": " << jsonString(cpuModel())
              << ", \"compiler\": " << jsonString(compilerId())
              << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
              << ", \"ndebug\": " << (kNdebug ? "true" : "false")
              << ", \"audit_every\": " << exec::kDefaultAuditEvery << "}\n";
}

/**
 * Peak resident set of this process image in MiB: VmHWM, not
 * getrusage's ru_maxrss, which Linux carries across execve and so would
 * report the launching interpreter's footprint.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

double
quantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

// ------------------------------------------------------------- sessions

/** Simulated counts of a set of sessions: identical in the traced and
 *  untraced runs, and from run to run of one seed. */
struct SimCounts
{
    std::uint64_t sessions = 0;
    std::uint64_t l1_accesses = 0;
    std::uint64_t l1_misses = 0;
    std::uint64_t llc_accesses = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t back_invalidations = 0;
    std::uint64_t ops = 0;
    std::uint64_t spins = 0;
    std::uint64_t sim_cycles = 0;
    std::uint64_t bits = 0;
    std::uint64_t errors = 0;
    std::uint64_t samples = 0;

    static SimCounts
    of(const Outcome &out)
    {
        const channel::SessionResult &r = out.result;
        SimCounts c;
        c.sessions = 1;
        c.l1_accesses = r.sender_l1.accesses + r.receiver_l1.accesses;
        c.l1_misses = r.sender_l1.misses + r.receiver_l1.misses;
        c.llc_accesses = r.sender_llc.accesses + r.receiver_llc.accesses;
        c.llc_misses = r.sender_llc.misses + r.receiver_llc.misses;
        c.back_invalidations = r.back_invalidations;
        c.ops = r.sender_stats.totalOps() + r.receiver_stats.totalOps();
        c.spins = r.sender_stats.spins + r.receiver_stats.spins;
        c.sim_cycles = r.elapsed_cycles;
        c.bits = out.scored;
        c.errors = out.errors;
        c.samples = r.samples.size();
        return c;
    }

    SimCounts &
    operator+=(const SimCounts &o)
    {
        sessions += o.sessions;
        l1_accesses += o.l1_accesses;
        l1_misses += o.l1_misses;
        llc_accesses += o.llc_accesses;
        llc_misses += o.llc_misses;
        back_invalidations += o.back_invalidations;
        ops += o.ops;
        spins += o.spins;
        sim_cycles += o.sim_cycles;
        bits += o.bits;
        errors += o.errors;
        samples += o.samples;
        return *this;
    }

    bool operator==(const SimCounts &) const = default;
};

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/** What one session of a pass reports back. */
struct SessionRecord
{
    std::string key;
    std::string digest;
    std::string error; //!< non-empty when the session threw
    double host_s = 0.0;
    SimCounts counts;
    LayerTimes layers; //!< traced sessions only
    std::optional<Outcome> outcome; //!< traced sessions only
};

SessionRecord
runOne(const Workload &w, std::pair<std::size_t, std::size_t> id,
       bool traced)
{
    const SessionSpec spec = w.spec(id.first, id.second);
    SessionRecord rec;
    rec.key = spec.key;
    try {
        const auto start = Clock::now();
        Outcome out;
        if (traced) {
            out = runTraced(spec, rec.layers);
        } else {
            out = scoreDecode(spec, channel::runSession(spec.config));
            if (spec.scoring == Scoring::DecodeLeakage)
                scoreLeakage(out);
        }
        rec.host_s = secondsSince(start);
        rec.digest = digestOf(out);
        rec.counts = SimCounts::of(out);
        if (traced)
            rec.outcome = std::move(out);
    } catch (const std::exception &e) {
        rec.error = e.what();
    }
    return rec;
}

using Plan = std::vector<std::pair<std::size_t, std::size_t>>;

/** One closed-loop batch: sessions [first, first + n) of @p plan. */
std::vector<SessionRecord>
runBatch(const Workload &w, const Plan &plan, std::size_t first,
         std::size_t n, unsigned threads, bool traced)
{
    return core::runTrials(
        static_cast<std::uint32_t>(n), 0,
        [&](std::uint32_t t, sim::Xoshiro256 &) {
            return runOne(w, plan[first + t], traced);
        },
        threads);
}

/**
 * Round-robin pinning of the measuring thread over the CPUs the
 * process may use.  On a shared host the CPUs run at different speeds
 * (on a 4-vCPU Xeon guest, a fixed job pinned to each CPU took 1.4 to
 * 1.9 s), so an unpinned run measures whichever CPU it happened to land
 * on; rotating every batch over all of them makes each run time the
 * same average.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed_))
                cpus_.push_back(cpu);
    }

    ~CpuRotation() { sched_setaffinity(0, sizeof allowed_, &allowed_); }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Restart the rotation at the @p start-th CPU. */
    void restart(std::size_t start) { next_ = start; }

    /** Pin the calling thread to the next CPU of the rotation. */
    void
    advance()
    {
        if (cpus_.size() <= 1)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[next_++ % cpus_.size()], &set);
        sched_setaffinity(0, sizeof set, &set);
    }

  private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

using Expected = std::map<std::string, std::string>;

Expected
loadExpected(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read expected digests: " + path);
    Expected expected;
    std::string key, digest;
    while (in >> key >> digest)
        expected[key] = digest;
    return expected;
}

/** Checks session records against the committed digests and tallies
 *  the failures. */
class Checker
{
  public:
    explicit Checker(const Expected &expected) : expected_(expected) {}

    bool
    check(const SessionRecord &rec)
    {
        ++attempted_;
        std::string why;
        if (!rec.error.empty()) {
            why = "threw: " + rec.error;
        } else {
            const auto it = expected_.find(rec.key);
            if (it == expected_.end())
                why = "no committed digest";
            else if (it->second != rec.digest)
                why = "digest " + rec.digest + " != expected " + it->second;
        }
        if (why.empty())
            return true;
        fail(rec.key + ": " + why);
        return false;
    }

    void
    fail(const std::string &what)
    {
        if (failed_ < 10)
            std::cerr << "perfbench: FAILED " << what << "\n";
        ++failed_;
    }

    /** A failure that is not one session (e.g. traced counts differ). */
    void
    failCheck(const std::string &what)
    {
        std::cerr << "perfbench: CHECK FAILED " << what << "\n";
        check_failed_ = true;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0 && !check_failed_; }

  private:
    const Expected &expected_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool check_failed_ = false;
};

// ---------------------------------------------------------------- modes

int
writeExpected(const Workload &w, const std::string &path)
{
    Plan all;
    for (std::size_t c = 0; c < w.cells; ++c)
        for (std::size_t v = 0; v < w.variants; ++v)
            all.emplace_back(c, v);
    const unsigned threads =
        std::max(1u, std::thread::hardware_concurrency());
    const auto plain = runBatch(w, all, 0, all.size(), threads, false);
    const auto traced = runBatch(w, all, 0, all.size(), threads, true);
    std::ofstream out(path);
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (!plain[i].error.empty() || !traced[i].error.empty() ||
            plain[i].digest != traced[i].digest) {
            std::cerr << "perfbench: " << plain[i].key
                      << ": untraced and traced runs disagree "
                      << plain[i].error << traced[i].error << "\n";
            return 1;
        }
        out << plain[i].key << " " << plain[i].digest << "\n";
    }
    out.close();
    if (!out) {
        std::cerr << "perfbench: cannot write " << path << "\n";
        return 1;
    }
    std::cerr << "perfbench: wrote " << all.size() << " digests to "
              << path << "\n";
    return 0;
}

/** --trace 0: the end-to-end closed loop. */
int
runTimed(const Options &o, const Workload &w, Checker &checker,
         double setup_s)
{
    Plan plan;
    // Each (cell, variant) runs once per block: its host times, and its
    // simulated counts, which are the same every time.
    struct Repeats
    {
        std::vector<double> ms;
        SimCounts counts;
    };
    std::map<std::string, Repeats> sessions;
    CpuRotation rotation;
    const std::size_t limit = o.max_sessions;
    const auto start = Clock::now();
    std::size_t done = 0;
    for (;;) {
        // Run at least one whole block, so every (cell, variant) is
        // timed whatever the seed (see sessionPlan).  The metrics weigh
        // each (cell, variant) once, by its median time, so the batches
        // run beyond that add repeats but do not change the mix.
        const std::size_t into_cycle = done % w.cells;
        const double elapsed = secondsSince(start);
        if (limit ? done >= limit
                  : (done >= w.cells * w.variants && done >= kMinSessions &&
                     elapsed >= o.seconds) ||
                        elapsed >= kMaxLoopSeconds)
            break;
        std::size_t n = std::min(w.batch, w.cells - into_cycle);
        if (limit)
            n = std::min(n, limit - done);
        if (plan.size() < done + n)
            plan = sessionPlan(w, o.seed, 2 * (done + n));
        rotation.advance();
        for (const SessionRecord &rec :
             runBatch(w, plan, done, n, kThreads, false)) {
            if (checker.check(rec)) {
                Repeats &r = sessions[rec.key];
                r.ms.push_back(1e3 * rec.host_s);
                r.counts = rec.counts;
            }
        }
        done += n;
    }
    const double wall = secondsSince(start);
    const double rss = peakRssMb();

    const auto probe = paperProbe();
    double gap = 0.0;
    for (const PaperPoint &p : probe) {
        Report::info("paper." + p.what, p.simulated, p.unit,
                     "reference " + fmtNumber(p.reference));
        gap += std::fabs(p.simulated - p.reference) / p.reference;
    }
    gap = 100.0 * gap / static_cast<double>(probe.size());

    // Every metric is over each (cell, variant)'s median host time, so
    // a session the host slowed counts only against its own repeats.
    // The rates are one pass over the universe at those medians.
    std::vector<double> key_ms;
    SimCounts total;
    double total_s = 0.0;
    std::size_t timed = 0;
    for (const auto &[key, r] : sessions) {
        key_ms.push_back(median(r.ms));
        total += r.counts;
        total_s += key_ms.back() / 1e3;
        timed += r.ms.size();
    }
    const std::string n_note = "medians of " +
        std::to_string(key_ms.size()) + " sessions over " +
        std::to_string(timed);
    const auto per_s = [&](std::uint64_t n) {
        return total_s > 0.0 ? double(n) / total_s : 0.0;
    };
    Report report;
    report.add("sim_cycles_per_s", per_s(total.sim_cycles), "cycles/s",
               "simulated cycles per host second");
    report.add("sim_ops_per_s", per_s(total.ops), "ops/s",
               "party-thread engine ops per host second");
    report.add("bits_per_s", per_s(total.bits), "bits/s",
               "symbols sent, decoded and scored per host second");
    report.add("session_ms_p50", quantile(key_ms, 0.5), "ms", n_note);
    report.add("session_ms_p90", quantile(key_ms, 0.9), "ms", n_note);
    std::vector<double> setups = o.setup_samples;
    setups.push_back(setup_s);
    report.add("setup_s", median(setups), "s",
               "median of " + std::to_string(setups.size()) +
                   " cold processes");
    report.add("peak_rss_mb", rss, "MB");
    report.add("paper_gap_pct", gap, "%",
               "mean relative gap over the reference probe");
    Report::info("failed_frac",
                 ratio(checker.failed(), checker.attempted()), "ratio",
                 std::to_string(checker.failed()) + " of " +
                     std::to_string(checker.attempted()) + " sessions");
    Report::info("loop_s", wall, "s",
                 std::to_string(timed) + " sessions");
    report.finish(checker.correct(), checker.attempted(), checker.failed());
    return 0;
}

/**
 * Counts taken from the first traced pass's outcomes once the timed
 * passes are over, so that the pass wall times hold only the decorated
 * sessions.  Deterministic for a seed.
 */
struct DeferredCounts
{
    std::uint64_t ba_iterations = 0; //!< over the DecodeLeakage sessions
    /** Mean over sessions with noise cores of the distinct lines they
     *  touched, in units of the modeled LLC's capacity. */
    double noise_footprint_llc = 0.0;
};

DeferredCounts
deferredCounts(const Workload &w, const Plan &plan,
               const std::vector<Outcome> &outcomes)
{
    DeferredCounts d;
    const leakage::Estimator estimator;
    const sim::CacheConfig llc = sim::CacheConfig::intelLlc();
    const double llc_lines = double(llc.size_bytes / llc.line_size);
    double footprint = 0.0;
    std::size_t noisy = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const SessionSpec spec = w.spec(plan[i].first, plan[i].second);
        const Outcome &out = outcomes[i];
        if (spec.scoring == Scoring::DecodeLeakage) {
            // The estimator does not expose its iteration count.
            d.ba_iterations +=
                leakage::blahutArimoto(
                    estimator.matrixFor(out.result.sent,
                                        out.result.decoded_symbols))
                    .iterations;
        }
        const std::size_t cores = out.noise_replayed.size();
        if (cores == 0)
            continue;
        // Replay each noise core's records from its staggered start, as
        // the session's TracePrograms did.
        const auto &records = spec.config.noise_trace->records;
        std::unordered_set<sim::Addr> lines;
        for (std::size_t core = 0; core < cores; ++core) {
            std::size_t at = core * (records.size() / cores);
            for (std::uint64_t k = 0; k < out.noise_replayed[core]; ++k)
                lines.insert(records[at++ % records.size()].addr /
                             llc.line_size);
        }
        footprint += double(lines.size()) / llc_lines;
        ++noisy;
    }
    d.noise_footprint_llc = noisy ? footprint / double(noisy) : 0.0;
    return d;
}

/** --trace 1: untraced/traced pass pairs over the same sessions. */
int
runTracedMode(const Options &o, const Workload &w, Checker &checker)
{
    const std::size_t m = o.max_sessions
        ? std::min(o.max_sessions, w.traced_sessions)
        : w.traced_sessions;
    const Plan plan = sessionPlan(w, o.seed, m);

    struct Pass
    {
        double wall = 0.0;
        double busy = 0.0;
        SimCounts counts;
        LayerTimes layers;
        std::vector<std::string> digests;
        std::vector<Outcome> outcomes; //!< first traced pass only
    };
    // Both passes of pair i run their batches on the same CPUs, starting
    // at the i-th of the rotation.
    CpuRotation rotation;
    const auto pass = [&](bool traced, std::size_t pair) {
        Pass p;
        rotation.restart(pair);
        const auto start = Clock::now();
        std::vector<SessionRecord> recs;
        for (std::size_t done = 0; done < m; done += w.batch) {
            rotation.advance();
            auto batch = runBatch(w, plan, done,
                                  std::min(w.batch, m - done), kThreads,
                                  traced);
            std::move(batch.begin(), batch.end(), std::back_inserter(recs));
        }
        p.wall = secondsSince(start);
        for (SessionRecord &rec : recs) {
            checker.check(rec);
            p.busy += rec.host_s;
            p.counts += rec.counts;
            p.layers += rec.layers;
            p.digests.push_back(rec.digest);
            if (traced && pair == 0 && rec.outcome)
                p.outcomes.push_back(std::move(*rec.outcome));
        }
        return p;
    };

    std::vector<Pass> plain, traced;
    const auto start = Clock::now();
    do {
        plain.push_back(pass(false, plain.size()));
        traced.push_back(pass(true, traced.size()));
        const Pass &a = plain.back();
        const Pass &b = traced.back();
        if (b.digests != a.digests || !(b.counts == a.counts))
            checker.failCheck("traced pass differs from the untraced pass");
        if (!(a.counts == plain.front().counts) ||
            b.layers.accesses != traced.front().layers.accesses ||
            b.layers.party_steps != traced.front().layers.party_steps ||
            b.layers.events != traced.front().layers.events ||
            !(b.layers.hierarchy == traced.front().layers.hierarchy))
            checker.failCheck("simulated counts differ between passes");
    } while (secondsSince(start) < o.seconds &&
             secondsSince(start) < kMaxLoopSeconds);

    const auto med = [&](auto field) {
        std::vector<double> v;
        for (const Pass &p : traced)
            v.push_back(field(p));
        return median(v);
    };
    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced.size(); ++i)
        overhead.push_back(traced[i].wall / plain[i].wall - 1.0);

    const SimCounts &c = traced.front().counts;
    const LayerTimes &l = traced.front().layers;
    const HierarchyCounts &h = l.hierarchy;
    const double sim_s = med([](const Pass &p) { return p.layers.sim_s; });
    const double program_s =
        med([](const Pass &p) { return p.layers.program_s; });
    const double exec_self = med([](const Pass &p) {
        return p.layers.exec_run_s - p.layers.sim_s - p.layers.program_s;
    });
    const DeferredCounts deferred =
        deferredCounts(w, plan, traced.front().outcomes);
    std::uint64_t trace_records = 0;
    for (const auto &t : w.traces)
        trace_records += t->size();

    Report report;
    report.add("sim.accesses", double(l.accesses), "count",
               "all cores, through the AccessPort");
    report.add("sim.self_s", sim_s, "s");
    report.add("sim.ns_per_access",
               l.accesses ? 1e9 * sim_s / double(l.accesses) : 0.0,
               "ns");
    report.add("sim.l1_miss_ratio", ratio(c.l1_misses, c.l1_accesses),
               "ratio", "party threads");
    report.add("sim.llc_miss_ratio", ratio(c.llc_misses, c.llc_accesses),
               "ratio", "party threads");
    report.add("sim.writebacks", double(h.writebacks), "count",
               "all cores and threads, all levels");
    report.add("sim.noise_writebacks", double(h.noise_writebacks), "count",
               "share of sim.writebacks caused by noise cores");
    report.add("sim.memory_writebacks", double(h.memory_writebacks),
               "count", "dirty lines written back to memory");
    report.add("sim.llc_evictions", double(h.llc_evictions), "count",
               "all cores and threads");
    report.add("sim.back_invalidations", double(c.back_invalidations),
               "count", "all cores");
    report.add("sim.noise_accesses", double(h.noise_accesses), "count",
               "trace records the noise cores replayed");
    report.add("sim.noise_footprint_llc", deferred.noise_footprint_llc,
               "ratio",
               "distinct lines the noise cores touch per session / LLC "
               "lines");
    report.add("exec.ops", double(c.ops), "count", "party threads");
    report.add("exec.sim_cycles", double(c.sim_cycles), "cycles");
    report.add("exec.steps", double(l.party_steps), "count",
               "party ThreadProgram::next calls");
    report.add("exec.events", double(l.events), "count",
               "root ArbitrationPolicy::step calls");
    report.add("exec.ops_per_step", ratio(c.ops, l.party_steps), "ratio");
    report.add("exec.spin_frac", ratio(c.spins, c.ops), "ratio");
    report.add("exec.self_s", exec_self, "s");
    report.add("channel.sessions", double(c.sessions), "count");
    report.add("channel.bits", double(c.bits), "count",
               "symbols decoded and scored");
    report.add("channel.samples", double(c.samples), "count");
    report.add("channel.bit_error_rate", ratio(c.errors, c.bits), "ratio");
    report.add("channel.program_s", program_s, "s");
    report.add("channel.setup_s",
               med([](const Pass &p) { return p.layers.setup_s; }), "s");
    report.add("channel.decode_s",
               med([](const Pass &p) { return p.layers.decode_s; }), "s");
    report.add("leakage.calls", double(l.leakage_calls), "count");
    report.add("leakage.self_s",
               med([](const Pass &p) { return p.layers.leakage_s; }), "s");
    report.add("leakage.ba_iterations", double(deferred.ba_iterations),
               "count");
    report.add("workload.trace_records", double(trace_records), "count");
    report.add("workload.gen_s", w.trace_gen_s, "s");
    report.add("core.trials", double(m), "count", "per traced pass");
    report.add("core.runner_s", med([](const Pass &p) { return p.wall; }),
               "s");
    report.add("core.worker_util", med([&](const Pass &p) {
                   return p.busy / (double(kThreads) * p.wall);
               }),
               "ratio", std::to_string(kThreads) + " thread(s)");
    report.add("trace.overhead_frac", median(overhead), "ratio",
               std::to_string(traced.size()) + " pass pairs");
    report.finish(checker.correct(), checker.attempted(), checker.failed());
    return 0;
}

int
run(int argc, char **argv)
{
    const auto process_start = Clock::now();
    const Options o = parseOptions(argc, argv);
    if (!kNdebug) {
        std::cerr << "perfbench: this build lacks NDEBUG (audit_every = "
                  << exec::kDefaultAuditEvery
                  << "), so timings would include inclusion audits; "
                     "build Release\n";
        return 3;
    }
    const Workload w = makeWorkload(o.workload);
    if (!o.write_expected.empty())
        return writeExpected(w, o.write_expected);

    const Expected expected = loadExpected(o.expected);
    Checker checker(expected);

    // Warm-up: one fixed session, seed-independent, checked like every
    // timed session.  It fills the main thread's calibration memo and
    // topology pool (see kThreads).
    const Plan warm{{0, 0}};
    for (const SessionRecord &rec : runBatch(w, warm, 0, 1, 1, false))
        checker.check(rec);
    const double setup_s = secondsSince(process_start);
    if (o.setup_only) {
        std::cout << "{\"setup_s\": " << fmtNumber(setup_s) << "}"
                  << std::endl;
        return 0;
    }

    printHost(o);
    return o.trace ? runTracedMode(o, w, checker)
                   : runTimed(o, w, checker, setup_s);
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
