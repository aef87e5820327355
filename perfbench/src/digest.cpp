/**
 * @file
 * Scoring and the digest of a session's simulated output.
 */

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "bench.hpp"
#include "channel/decoder.hpp"
#include "channel/edit_distance.hpp"
#include "util/hash.hpp"

namespace perfbench {

using namespace lruleak;

Outcome
scoreDecode(const SessionSpec &spec, channel::SessionResult result)
{
    Outcome out;
    out.result = std::move(result);
    const channel::SessionResult &r = out.result;
    if (spec.scoring == Scoring::PercentOnes) {
        // sessionPercentOnes' readout: threshold every sample and skip
        // the first few warm-up observations.
        const channel::Bits bits =
            channel::thresholdSamples(r.samples, r.threshold, r.invert);
        const std::size_t skip = std::min<std::size_t>(bits.size(), 4);
        std::uint64_t ones = 0;
        for (std::size_t i = skip; i < bits.size(); ++i)
            ones += bits[i];
        out.scored = bits.size() - skip;
        out.errors = spec.constant_bit ? out.scored - ones : ones;
        out.percent_ones = out.scored ? static_cast<double>(ones) /
                                            static_cast<double>(out.scored)
                                      : 0.0;
        return out;
    }
    out.scored = r.sent.size();
    out.errors = channel::editDistance(r.sent, r.received);
    return out;
}

void
scoreLeakage(Outcome &out)
{
    const leakage::Estimator estimator;
    out.leak = estimator.estimate(out.result.sent,
                                  out.result.decoded_symbols,
                                  out.result.kbps * 1000.0);
}

namespace {

class Digest
{
  public:
    template <typename T>
    void
    add(const T &value)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        sha_.update(bytes, sizeof(T));
    }

    void
    add(const channel::Bits &bits)
    {
        add(static_cast<std::uint64_t>(bits.size()));
        sha_.update(bits.data(), bits.size());
    }

    void
    add(const sim::LevelStats &s)
    {
        add(s.accesses);
        add(s.hits);
        add(s.misses);
        add(s.writebacks);
    }

    void
    add(const exec::ThreadStats &s)
    {
        add(s.accesses);
        add(s.measures);
        add(s.flushes);
        add(s.spins);
        add(s.busy_cycles);
    }

    std::string hex() { return sha_.hex().substr(0, 16); }

  private:
    util::Sha256 sha_;
};

} // namespace

std::string
digestOf(const Outcome &out)
{
    const channel::SessionResult &r = out.result;
    Digest d;
    d.add(static_cast<std::uint64_t>(r.samples.size()));
    for (const channel::Sample &s : r.samples) {
        d.add(s.tsc);
        d.add(s.latency);
        d.add(s.level);
    }
    d.add(r.sent);
    d.add(r.received);
    d.add(r.decoded_symbols);
    d.add(r.error_rate);
    d.add(r.kbps);
    d.add(r.elapsed_cycles);
    d.add(r.threshold);
    d.add(r.invert);
    d.add(r.sender_start);
    d.add(r.back_invalidations);
    d.add(r.cores);
    d.add(r.sender_l1);
    d.add(r.sender_l2);
    d.add(r.sender_llc);
    d.add(r.receiver_l1);
    d.add(r.receiver_llc);
    d.add(r.sender_stats);
    d.add(r.receiver_stats);
    d.add(out.scored);
    d.add(out.errors);
    d.add(out.percent_ones);
    d.add(out.leak.pairs);
    d.add(out.leak.plugin_bits_per_use);
    d.add(out.leak.corrected_bits_per_use);
    d.add(out.leak.capacity_bits_per_use);
    d.add(out.leak.bits_per_second);
    return d.hex();
}

} // namespace perfbench
