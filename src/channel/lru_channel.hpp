/**
 * @file
 * The LRU-channel sender and receiver programs (paper Algorithms 1-3).
 *
 * Both parties are ThreadPrograms driven by a scheduler:
 *
 *  Receiver (Algorithms 1/2 + the sampling loop of Algorithm 3):
 *    loop {
 *      Init:    access lines 0..d-1 of the target set
 *      Sleep:   spin until Tlast + Tr
 *      Decode:  access the remaining lines (d..N for Alg 1, d..N-1 for 2)
 *      Measure: warm the 7-element chase chain, then time line 0
 *    }
 *
 *  Sender (Algorithm 3): for every message bit, for Ts cycles: if the bit
 *  is 1, keep touching its line (shared line 0 for Alg 1, own line N for
 *  Alg 2); if the bit is 0, don't touch the target set.  Either way it
 *  does its local "stack" work so miss rates are measured against a
 *  realistic access mix.
 */

#ifndef LRULEAK_CHANNEL_LRU_CHANNEL_HPP
#define LRULEAK_CHANNEL_LRU_CHANNEL_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "channel/bitstring.hpp"
#include "channel/layout.hpp"
#include "exec/op.hpp"

namespace lruleak::channel {

/** One timed observation by the receiver. */
struct Sample
{
    std::uint64_t tsc = 0;        //!< when the measurement completed
    std::uint32_t latency = 0;    //!< pointer-chase readout (cycles)
    sim::HitLevel level = sim::HitLevel::L1; //!< ground truth (sim only)
};

/** Receiver knobs. */
struct ReceiverConfig
{
    LruAlgorithm alg = LruAlgorithm::Alg1Shared;
    std::uint32_t d = 8;            //!< init-phase length (paper's d)
    std::uint64_t tr = 600;         //!< sampling period in cycles
    std::uint64_t max_samples = 1000;
    std::uint32_t chain_len = 7;    //!< chase-chain length

    /**
     * Issue each protocol walk (prewarm, init, decode, chain refetch)
     * as one OpKind::AccessRun engine event instead of one Op per line.
     * Per-access charges are identical, but a walk becomes a single
     * scheduling event, so the interleaving under SMT/time-slicing is
     * coarser — a throughput mode for the bench lanes and bulk sweeps,
     * NOT bit-exact with the per-op default.
     */
    bool batch_walks = false;
};

/**
 * The receiver program.  Collects one Sample per protocol iteration.
 */
class LruReceiver : public exec::ThreadProgram
{
  public:
    LruReceiver(const ChannelLayout &layout, ReceiverConfig config);

    exec::Op next(std::uint64_t now) override;
    void onResult(const exec::OpResult &result) override;

    const std::vector<Sample> &samples() const { return samples_; }
    const ReceiverConfig &config() const { return config_; }

  private:
    enum class Phase
    {
        Prewarm, //!< initial fetch of the chase chain
        Init,    //!< lines 0..d-1
        Sleep,   //!< spin until mark + Tr
        Decode,  //!< lines d..last
        Chain,   //!< warm the chase chain
        Measure, //!< timed access to line 0
        Finished,
    };

    /** batch_walks: the whole protocol iteration as AccessRun events. */
    exec::Op nextBatch(std::uint64_t now);

    ChannelLayout layout_;
    ReceiverConfig config_;
    std::vector<sim::MemRef> chase_;
    /** All-L1 chain expectation reused by every measure op. */
    std::vector<sim::HitLevel> chain_hint_;
    std::vector<Sample> samples_;
    /** batch_walks: precomputed init / decode walks. */
    std::vector<sim::MemRef> init_refs_;
    std::vector<sim::MemRef> decode_refs_;

    Phase phase_ = Phase::Prewarm;
    std::uint32_t index_ = 0;      //!< loop index within the phase
    std::uint64_t mark_ = 0;       //!< Tlast of Algorithm 3
    bool first_init_ = true;       //!< batch_walks: arm mark_ once
    std::uint32_t last_line_;      //!< N for Alg 1, N-1 for Alg 2
};

/** Sender knobs. */
struct SenderConfig
{
    LruAlgorithm alg = LruAlgorithm::Alg1Shared;
    Bits message;                 //!< bits to send
    std::uint32_t repeats = 1;    //!< send the message this many times
    std::uint64_t ts = 6000;      //!< per-bit period in cycles
    std::uint32_t encode_gap = 40; //!< spin between encode iterations
    bool infinite = false;        //!< loop the message forever
    bool prewarm = true;          //!< fetch the line before starting
    bool lock_line = false;       //!< PL cache: lock the line on prewarm
    std::uint32_t stack_lines = 2; //!< local accesses per iteration

    /**
     * Encode in the line's *dirty bit* instead of its presence: the
     * sender touches its line every bit, as a store when sending 1 and
     * as a load when sending 0.  The access mix (and hence the miss
     * count) is identical for both symbols — the dirty-state channels'
     * stealth argument — and the receiver reads the bit back through
     * write-back latency (dirty-evict) or flush latency (flush-dirty).
     */
    bool write_polarity = false;

    /**
     * Issue each encode iteration's access burst (encode access, kick
     * walk, stack work) as one OpKind::AccessRun engine event.  Same
     * per-access charges, coarser interleaving — the throughput twin of
     * ReceiverConfig::batch_walks; not bit-exact with the default.
     */
    bool batch_walks = false;

    /**
     * Anti-SHARP team protocol (see channel/multi_spy.hpp): after every
     * encode access the sender expels its own private copies of the
     * target line (a kick walk over lines that conflict in the private
     * L1/L2 but map to other LLC sets).  With no private copy left the
     * LLC line is *unowned* under SHARP's ownership rule, so the
     * cooperating spies may evict it through the ordinary re-victimize
     * path — the covert sender deliberately waives the protection a
     * victim would enjoy.  Off for single-receiver sessions.
     */
    bool kick_private = false;
};

/**
 * The sender program.
 */
class LruSender : public exec::ThreadProgram
{
  public:
    LruSender(const ChannelLayout &layout, SenderConfig config);

    exec::Op next(std::uint64_t now) override;
    void onResult(const exec::OpResult &result) override;

    /**
     * Idling between bit deadlines is a steady run when encode_gap >=
     * Ts: every iteration then makes the same accesses (encode access
     * if the bit asks for one, then the stack work) and spins to the
     * next bit deadline, for as long as the bit value repeats.  Not
     * declared for batch_walks or kick_private senders.
     */
    exec::SteadyRun steadyRun(std::uint64_t now) const override;
    void skipSteady(std::uint64_t now, std::uint64_t iterations) override;

    /** TSC at which bit 0 started (for decoder alignment). */
    std::uint64_t startTsc() const { return start_tsc_; }

    /** Bits actually sent (message x repeats), for error scoring. */
    Bits sentBits() const;

    /**
     * Hit levels of the encode accesses (Table V: where the sender's
     * modulating access was served — L1 for the LRU channels, L2 or
     * memory for the Flush+Reload variants).
     */
    const std::vector<sim::HitLevel> &encodeLevels() const
    {
        return encode_levels_;
    }

    const SenderConfig &config() const { return config_; }

  private:
    enum class Phase
    {
        Prewarm,
        Encode,
        Finished,
    };

    /** The bit currently being sent, or -1 past the end. */
    int currentBit(std::size_t index) const;

    /** Index and deadline of the bit that owns @p now (O(1)). */
    std::pair<std::size_t, std::uint64_t> bitAt(std::uint64_t now) const;

    /** Advance bit_index_/bit_deadline_ to the bit that owns @p now. */
    void catchUp(std::uint64_t now);

    ChannelLayout layout_;
    SenderConfig config_;
    sim::MemRef line_;
    std::vector<sim::MemRef> stack_;
    std::vector<sim::MemRef> kick_; //!< kick_private: private-copy expellers
    /** batch_walks: reusable per-iteration run buffer (encode first). */
    std::vector<sim::MemRef> iter_refs_;
    /** One steady iteration's accesses, by bit value. */
    std::vector<sim::MemRef> steady_refs_[2];
    std::uint64_t total_bits_ = 0; //!< bits to send (message x repeats)
    bool uniform_ = true;          //!< every message bit is the same

    Phase phase_ = Phase::Prewarm;
    std::uint32_t pre_step_ = 0;   //!< prewarm sub-step
    std::size_t bit_index_ = 0;
    std::uint64_t bit_deadline_ = 0;
    std::uint64_t start_tsc_ = 0;
    bool started_ = false;
    std::uint32_t sub_step_ = 0;   //!< 0 = encode access, then stack work
    bool fresh_bit_ = true;        //!< first iteration of the current bit
    bool awaiting_encode_ = false; //!< next result is an encode access
    std::vector<sim::HitLevel> encode_levels_;
};

} // namespace lruleak::channel

#endif // LRULEAK_CHANNEL_LRU_CHANNEL_HPP
