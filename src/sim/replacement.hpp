/**
 * @file
 * Legacy virtual replacement-policy interface (DEPRECATED for hot paths).
 *
 * The simulator's hot path now runs on the value-semantic `ReplState`
 * core (sim/repl_state.hpp): POD state machines stored inline per set,
 * dispatched non-virtually.  This header keeps the original
 * heap-allocated virtual hierarchy for three jobs:
 *
 *  1. **Reference implementations.**  The six concrete classes keep the
 *     seed's independent vector-based implementations, so the
 *     randomized equivalence tests (tests/test_repl_state.cpp) prove
 *     ReplState bit-for-bit against genuinely separate code — not
 *     against itself.  `ReplacementPolicy::state()` snapshots a policy
 *     into the equivalent ReplState so those tests can also continue
 *     both sides in lockstep from a mid-trace state.
 *  2. **White-box tests.**  The per-policy accessors (TrueLru::age,
 *     TreePlru::nodeBit, BitPlru::mruBit, Srrip::rrpv) remain available
 *     to the hand-computed transition tests.
 *  3. **The `lruleak bench` legacy lane**, which measures the seed's
 *     virtual-dispatch code shape against the value core.
 *
 * Only src/core/bench.cpp and the tests include this header; library
 * code uses `ReplState` (or a `CacheSet`, which owns one).
 *
 * The victim query contract (fixed from the seed, which claimed
 * "does not modify state" while RandomRepl advanced its RNG and Srrip
 * aged its RRPVs):
 *
 *   victim() const  - pure preview; never modifies state.
 *   selectVictim()  - commits the choice on the miss path; MAY mutate.
 *                     RandomRepl advances its stream and Srrip ages all
 *                     RRPVs here; every other policy is pure.
 */

#ifndef LRULEAK_SIM_REPLACEMENT_HPP
#define LRULEAK_SIM_REPLACEMENT_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/random.hpp"
#include "sim/repl_state.hpp"

namespace lruleak::sim {

/**
 * Per-set replacement state machine behind a virtual interface.
 *
 * One instance exists per cache set.  The cache calls @c touch on every
 * hit, @c onFill when a line is installed, and @c selectVictim when it
 * needs a way to evict.  @c stateBits exposes the raw state so unit
 * tests can check exact transitions against hand-computed vectors and
 * so experiments can dump the state.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Record an access (hit) to @p way. */
    virtual void touch(std::uint32_t way) = 0;

    /** Record that a new line was installed into @p way. */
    virtual void onFill(std::uint32_t way) { touch(way); }

    /**
     * Pure preview of the way that would be evicted.  Never modifies
     * state: RandomRepl peeks a copy of its stream, Srrip simulates the
     * aging.
     */
    virtual std::uint32_t victim() const = 0;

    /**
     * Choose the way to evict, committing any side effects (RandomRepl
     * advances its RNG stream; Srrip ages every RRPV).  The default
     * forwards to victim() for the policies whose choice is pure.
     */
    virtual std::uint32_t selectVictim() { return victim(); }

    /** Reset to the power-on state. */
    virtual void reset() = 0;

    /** Raw state bits, policy-defined encoding (for tests/dumps). */
    virtual std::vector<std::uint8_t> stateBits() const = 0;

    virtual ReplPolicyKind kind() const = 0;
    virtual std::unique_ptr<ReplacementPolicy> clone() const = 0;

    /**
     * Snapshot this policy's current state as the equivalent
     * value-semantic ReplState (the equivalence tests continue both
     * in lockstep from the snapshot).
     */
    virtual ReplState state() const = 0;

    std::string_view name() const { return replPolicyName(kind()); }
    std::uint32_t numWays() const { return ways_; }

    /**
     * Choose a victim, skipping locked ways (committing side effects
     * like selectVictim).  Falls back to a linear scan of the policy's
     * preference order; returns @c kNoVictim when every way is locked.
     */
    std::uint32_t victimUnlocked(const std::vector<bool> &locked);

    /** Sentinel returned when no evictable way exists. */
    static constexpr std::uint32_t kNoVictim = kNoWay;

  protected:
    explicit ReplacementPolicy(std::uint32_t ways) : ways_(ways) {}

    std::uint32_t ways_;
};

/** Factory. @p rng seeds the Random policy's private stream. */
std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(ReplPolicyKind kind, std::uint32_t ways,
                      std::uint64_t seed = 0);

/**
 * Exact LRU: maintains the full recency order of all ways.
 * Victim = least recently used way.
 */
class TrueLru : public ReplacementPolicy
{
  public:
    explicit TrueLru(std::uint32_t ways);

    void touch(std::uint32_t way) override;
    std::uint32_t victim() const override;
    void reset() override;
    std::vector<std::uint8_t> stateBits() const override;
    ReplPolicyKind kind() const override { return ReplPolicyKind::TrueLru; }
    std::unique_ptr<ReplacementPolicy> clone() const override;
    ReplState state() const override;

    /** Age of a way: 0 = MRU, ways-1 = LRU (exposed for tests). */
    std::uint32_t age(std::uint32_t way) const;

  private:
    /** order_[0] is MRU, order_.back() is LRU. */
    std::vector<std::uint32_t> order_;
};

/**
 * Tree-PLRU: a binary tree of N-1 direction bits per set.
 *
 * Node layout is the classic implicit heap: node i has children 2i+1 and
 * 2i+2; the leaves correspond to the ways in order.  A node bit of 0 means
 * "the victim is in the LEFT subtree" (left is older); 1 means the victim
 * is in the right subtree.  On an access, every node on the root-to-leaf
 * path is pointed AWAY from the accessed way.
 */
class TreePlru : public ReplacementPolicy
{
  public:
    /** @p ways must be a power of two >= 2. */
    explicit TreePlru(std::uint32_t ways);

    void touch(std::uint32_t way) override;
    std::uint32_t victim() const override;
    void reset() override;
    std::vector<std::uint8_t> stateBits() const override;
    ReplPolicyKind kind() const override { return ReplPolicyKind::TreePlru; }
    std::unique_ptr<ReplacementPolicy> clone() const override;
    ReplState state() const override;

    /** Direct node access for white-box tests. */
    bool nodeBit(std::uint32_t node) const { return bits_[node]; }
    void setNodeBit(std::uint32_t node, bool v) { bits_[node] = v; }

  private:
    std::uint32_t levels_;       //!< log2(ways)
    std::vector<bool> bits_;     //!< ways-1 tree bits
};

/**
 * Bit-PLRU (a.k.a. MRU replacement): one MRU bit per way.
 *
 * On an access *hit*, the way's bit is set; if that saturates all bits,
 * every bit is cleared and then the accessed way's bit is set again.  The
 * victim is the lowest-indexed way whose MRU bit is clear.  Fills do NOT
 * set the MRU bit (the behaviour the paper's Table I numbers imply: with
 * Sequence 1 the just-filled way keeps being the victim, so line 0 is
 * evicted 100% of the time once the loop reaches steady state).
 */
class BitPlru : public ReplacementPolicy
{
  public:
    explicit BitPlru(std::uint32_t ways);

    void touch(std::uint32_t way) override;
    void onFill(std::uint32_t way) override;
    std::uint32_t victim() const override;
    void reset() override;
    std::vector<std::uint8_t> stateBits() const override;
    ReplPolicyKind kind() const override { return ReplPolicyKind::BitPlru; }
    std::unique_ptr<ReplacementPolicy> clone() const override;
    ReplState state() const override;

    bool mruBit(std::uint32_t way) const { return mru_[way]; }

  private:
    std::vector<bool> mru_;
};

/**
 * FIFO (round-robin): state advances only on fills.  Cache hits do not
 * change the state, which is exactly why the paper proposes it as an
 * LRU-channel defense: a hitting sender becomes invisible.
 */
class Fifo : public ReplacementPolicy
{
  public:
    explicit Fifo(std::uint32_t ways);

    void touch(std::uint32_t way) override;
    void onFill(std::uint32_t way) override;
    std::uint32_t victim() const override;
    void reset() override;
    std::vector<std::uint8_t> stateBits() const override;
    ReplPolicyKind kind() const override { return ReplPolicyKind::Fifo; }
    std::unique_ptr<ReplacementPolicy> clone() const override;
    ReplState state() const override;

  private:
    /** fifo_[0] is the oldest fill (next victim). */
    std::vector<std::uint32_t> fifo_;
};

/**
 * Random replacement: no state beyond a private deterministic stream so
 * experiments reproduce.  victim() peeks the stream; selectVictim()
 * advances it (this policy's documented mutation).
 */
class RandomRepl : public ReplacementPolicy
{
  public:
    RandomRepl(std::uint32_t ways, std::uint64_t seed);

    void touch(std::uint32_t way) override;
    std::uint32_t victim() const override;
    std::uint32_t selectVictim() override;
    void reset() override;
    std::vector<std::uint8_t> stateBits() const override;
    ReplPolicyKind kind() const override { return ReplPolicyKind::Random; }
    std::unique_ptr<ReplacementPolicy> clone() const override;
    ReplState state() const override;

  private:
    std::uint64_t seed_;
    Xoshiro256 rng_;
};

/**
 * SRRIP-HP (static re-reference interval prediction, hit priority) with
 * 2-bit RRPVs.  Insert at RRPV=2 ("long"), promote to 0 on hit; victim
 * is the first way at RRPV=3.  selectVictim() performs the aging (all
 * RRPVs rise until one saturates — this policy's documented mutation);
 * victim() only previews the outcome.
 */
class Srrip : public ReplacementPolicy
{
  public:
    explicit Srrip(std::uint32_t ways);

    void touch(std::uint32_t way) override;
    void onFill(std::uint32_t way) override;
    std::uint32_t victim() const override;
    std::uint32_t selectVictim() override;
    void reset() override;
    std::vector<std::uint8_t> stateBits() const override;
    ReplPolicyKind kind() const override { return ReplPolicyKind::Srrip; }
    std::unique_ptr<ReplacementPolicy> clone() const override;
    ReplState state() const override;

    std::uint8_t rrpv(std::uint32_t way) const { return rrpv_[way]; }

    static constexpr std::uint8_t kMaxRrpv = SrripState::kMaxRrpv;
    static constexpr std::uint8_t kInsertRrpv = SrripState::kInsertRrpv;

  private:
    std::vector<std::uint8_t> rrpv_;
};

} // namespace lruleak::sim

#endif // LRULEAK_SIM_REPLACEMENT_HPP
