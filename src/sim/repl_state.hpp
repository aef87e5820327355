/**
 * @file
 * Value-semantic replacement-state core.
 *
 * The replacement state of a cache set is the leak surface this repo
 * exists to study: it is updated on *every* access, hit or miss, which
 * is why every experiment is a Monte-Carlo loop hammering it millions of
 * times.  The seed design put that state behind a heap-allocated
 * `ReplacementPolicy` virtual interface (one indirection + one virtual
 * dispatch per access); this header replaces it with small, trivially
 * copyable POD state machines wrapped in a `std::variant`:
 *
 *   TrueLruState   - per-way age counters (exact recency order)
 *   TreePlruState  - N-1 tree bits packed into one word
 *   BitPlruState   - N MRU bits packed into one word
 *   FifoState      - fill-order queue in a fixed array
 *   RandomState    - a private Xoshiro256 stream
 *   SrripState     - 2-bit RRPVs in a fixed array
 *
 * `ReplState` dispatches non-virtually via `std::visit`; batch code can
 * hoist the dispatch out of its loop entirely (one visit around the
 * whole loop, see CacheSet::accessBatch) so the compiler specialises the
 * hot path per concrete policy.  Everything is value-semantic: a
 * `CacheSet` holding a `ReplState` is cheaply copyable and lives in one
 * contiguous allocation.
 *
 * The victim query is split to fix the seed contract lie ("Does not
 * modify state" while Random advanced its RNG and SRRIP aged RRPVs):
 *
 *   victim() const  - pure preview of the way that WOULD be evicted;
 *                     never modifies state (Random peeks a copy of its
 *                     stream, SRRIP simulates the aging).
 *   selectVictim()  - commits the choice on the actual miss path; MAY
 *                     mutate (Random advances its stream, SRRIP ages
 *                     every RRPV).  For LRU/Tree-PLRU/Bit-PLRU/FIFO it
 *                     is identical to victim().
 *
 * The legacy virtual `sim::ReplacementPolicy` hierarchy still exists
 * (see sim/replacement.hpp) as the white-box-testable reference
 * implementation the tests and the `lruleak bench` legacy lane use; the
 * library itself runs on ReplState only.
 */

#ifndef LRULEAK_SIM_REPL_STATE_HPP
#define LRULEAK_SIM_REPL_STATE_HPP

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "sim/random.hpp"

namespace lruleak::sim {

/** Which replacement algorithm a cache uses. */
enum class ReplPolicyKind
{
    TrueLru,
    TreePlru,
    BitPlru,
    Fifo,
    Random,
    Srrip,
};

/** Human-readable policy name ("TreePLRU", "FIFO", ...). */
std::string_view replPolicyName(ReplPolicyKind kind);

/** Parse a policy name (case-insensitive); throws std::invalid_argument. */
ReplPolicyKind replPolicyFromName(std::string_view name);

/** All kinds, in declaration order (for sweeps and the bench). */
const std::vector<ReplPolicyKind> &allReplPolicyKinds();

/** Sentinel "no way" value shared by the whole sim layer. */
inline constexpr std::uint32_t kNoWay = ~0u;

/**
 * Maximum associativity the inline state machines support.  Large enough
 * for every modeled cache (L1D/L2 are 8-way, the LLC slice 16-way) with
 * headroom; the fixed bound is what keeps the states trivially copyable
 * and allocation-free.
 */
inline constexpr std::uint32_t kMaxWays = 32;

/** Throws std::invalid_argument unless 0 < ways <= kMaxWays. */
void checkWays(std::uint32_t ways);

/**
 * Exact LRU as per-way age counters: age 0 = MRU, ways-1 = LRU.
 * Equivalent to the legacy recency list but without the O(N)
 * erase/insert churn on a heap vector.
 */
struct TrueLruState
{
    explicit TrueLruState(std::uint32_t ways);

    void
    touch(std::uint32_t way)
    {
        // Branchless: every way younger than the touched one ages by
        // one — a byte-compare/add loop the compiler can vectorise.
        const std::uint8_t old_age = age[way];
        for (std::uint32_t w = 0; w < ways; ++w)
            age[w] = static_cast<std::uint8_t>(age[w] +
                                               (age[w] < old_age ? 1 : 0));
        age[way] = 0;
    }

    void onFill(std::uint32_t way) { touch(way); }

    std::uint32_t
    victim() const
    {
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (age[w] == ways - 1)
                return w;
        }
        return 0; // unreachable: ages are a permutation of 0..ways-1
    }

    std::uint32_t selectVictim() { return victim(); }
    void reset();

    /** MRU-first recency order, bit-identical to the legacy encoding. */
    std::vector<std::uint8_t> stateBits() const;

    static constexpr ReplPolicyKind kKind = ReplPolicyKind::TrueLru;

    bool operator==(const TrueLruState &) const = default;

    std::uint32_t ways;
    std::array<std::uint8_t, kMaxWays> age{};
};

namespace detail {

/** Precomputed root-to-leaf path of one way: which tree bits an access
 *  clears and which it sets ("point every node away from the way"). */
struct PlruPath
{
    std::uint64_t clear = 0; //!< all nodes on the path
    std::uint64_t set = 0;   //!< path nodes whose bit becomes 1
};

/** Max tree depth: log2(kMaxWays). */
inline constexpr std::uint32_t kMaxPlruLevels = 5;

constexpr std::array<PlruPath, kMaxWays>
makePlruPaths(std::uint32_t levels)
{
    std::array<PlruPath, kMaxWays> out{};
    const std::uint32_t ways = 1u << levels;
    for (std::uint32_t way = 0; way < ways && way < kMaxWays; ++way) {
        PlruPath p;
        std::uint32_t node = 0;
        for (std::uint32_t level = 0; level < levels; ++level) {
            const std::uint32_t go_right =
                (way >> (levels - 1 - level)) & 1u;
            p.clear |= std::uint64_t{1} << node;
            if (!go_right)
                p.set |= std::uint64_t{1} << node;
            node = 2 * node + 1 + go_right;
        }
        out[way] = p;
    }
    return out;
}

/** Path tables indexed by [levels][way]. */
inline constexpr std::array<std::array<PlruPath, kMaxWays>,
                            kMaxPlruLevels + 1>
    kPlruPaths{makePlruPaths(0), makePlruPaths(1), makePlruPaths(2),
               makePlruPaths(3), makePlruPaths(4), makePlruPaths(5)};

constexpr std::uint32_t
plruWalk(std::uint64_t bits, std::uint32_t levels)
{
    std::uint32_t node = 0;
    std::uint32_t way = 0;
    for (std::uint32_t level = 0; level < levels; ++level) {
        const std::uint32_t go_right =
            static_cast<std::uint32_t>((bits >> node) & 1u);
        way = (way << 1) | go_right;
        node = 2 * node + 1 + go_right;
    }
    return way;
}

constexpr std::array<std::uint8_t, 128>
makePlruVictims(std::uint32_t levels)
{
    std::array<std::uint8_t, 128> out{};
    for (std::uint32_t bits = 0; bits < 128; ++bits)
        out[bits] =
            static_cast<std::uint8_t>(plruWalk(bits, levels));
    return out;
}

/** Victim lookup for trees up to 8 ways (<= 7 tree bits). */
inline constexpr std::array<std::array<std::uint8_t, 128>, 4>
    kPlruVictims{makePlruVictims(0), makePlruVictims(1),
                 makePlruVictims(2), makePlruVictims(3)};

} // namespace detail

/**
 * Tree-PLRU with the N-1 node bits packed into one word.  Node layout is
 * the implicit heap of the legacy class: node i has children 2i+1/2i+2,
 * bit 0 = victim in the LEFT subtree.  Updates and (for trees up to 8
 * ways) victim selection are table lookups instead of root-to-leaf
 * walks — this is the Intel L1D policy, the hottest state machine in
 * the repo.
 */
struct TreePlruState
{
    /** @p ways must be a power of two in [2, kMaxWays]. */
    explicit TreePlruState(std::uint32_t ways);

    void
    touch(std::uint32_t way)
    {
        const detail::PlruPath &p = detail::kPlruPaths[levels][way];
        bits = (bits & ~p.clear) | p.set;
    }

    void onFill(std::uint32_t way) { touch(way); }

    std::uint32_t
    victim() const
    {
        if (levels <= 3)
            return detail::kPlruVictims[levels][bits & 0x7f];
        return detail::plruWalk(bits, levels);
    }

    std::uint32_t selectVictim() { return victim(); }
    void reset() { bits = 0; }

    bool nodeBit(std::uint32_t node) const { return (bits >> node) & 1u; }

    void
    setNodeBit(std::uint32_t node, bool v)
    {
        const std::uint64_t mask = std::uint64_t{1} << node;
        bits = v ? (bits | mask) : (bits & ~mask);
    }

    /** One byte per tree node, bit-identical to the legacy encoding. */
    std::vector<std::uint8_t> stateBits() const;

    static constexpr ReplPolicyKind kKind = ReplPolicyKind::TreePlru;

    bool operator==(const TreePlruState &) const = default;

    std::uint32_t ways;
    std::uint32_t levels;     //!< log2(ways)
    std::uint64_t bits = 0;   //!< ways-1 tree bits, node i at bit i
};

/**
 * Bit-PLRU (MRU replacement) with the per-way MRU bits packed into one
 * word.  Hits set the way's bit (clearing all others on saturation);
 * fills leave the bit clear (the Table I behaviour); the victim is the
 * lowest-indexed clear bit.
 */
struct BitPlruState
{
    explicit BitPlruState(std::uint32_t ways);

    void
    touch(std::uint32_t way)
    {
        const std::uint64_t full =
            ways >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << ways) - 1;
        mru |= std::uint64_t{1} << way;
        if (mru == full)
            mru = std::uint64_t{1} << way;
    }

    void onFill(std::uint32_t) {}

    std::uint32_t
    victim() const
    {
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (!((mru >> w) & 1u))
                return w;
        }
        return 0; // unreachable given the saturation rule
    }

    std::uint32_t selectVictim() { return victim(); }
    void reset() { mru = 0; }

    bool mruBit(std::uint32_t way) const { return (mru >> way) & 1u; }

    /** One byte per way, bit-identical to the legacy encoding. */
    std::vector<std::uint8_t> stateBits() const;

    static constexpr ReplPolicyKind kKind = ReplPolicyKind::BitPlru;

    bool operator==(const BitPlruState &) const = default;

    std::uint32_t ways;
    std::uint64_t mru = 0;
};

/**
 * FIFO (round-robin): a fill-order queue in a fixed array.  Hits are
 * invisible — the security property the paper's defense relies on.
 */
struct FifoState
{
    explicit FifoState(std::uint32_t ways);

    void touch(std::uint32_t) {}

    void
    onFill(std::uint32_t way)
    {
        // Remove `way` from the queue, re-append as newest.
        std::uint32_t pos = 0;
        while (pos < ways && order[pos] != way)
            ++pos;
        for (std::uint32_t i = pos; i + 1 < ways; ++i)
            order[i] = order[i + 1];
        order[ways - 1] = static_cast<std::uint8_t>(way);
    }

    std::uint32_t victim() const { return order[0]; }
    std::uint32_t selectVictim() { return victim(); }
    void reset();

    /** Oldest-first fill order, bit-identical to the legacy encoding. */
    std::vector<std::uint8_t> stateBits() const;

    static constexpr ReplPolicyKind kKind = ReplPolicyKind::Fifo;

    bool operator==(const FifoState &) const = default;

    std::uint32_t ways;
    std::array<std::uint8_t, kMaxWays> order{}; //!< order[0] = next victim
};

/**
 * Random replacement over a private deterministic stream.  The only
 * state is the RNG itself: victim() peeks a copy of the stream (pure),
 * selectVictim() advances it.
 */
struct RandomState
{
    RandomState(std::uint32_t ways, std::uint64_t seed)
        : ways(ways), seed(seed), rng(seed)
    {
        checkWays(ways);
    }

    void touch(std::uint32_t) {}
    void onFill(std::uint32_t) {}

    std::uint32_t
    victim() const
    {
        Xoshiro256 peek = rng;
        return static_cast<std::uint32_t>(peek.below(ways));
    }

    std::uint32_t
    selectVictim()
    {
        return static_cast<std::uint32_t>(rng.below(ways));
    }

    void reset() { rng = Xoshiro256(seed); }

    std::vector<std::uint8_t> stateBits() const { return {}; }

    static constexpr ReplPolicyKind kKind = ReplPolicyKind::Random;

    bool operator==(const RandomState &) const = default;

    std::uint32_t ways;
    std::uint64_t seed;
    Xoshiro256 rng;
};

/**
 * SRRIP-HP with 2-bit RRPVs.  victim() previews the way aging would
 * choose without applying it; selectVictim() ages every RRPV so the
 * chosen way sits at the maximum, exactly like the legacy loop.
 */
struct SrripState
{
    explicit SrripState(std::uint32_t ways);

    static constexpr std::uint8_t kMaxRrpv = 3;
    static constexpr std::uint8_t kInsertRrpv = 2;

    void touch(std::uint32_t way) { rrpv[way] = 0; }
    void onFill(std::uint32_t way) { rrpv[way] = kInsertRrpv; }

    std::uint32_t
    victim() const
    {
        // Aging raises everyone uniformly, so the first way to reach the
        // max RRPV is the first way already holding the max value.
        std::uint8_t max = 0;
        std::uint32_t first = 0;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (rrpv[w] > max) {
                max = rrpv[w];
                first = w;
            }
        }
        return first;
    }

    std::uint32_t
    selectVictim()
    {
        const std::uint32_t first = victim();
        const std::uint8_t delta =
            static_cast<std::uint8_t>(kMaxRrpv - rrpv[first]);
        if (delta != 0) {
            for (std::uint32_t w = 0; w < ways; ++w)
                rrpv[w] = static_cast<std::uint8_t>(rrpv[w] + delta);
        }
        return first;
    }

    void reset();

    /** Raw RRPVs, bit-identical to the legacy encoding. */
    std::vector<std::uint8_t> stateBits() const;

    static constexpr ReplPolicyKind kKind = ReplPolicyKind::Srrip;

    bool operator==(const SrripState &) const = default;

    std::uint32_t ways;
    std::array<std::uint8_t, kMaxWays> rrpv{};
};

/**
 * The per-set replacement state: a variant over the six POD machines
 * with non-virtual dispatch.  Copy/assign are the trivial member-wise
 * operations, which is what makes CacheSet value-semantic.
 *
 * Hot loops should prefer `visitState` (one dispatch around the whole
 * loop) over per-call `touch`/`onFill` (one dispatch per call).
 */
class ReplState
{
  public:
    using Variant = std::variant<TrueLruState, TreePlruState, BitPlruState,
                                 FifoState, RandomState, SrripState>;

    /* implicit */ ReplState(Variant state) : state_(std::move(state)) {}

    /** Factory. @p seed feeds the Random policy's private stream. */
    static ReplState make(ReplPolicyKind kind, std::uint32_t ways,
                          std::uint64_t seed = 0);

    /** Record an access (hit) to @p way. */
    void
    touch(std::uint32_t way)
    {
        std::visit([way](auto &s) { s.touch(way); }, state_);
    }

    /** Record that a new line was installed into @p way. */
    void
    onFill(std::uint32_t way)
    {
        std::visit([way](auto &s) { s.onFill(way); }, state_);
    }

    /** Pure preview of the way that would be evicted (never mutates). */
    std::uint32_t
    victim() const
    {
        return std::visit([](const auto &s) { return s.victim(); },
                          state_);
    }

    /** Commit a victim choice; may mutate (Random, SRRIP). */
    std::uint32_t
    selectVictim()
    {
        return std::visit([](auto &s) { return s.selectVictim(); },
                          state_);
    }

    /**
     * Commit a victim choice skipping locked ways (bit w of
     * @p locked_mask set = way w locked).  Falls back to a linear scan
     * when the preferred way is locked; kNoWay when all ways are locked.
     */
    std::uint32_t
    selectVictimUnlocked(std::uint32_t locked_mask)
    {
        const std::uint32_t preferred = selectVictim();
        if (!((locked_mask >> preferred) & 1u))
            return preferred;
        const std::uint32_t n = ways();
        for (std::uint32_t w = 0; w < n; ++w) {
            if (!((locked_mask >> w) & 1u))
                return w;
        }
        return kNoWay;
    }

    /** Reset to the power-on state. */
    void
    reset()
    {
        std::visit([](auto &s) { s.reset(); }, state_);
    }

    /** Raw state bits, policy-defined encoding (for tests/dumps). */
    std::vector<std::uint8_t>
    stateBits() const
    {
        return std::visit([](const auto &s) { return s.stateBits(); },
                          state_);
    }

    ReplPolicyKind
    kind() const
    {
        return std::visit([](const auto &s) { return s.kKind; }, state_);
    }

    std::string_view name() const { return replPolicyName(kind()); }

    std::uint32_t
    ways() const
    {
        return std::visit([](const auto &s) { return s.ways; }, state_);
    }

    /**
     * Dispatch ONCE and run @p f with the concrete state type — the hook
     * batch loops use to hoist dispatch out of their inner loop.
     */
    template <typename F>
    decltype(auto)
    visitState(F &&f)
    {
        return std::visit(static_cast<F &&>(f), state_);
    }

    template <typename F>
    decltype(auto)
    visitState(F &&f) const
    {
        return std::visit(static_cast<F &&>(f), state_);
    }

    /** Concrete-state access for white-box tests; nullptr on mismatch. */
    template <typename T> T *get() { return std::get_if<T>(&state_); }
    template <typename T> const T *get() const
    {
        return std::get_if<T>(&state_);
    }

    bool operator==(const ReplState &) const = default;

  private:
    Variant state_;
};

} // namespace lruleak::sim

#endif // LRULEAK_SIM_REPL_STATE_HPP
