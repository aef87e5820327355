/**
 * @file
 * One set of a set-associative cache: tags, valid/lock bits, utags, and
 * the per-set replacement state machine.
 *
 * Value-semantic redesign: the replacement state is a `ReplState` stored
 * inline (no heap policy object) and the per-way metadata is kept as
 * structure-of-arrays — the tag array is contiguous (one cache line for
 * an 8-way set) and the valid/lock bits are bitmasks, so the probe loop
 * in the hot path touches a fraction of the memory the old
 * array-of-LineState layout did.  CacheSet is cheaply copyable and
 * copy-assignable.
 *
 * Besides the per-access entry point, `accessBatch` replays a whole tag
 * sequence with the policy dispatch hoisted out of the loop — the hot
 * path Monte-Carlo experiments and `lruleak bench` replay sequences
 * through.
 */

#ifndef LRULEAK_SIM_CACHE_SET_HPP
#define LRULEAK_SIM_CACHE_SET_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/address.hpp"
#include "sim/repl_state.hpp"
#include "sim/write_policy.hpp"

namespace lruleak::sim {

/** Lock request carried by an access (PL cache, Section IX-B). */
enum class LockReq
{
    None,   //!< plain load/store
    Lock,   //!< set the lock bit of the accessed line
    Unlock, //!< clear the lock bit of the accessed line
};

/** How lock bits interact with the replacement state. */
enum class PlMode
{
    Disabled,     //!< lock bits ignored entirely (plain cache)
    Original,     //!< paper Fig. 10 white boxes: locked lines are never
                  //!< evicted but still update the LRU state on access
    FixedLruLock, //!< + blue boxes: locked lines neither update the LRU
                  //!< state nor participate in victim selection
};

/** Per-way metadata view (assembled from the SoA storage on demand). */
struct LineState
{
    Addr tag = 0;               //!< physical tag
    bool valid = false;
    bool locked = false;        //!< PL-cache lock bit
    std::uint16_t utag = 0;     //!< AMD linear-address micro-tag
    ThreadId filled_by = 0;     //!< thread that installed the line
    bool dirty = false;         //!< modified since fill (write-back)
};

/**
 * Outcome of a set access.  A compact 16-byte POD: the flags share one
 * byte and the displaced tag is a plain field guarded by @c evicted —
 * batch loops write one of these per access, so the layout is part of
 * the hot path.
 */
struct SetAccessResult
{
    std::uint32_t way = kNoWay;
    bool hit : 1 = false;
    bool filled : 1 = false;      //!< a new line was installed
    bool bypassed : 1 = false;    //!< miss on a fully/victim-locked set,
                                  //!< handled uncached (PL cache)
    bool utag_mismatch : 1 = false; //!< hit whose utag did not match (AMD)
    bool evicted : 1 = false;     //!< @c evicted_tag holds a displaced tag
    bool dirty_writeback : 1 = false; //!< the displaced line was dirty:
                                  //!< its data must be written back
    bool write_no_alloc : 1 = false; //!< store miss under
                                  //!< no-write-allocate: nothing installed
    Addr evicted_tag = 0;         //!< tag displaced by the fill (iff
                                  //!< @c evicted)

    /** Convenience view of the displaced tag. */
    std::optional<Addr>
    evictedTag() const
    {
        return evicted ? std::optional<Addr>(evicted_tag) : std::nullopt;
    }
};

/** Aggregate outcome of a stats-only batch replay. */
struct SetBatchStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t fills = 0;     //!< misses that installed a line
    std::uint64_t evictions = 0; //!< fills that displaced a valid line
    std::uint64_t dirty_writebacks = 0; //!< evictions of a dirty line
};

/** Outcome of removing a line (clflush / back-invalidation). */
struct SetFlushResult
{
    bool present = false; //!< the line was held by this set
    bool dirty = false;   //!< ... and was dirty: a write-back is due
};

/** Owner sentinel: the line belongs to no protection domain. */
inline constexpr std::uint32_t kNoOwner = 0xffff'ffffu;

/**
 * What one SHARP access did beyond the plain access outcome.  The cache
 * folds these into its per-domain alarm/forced/denial counters.
 */
struct SharpSetEvents
{
    std::uint32_t alarms = 0; //!< refusals: the replacement-chosen victim
                              //!< was foreign-owned (includes forced)
    bool forced = false;      //!< every way foreign-owned: the proposed
                              //!< victim was evicted anyway
    bool denied = false;      //!< forced eviction refused (requester
                              //!< flagged): the fill was bypassed
};

/**
 * A single cache set.  The cache decomposes addresses; the set works in
 * tag space only.  Value type: copy, assign and move freely.
 */
class CacheSet
{
  public:
    CacheSet(std::uint32_t ways, ReplState state,
             PlMode pl_mode = PlMode::Disabled,
             WriteHitPolicy write_hit = WriteHitPolicy::WriteBack,
             WriteMissPolicy write_miss = WriteMissPolicy::WriteAllocate);

    CacheSet(const CacheSet &) = default;
    CacheSet &operator=(const CacheSet &) = default;
    CacheSet(CacheSet &&) noexcept = default;
    CacheSet &operator=(CacheSet &&) noexcept = default;

    /** Member-wise equality: same lines, bits, utags and ReplState. */
    bool operator==(const CacheSet &) const = default;

    /** Find the way holding @p tag without touching any state. */
    std::optional<std::uint32_t> probe(Addr tag) const;

    /**
     * Perform an access: hit updates replacement state (subject to the
     * PL mode); miss selects a victim, evicts it and installs @p tag.
     *
     * @param tag physical tag being accessed
     * @param utag linear-address micro-tag of the access (AMD model);
     *        pass 0 when the way predictor is disabled
     * @param check_utag when true, a tag hit whose stored utag differs
     *        from @p utag is flagged (and the stored utag is retrained)
     * @param lock_req PL-cache lock/unlock request
     * @param thread issuing thread (recorded on fills)
     * @param is_write store access: applies the set's write policies
     *        (dirty marking, no-allocate bypass)
     */
    SetAccessResult access(Addr tag, std::uint16_t utag, bool check_utag,
                           LockReq lock_req, ThreadId thread,
                           bool is_write = false);

    /**
     * SHARP-protected access (SecureMode::Sharp).  Hits behave exactly
     * like plain access() (and re-stamp the line's owner to @p domain:
     * a cross-domain hit transfers ownership to the accessor).  On a
     * miss, the replacement-chosen victim is previewed first: if it is
     * owned by another domain the eviction is refused — @p ev.alarms
     * increments and the victim is re-selected among ways that are not
     * foreign-owned.  When *every* way is foreign-owned, the original
     * victim is evicted anyway (`ev.forced`), unless @p flagged is set,
     * in which case the fill is denied outright (`ev.denied`,
     * result.bypassed) and no state changes at all.
     *
     * With a single accessing domain no way is ever foreign, so the
     * replacement-state call sequence is identical to access() — plain
     * and SHARP traces are bit-identical in that regime.
     *
     * No utag / way-predictor or PL-lock modelling on this path (the
     * cache rejects those combinations at construction).
     */
    SetAccessResult accessSharp(Addr tag, ThreadId thread, bool is_write,
                                std::uint32_t domain, bool flagged,
                                SharpSetEvents &ev);

    /** Owning domain of @p way (kNoOwner when unowned or invalid). */
    std::uint32_t owner(std::uint32_t way) const { return owners_[way]; }

    /**
     * Drop @p domain's ownership of the line holding @p tag, if it is
     * present *and* currently owned by exactly that domain (a stale
     * release after an ownership transfer is a no-op).  How the
     * hierarchy reflects "the last private copy left this core" down
     * into the shared level.  @return true iff ownership was cleared.
     */
    bool releaseOwner(Addr tag, std::uint32_t domain);

    /**
     * Replay a whole tag sequence (plain loads: no utag checking, no
     * lock requests), writing one result per tag into @p results.  The
     * policy dispatch happens once for the whole batch, so the inner
     * loop is specialised per concrete replacement state — the fast
     * path Monte-Carlo experiments replay sequences through.
     *
     * @pre results.size() >= tags.size()
     */
    void accessBatch(std::span<const Addr> tags,
                     std::span<SetAccessResult> results,
                     ThreadId thread = 0);

    /**
     * Stats-only flavour of accessBatch for callers that replay a
     * sequence purely for its state effect (Monte-Carlo warm-ups and
     * measured loops, channel init/decode walks): no per-access results
     * are materialised, only the aggregate tallies.
     */
    SetBatchStats replayBatch(std::span<const Addr> tags,
                              ThreadId thread = 0);

    /** Invalidate the line holding @p tag (clflush). @return true if hit */
    bool invalidate(Addr tag);

    /**
     * Invalidate the line holding @p tag and report whether its data
     * was dirty (the caller owes a write-back in that case).
     */
    SetFlushResult flushLine(Addr tag);

    /**
     * Mark the line holding @p tag dirty without touching the
     * replacement state — how a write-back from the level above lands
     * here.  @return true iff the line is present.
     */
    bool markDirty(Addr tag);

    /**
     * Install @p tag without it being a demand access (prefetch fill).
     * Updates the replacement state like any fill.  No-op if present.
     */
    SetAccessResult prefetchFill(Addr tag, std::uint16_t utag,
                                 ThreadId thread);

    /** Metadata of one way (assembled view). */
    LineState
    line(std::uint32_t way) const
    {
        return LineState{tags_[way],
                         ((valid_mask_ >> way) & 1u) != 0,
                         ((locked_mask_ >> way) & 1u) != 0,
                         utags_[way], filled_by_[way],
                         ((dirty_mask_ >> way) & 1u) != 0};
    }

    /** The value-semantic replacement state of this set. */
    const ReplState &repl() const { return repl_; }
    ReplState &repl() { return repl_; }

    std::uint32_t ways() const { return ways_; }

    /**
     * Valid bits as a mask (bit w = way w holds a line).  Lets audit
     * walks (the multi-core inclusion checker) skip invalid ways without
     * assembling a LineState per way.
     */
    std::uint32_t validMask() const { return valid_mask_; }

    /** Dirty bits as a mask (always a subset of validMask()). */
    std::uint32_t dirtyMask() const { return dirty_mask_; }

    PlMode plMode() const { return pl_mode_; }
    void setPlMode(PlMode mode) { pl_mode_ = mode; }

    WriteHitPolicy writeHitPolicy() const { return write_hit_; }
    WriteMissPolicy writeMissPolicy() const { return write_miss_; }

    /** Number of valid lines currently in the set. */
    std::uint32_t occupancy() const;

    /** Clear all lines and the replacement state. */
    void reset();

  private:
    /** Bitmask with one bit per way. */
    std::uint32_t
    fullMask() const
    {
        return ways_ >= 32 ? ~0u : (1u << ways_) - 1;
    }

    void fill(std::uint32_t way, Addr tag, bool lock,
              std::uint16_t utag, ThreadId thread, bool dirty);

    std::uint32_t ways_;
    PlMode pl_mode_;
    WriteHitPolicy write_hit_;
    WriteMissPolicy write_miss_;
    std::uint32_t valid_mask_ = 0;
    std::uint32_t locked_mask_ = 0;   //!< subset of valid_mask_
    std::uint32_t dirty_mask_ = 0;    //!< subset of valid_mask_
    std::vector<Addr> tags_;
    std::vector<std::uint16_t> utags_;
    std::vector<ThreadId> filled_by_;
    std::vector<std::uint32_t> owners_; //!< SHARP owner per way (kNoOwner
                                        //!< unless stamped by accessSharp)
    ReplState repl_;
};

} // namespace lruleak::sim

#endif // LRULEAK_SIM_CACHE_SET_HPP
