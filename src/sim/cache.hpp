/**
 * @file
 * A set-associative cache level built from CacheSet instances.
 */

#ifndef LRULEAK_SIM_CACHE_HPP
#define LRULEAK_SIM_CACHE_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/address.hpp"
#include "sim/cache_config.hpp"
#include "sim/cache_set.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace lruleak::sim {

/** Outcome of a cache-level access, in address space. */
struct CacheAccessResult
{
    bool hit = false;
    std::uint32_t set = 0;
    std::uint32_t way = 0;
    bool filled = false;
    bool bypassed = false;
    bool utag_mismatch = false;
    bool dirty_writeback = false;  //!< the victim line was dirty
    bool write_no_alloc = false;   //!< store miss bypassed this level
                                   //!< (no-write-allocate)
    std::optional<Addr> evicted_line; //!< line base address of the victim
};

/**
 * Outcome of removing a line from a level (clflush / back-invalidation).
 * Contextually convertible to bool ("was the line present?") so legacy
 * `if (flush(...))` call sites keep working.
 */
struct CacheFlushResult
{
    bool present = false;
    bool dirty = false; //!< the removed copy was dirty: write-back due

    explicit operator bool() const { return present; }
};

/**
 * One cache level.  VIPT: the set index comes from the virtual address,
 * the tag from the physical address.  Supports PL-cache lock bits and the
 * AMD utag way predictor, both off by default.
 *
 * Secure modes (CacheConfig::secure; see cache_config.hpp): under
 * SecureMode::Dawg every address set is split into `secure_domains`
 * partitions, each with its own ways and its own ReplState; thread t
 * lives entirely in partition t % domains, and only flush /
 * invalidateLine / markDirtyLine reach across partitions (coherence
 * must, visibility must not).  Under SecureMode::RandomFill a demand
 * miss is served uncached and a random neighbourhood line is installed
 * instead (deterministically, from a seed-derived stream); hits —
 * including their replacement-state update — behave normally.  Under
 * SecureMode::Sharp every line carries an owning protection domain and
 * evictions of foreign-owned lines are refused / re-victimized /
 * alarmed (accessFrom names the domain; plain access derives it from
 * ref.thread % secure_domains).
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config,
                   PlMode pl_mode = PlMode::Disabled,
                   bool way_predictor = false);

    /** Demand access (load/store), with optional PL lock request. */
    CacheAccessResult access(const MemRef &ref,
                             LockReq lock_req = LockReq::None);

    /**
     * Demand access on behalf of protection domain @p domain (the
     * issuing core, for a SHARP-protected shared LLC — ref.thread is a
     * software thread id and does *not* name the core).  Identical to
     * access() unless this level runs SecureMode::Sharp.
     */
    CacheAccessResult accessFrom(std::uint32_t domain, const MemRef &ref,
                                 LockReq lock_req = LockReq::None);

    /**
     * SHARP: drop @p domain's ownership of @p line_base (the domain's
     * last private copy above this level went away).  Stale calls — the
     * line is absent or owned by someone else by now — are no-ops.
     */
    void releaseOwner(std::uint32_t domain, Addr line_base);

    /** SHARP per-domain refusal alarms (0 when not Sharp). */
    std::uint64_t
    sharpAlarms(std::uint32_t domain) const
    {
        return domain < sharp_alarms_.size() ? sharp_alarms_[domain] : 0;
    }
    /** SHARP per-domain forced evictions (all ways foreign-owned). */
    std::uint64_t
    sharpForced(std::uint32_t domain) const
    {
        return domain < sharp_forced_.size() ? sharp_forced_[domain] : 0;
    }
    /** SHARP per-domain denied fills (forced eviction refused). */
    std::uint64_t
    sharpDenied(std::uint32_t domain) const
    {
        return domain < sharp_denied_.size() ? sharp_denied_[domain] : 0;
    }
    std::uint64_t sharpAlarmsTotal() const;
    std::uint64_t sharpForcedTotal() const;
    std::uint64_t sharpDeniedTotal() const;

    /**
     * Steady-run proof: dry-run @p refs, in order, on copies of the sets
     * they touch.  When every ref hits with a matching utag and every
     * touched set is equal to its original afterwards, the refs are a
     * fixed point of this level: credit each one @p times hits and
     * return true.  Otherwise change nothing and return false; a
     * secure mode or PL lock bits always refuse.
     */
    bool creditFixedPoint(std::span<const MemRef> refs, std::uint64_t times);

    /** Prefetch fill: installs the line, updates LRU, no perf counters. */
    CacheAccessResult prefetch(const MemRef &ref);

    /** Presence check without any state change. */
    bool contains(const MemRef &ref) const;

    /**
     * clflush semantics for this level.  The result reports presence
     * and whether the dropped copy was dirty (its data must be written
     * back before the invalidation completes).
     */
    CacheFlushResult flush(const MemRef &ref);

    /**
     * Back-invalidation hook for an inclusive outer level: remove the
     * line with base address @p line_base, no counter activity.  Indexes
     * by the physical line base — exact under the identity VA==PA
     * mappings the multi-core scenarios use (and for any L1, whose set
     * bits sit inside the page offset).
     */
    CacheFlushResult
    invalidateLine(Addr line_base)
    {
        return flush(MemRef::load(line_base));
    }

    /**
     * Land a write-back from the level above: mark the line dirty
     * without touching replacement state or counters.  @return true iff
     * the line is present at this level.
     */
    bool markDirtyLine(Addr line_base);

    /** Clear all contents, replacement state and counters. */
    void reset();

    const CacheConfig &config() const { return config_; }
    const AddressLayout &layout() const { return layout_; }
    const PerfCounters &counters() const { return counters_; }
    PerfCounters &counters() { return counters_; }

    const CacheSet &cacheSet(std::uint32_t index) const
    {
        return sets_[index];
    }
    CacheSet &cacheSet(std::uint32_t index) { return sets_[index]; }

    std::uint32_t numSets() const { return layout_.numSets(); }

    /**
     * Number of CacheSet instances actually stored: numSets() for a
     * plain cache, numSets() * secure_domains under SecureMode::Dawg.
     * Audit walks iterate storage sets and map back to the address set
     * with addressSetOf().
     */
    std::uint32_t
    storageSets() const
    {
        return static_cast<std::uint32_t>(sets_.size());
    }

    /** Address set index a storage index belongs to. */
    std::uint32_t
    addressSetOf(std::uint32_t storage_index) const
    {
        return config_.secure == SecureMode::Dawg
                   ? storage_index / config_.secure_domains
                   : storage_index;
    }

    SecureMode secureMode() const { return config_.secure; }
    bool wayPredictorEnabled() const { return way_predictor_; }
    PlMode plMode() const { return pl_mode_; }

    /** Switch the PL mode for every set (used by the defense study). */
    void setPlMode(PlMode mode);

  private:
    /** Storage set for (address set, issuing thread): the thread's DAWG
     *  partition when partitioned, the plain set otherwise. */
    CacheSet &
    routeSet(std::uint32_t set, ThreadId thread)
    {
        if (config_.secure == SecureMode::Dawg)
            return sets_[static_cast<std::size_t>(set) *
                             config_.secure_domains +
                         thread % config_.secure_domains];
        return sets_[set];
    }
    const CacheSet &
    routeSet(std::uint32_t set, ThreadId thread) const
    {
        return const_cast<Cache *>(this)->routeSet(set, thread);
    }

    /** RandomFill miss handler: install a random neighbourhood line. */
    SetAccessResult randomFill(const MemRef &ref, std::uint32_t &fill_set);

    /** The SHARP access path shared by access() and accessFrom(). */
    CacheAccessResult accessSharpImpl(std::uint32_t domain,
                                      const MemRef &ref);

    CacheConfig config_;
    AddressLayout layout_;
    PlMode pl_mode_;
    bool way_predictor_;
    std::vector<CacheSet> sets_;
    PerfCounters counters_;
    Xoshiro256 fill_rng_; //!< RandomFill neighbourhood stream
    // SHARP per-domain event counters (sized secure_domains iff Sharp).
    std::vector<std::uint64_t> sharp_alarms_;
    std::vector<std::uint64_t> sharp_forced_;
    std::vector<std::uint64_t> sharp_denied_;
    // creditFixedPoint scratch: touched set indices and their copies,
    // reused so a proof allocates nothing once warm.
    std::vector<std::uint32_t> dry_index_;
    std::vector<CacheSet> dry_sets_;
};

} // namespace lruleak::sim

#endif // LRULEAK_SIM_CACHE_HPP
