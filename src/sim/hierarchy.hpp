/**
 * @file
 * Three-level cache hierarchy (L1D / L2 / LLC + memory).
 *
 * The channel itself only needs the L1D replacement state, but the paper's
 * Tables VI and VII report per-level miss rates and its Flush+Reload
 * baselines differ precisely in which level they evict to, so the full
 * hierarchy is modelled.
 */

#ifndef LRULEAK_SIM_HIERARCHY_HPP
#define LRULEAK_SIM_HIERARCHY_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/cache.hpp"
#include "sim/prefetcher.hpp"

namespace lruleak::sim {

/** Where an access was served from. */
enum class HitLevel : std::uint8_t
{
    L1 = 1,
    L2 = 2,
    LLC = 3,
    Memory = 4,
};

/** Outcome of a hierarchy access. */
struct HierarchyAccessResult
{
    HitLevel level = HitLevel::Memory;  //!< level that served the data
    bool l1_utag_mismatch = false;      //!< AMD way-predictor miss
    bool l1_bypassed = false;           //!< PL cache handled it uncached
    std::uint32_t writebacks = 0;       //!< write-back transactions this
                                        //!< access triggered (dirty victim
                                        //!< evictions and write-through
                                        //!< forwards); each one stalls the
                                        //!< access by the uarch's
                                        //!< write-back latency
    CacheAccessResult l1;               //!< detailed L1 outcome
};

/** Configuration of the whole hierarchy. */
struct HierarchyConfig
{
    CacheConfig l1 = CacheConfig::intelL1d();
    CacheConfig l2 = CacheConfig::intelL2();
    CacheConfig llc = CacheConfig::intelLlc();
    PlMode l1_pl_mode = PlMode::Disabled;
    bool l1_way_predictor = false;  //!< AMD utag model
    bool enable_prefetcher = false; //!< attach a stride prefetcher to L1

    /** Member-wise equality (drives the session topology reuse pool). */
    bool operator==(const HierarchyConfig &) const = default;
};

/**
 * The memory system seen by the simulated threads.  Non-inclusive:
 * evicting a *clean* line from a level simply drops it.  Dirty lines
 * are write-back-modelled: a dirty victim (or a write-through store
 * hit) walks down and lands in the first lower write-back level that
 * still holds the line, or in memory otherwise, and each such
 * transaction is reported in HierarchyAccessResult::writebacks so the
 * execution engine can charge its latency — the observable the
 * dirty-state channels (`dirty-evict`, `flush-dirty`) decode.  Each
 * level's write-hit/write-miss policy comes from its CacheConfig.
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyConfig &config = {});

    /**
     * Demand access.  Fills every missed level on the way back (L1 is
     * filled last so its replacement state sees exactly one update).
     */
    HierarchyAccessResult access(const MemRef &ref,
                                 LockReq lock_req = LockReq::None);

    /**
     * Would demand-accessing @p refs, in order, from the current state
     * be a pure fixed point?  That needs every ref to be an L1 hit with
     * a matching utag, no write-back, no write-through forward, no
     * prefetch, and every touched L1 set equal afterwards.  If so, the
     * L1 counters are credited @p times hits per ref — exactly what
     * @p times passes over the refs would record — and true is
     * returned; otherwise nothing changes.  Refused whenever the proof
     * cannot be made from the L1 sets alone: a prefetcher (own stream
     * state), a secure L1 (routing and fills elsewhere), PL lock bits,
     * or a store into a write-through L1.
     */
    bool creditFixedPoint(std::span<const MemRef> refs, std::uint64_t times);

    /**
     * clflush: remove the line from every level.  Reports whether any
     * level held it and whether any dropped copy was dirty (in which
     * case the flush stalls until the data reaches memory).
     */
    CacheFlushResult flush(const MemRef &ref);

    /** Present in L1? (no state change) */
    bool inL1(const MemRef &ref) const { return l1_->contains(ref); }
    /** Present in any level? (no state change) */
    bool inAnyLevel(const MemRef &ref) const;

    /**
     * Level a demand access *would* hit, without mutating any state.
     * Used by the transient-execution model to decide whether a
     * speculative load completes inside the speculation window before
     * letting its fill land.
     */
    HitLevel peekLevel(const MemRef &ref) const;

    Cache &l1() { return *l1_; }
    Cache &l2() { return *l2_; }
    Cache &llc() { return *llc_; }
    const Cache &l1() const { return *l1_; }
    const Cache &l2() const { return *l2_; }
    const Cache &llc() const { return *llc_; }

    const HierarchyConfig &config() const { return config_; }

    /** Reset contents, replacement state and counters of all levels. */
    void reset();

    /** Reset only the performance counters (start of a measured region). */
    void resetCounters();

  private:
    /**
     * Land one write-back transaction below level @p from (0 = from
     * L1, 1 = from L2, 2 = from LLC): the first lower write-back level
     * still holding @p line_base absorbs the data; otherwise it reaches
     * memory.  The caller counts the transaction either way.
     */
    void landWriteback(int from, Addr line_base);

    HierarchyConfig config_;
    std::unique_ptr<Cache> l1_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<Cache> llc_;
    std::unique_ptr<Prefetcher> prefetcher_;
};

} // namespace lruleak::sim

#endif // LRULEAK_SIM_HIERARCHY_HPP
