/**
 * @file
 * Hierarchy-agnostic access interface.
 *
 * The execution engine runs thread programs against "whatever memory
 * system the scenario uses": the single-core CacheHierarchy (SMT and
 * time-sliced sharing) or the MultiCoreHierarchy (cross-core scenarios).
 * AccessPort is the narrow waist between the two: a demand access issued
 * from a core, a batched replay of a whole access sequence (the kernel
 * bursts of the time-sliced model) that defaults to a loop over that
 * access, a topology-wide flush, and the optional inclusion audit.  The
 * two adapters below are pass-throughs — they add no behaviour, only
 * erase the concrete topology type — so a scheduler ported from a
 * concrete hierarchy to a port is access-for-access identical.
 */

#ifndef LRULEAK_SIM_ACCESS_PORT_HPP
#define LRULEAK_SIM_ACCESS_PORT_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "sim/hierarchy.hpp"
#include "sim/multicore_hierarchy.hpp"

namespace lruleak::sim {

/**
 * Outcome of a port access: where the data came from, and how many
 * write-back transactions the access triggered along the way (dirty
 * victim evictions, write-through forwards, dirty back-invalidations).
 * The engine charges each transaction the uarch's write-back latency.
 */
struct PortAccess
{
    HitLevel level = HitLevel::Memory;
    std::uint32_t writebacks = 0;
};

/**
 * One memory system as seen by the execution engine: N cores issuing
 * demand accesses, each served at some HitLevel.
 */
class AccessPort
{
  public:
    virtual ~AccessPort() = default;

    /** Number of cores that can issue accesses ([0, cores()) are valid). */
    virtual std::uint32_t cores() const = 0;

    /** Demand access issued by @p core. */
    virtual PortAccess access(std::uint32_t core, const MemRef &ref,
                              LockReq lock_req = LockReq::None) = 0;

    /**
     * Replay a whole access sequence from @p core, recording the level
     * each access was served from: one access() per ref, in order.
     * Batching above CacheSet is this loop; the virtuals exist so a
     * wrapping port can observe a batch as one call.
     * @pre levels.size() >= refs.size()
     */
    virtual void
    accessBatch(std::uint32_t core, std::span<const MemRef> refs,
                std::span<HitLevel> levels)
    {
        for (std::size_t i = 0; i < refs.size(); ++i)
            levels[i] = access(core, refs[i]).level;
    }

    /** Same, for callers that do not need the individual outcomes. */
    virtual void
    accessBatch(std::uint32_t core, std::span<const MemRef> refs)
    {
        for (const MemRef &ref : refs)
            access(core, ref);
    }

    /**
     * Batched demand run for the engine's AccessRun op: per-ref levels
     * recorded into @p levels, summed write-back transactions returned.
     * @pre levels.size() >= refs.size()
     */
    virtual std::uint64_t
    accessRun(std::uint32_t core, std::span<const MemRef> refs,
              std::span<HitLevel> levels)
    {
        std::uint64_t writebacks = 0;
        for (std::size_t i = 0; i < refs.size(); ++i) {
            const PortAccess res = access(core, refs[i]);
            levels[i] = res.level;
            writebacks += res.writebacks;
        }
        return writebacks;
    }

    /**
     * Steady-run proof for the engine's run compression: would
     * accessing @p refs from @p core, in order, from the current state
     * be a pure fixed point (every ref an L1 hit, no write-back, no
     * write-through forward, no prefetch, the touched sets unchanged)?
     * If so, the hit counters are credited as if the refs had been
     * accessed @p times over — the state itself is already what those
     * accesses would leave — and true is returned; otherwise nothing
     * changes.  The default refuses: a port that cannot prove the
     * fixed point is stepped op by op.
     */
    virtual bool
    creditFixedPoint(std::uint32_t core, std::span<const MemRef> refs,
                     std::uint64_t times)
    {
        (void)core;
        (void)refs;
        (void)times;
        return false;
    }

    /**
     * clflush: remove the line from every cache of every core.  Reports
     * presence and whether any dropped copy was dirty (the flush then
     * stalls on the write-back — the `flush-dirty` channel observable).
     */
    virtual CacheFlushResult flush(const MemRef &ref) = 0;

    /**
     * Walk the topology's inclusion invariant, if it has one.  Returns a
     * description of the first violation, nullopt when the invariant
     * holds or the topology has nothing to audit (single-core).
     */
    virtual std::optional<std::string>
    auditInclusion() const
    {
        return std::nullopt;
    }
};

/**
 * The single-core CacheHierarchy as an AccessPort (one core; the core
 * argument is ignored).  Lock requests reach the PL-cache model.
 */
class SingleCorePort final : public AccessPort
{
  public:
    explicit SingleCorePort(CacheHierarchy &hierarchy)
        : hierarchy_(hierarchy)
    {}

    std::uint32_t cores() const override { return 1; }

    PortAccess
    access(std::uint32_t, const MemRef &ref,
           LockReq lock_req = LockReq::None) override
    {
        const auto res = hierarchy_.access(ref, lock_req);
        return PortAccess{res.level, res.writebacks};
    }

    bool
    creditFixedPoint(std::uint32_t, std::span<const MemRef> refs,
                     std::uint64_t times) override
    {
        return hierarchy_.creditFixedPoint(refs, times);
    }

    CacheFlushResult
    flush(const MemRef &ref) override
    {
        return hierarchy_.flush(ref);
    }

    CacheHierarchy &hierarchy() { return hierarchy_; }

  private:
    CacheHierarchy &hierarchy_;
};

/**
 * The MultiCoreHierarchy as an AccessPort.  Lock requests are ignored
 * (PL locking is a single-core-only feature); the inclusion audit is
 * live.
 */
class MultiCorePort final : public AccessPort
{
  public:
    explicit MultiCorePort(MultiCoreHierarchy &hierarchy)
        : hierarchy_(hierarchy)
    {}

    std::uint32_t cores() const override { return hierarchy_.cores(); }

    PortAccess
    access(std::uint32_t core, const MemRef &ref,
           LockReq = LockReq::None) override
    {
        const auto res = hierarchy_.access(core, ref);
        return PortAccess{res.level, res.writebacks};
    }

    CacheFlushResult
    flush(const MemRef &ref) override
    {
        return hierarchy_.flush(ref);
    }

    std::optional<std::string>
    auditInclusion() const override
    {
        return hierarchy_.auditInclusion();
    }

    MultiCoreHierarchy &hierarchy() { return hierarchy_; }

  private:
    MultiCoreHierarchy &hierarchy_;
};

} // namespace lruleak::sim

#endif // LRULEAK_SIM_ACCESS_PORT_HPP
