/**
 * @file
 * CacheHierarchy implementation.
 */

#include "sim/hierarchy.hpp"

namespace lruleak::sim {

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config)
    : config_(config),
      l1_(std::make_unique<Cache>(config.l1, config.l1_pl_mode,
                                  config.l1_way_predictor)),
      l2_(std::make_unique<Cache>(config.l2)),
      llc_(std::make_unique<Cache>(config.llc))
{
    if (config.enable_prefetcher)
        prefetcher_ = std::make_unique<StridePrefetcher>(
            config.l1.line_size, 2);
}

void
CacheHierarchy::landWriteback(int from, Addr line_base)
{
    // A write-through level never buffers dirty data, so the write-back
    // passes through it on the way to memory.
    if (from < 1 &&
        config_.l2.write_hit == WriteHitPolicy::WriteBack &&
        l2_->markDirtyLine(line_base))
        return;
    if (from < 2 &&
        config_.llc.write_hit == WriteHitPolicy::WriteBack &&
        llc_->markDirtyLine(line_base))
        return;
    // Reached memory: nothing to track beyond the transaction itself.
}

HierarchyAccessResult
CacheHierarchy::access(const MemRef &ref, LockReq lock_req)
{
    HierarchyAccessResult res;

    res.l1 = l1_->access(ref, lock_req);
    res.l1_utag_mismatch = res.l1.utag_mismatch;
    res.l1_bypassed = res.l1.bypassed;

    if (res.l1.dirty_writeback && res.l1.evicted_line) {
        landWriteback(0, *res.l1.evicted_line);
        ++res.writebacks;
    }

    if (res.l1.hit && !res.l1.utag_mismatch) {
        res.level = HitLevel::L1;
    } else if (res.l1.hit && res.l1.utag_mismatch) {
        // Way-predictor miss: data was in L1 but the access pays (about)
        // an L2-hit latency while the utag retrains.  No lower-level
        // access happens architecturally.
        res.level = HitLevel::L2;
    } else {
        // L1 miss: walk down.  Perf counters of lower levels tick only
        // when the level is actually referenced, as with real HW events.
        // A store is "absorbed" by the innermost write-back level that
        // keeps a copy; below that point the walk is a plain read, so
        // one store never dirties two levels.
        MemRef down = ref;
        if (down.is_write &&
            config_.l1.write_hit == WriteHitPolicy::WriteBack &&
            res.l1.filled)
            down.is_write = false;
        const auto l2_res = l2_->access(down);
        if (l2_res.dirty_writeback && l2_res.evicted_line) {
            landWriteback(1, *l2_res.evicted_line);
            ++res.writebacks;
        }
        if (down.is_write &&
            (l2_res.hit || l2_res.filled)) {
            if (config_.l2.write_hit == WriteHitPolicy::WriteBack) {
                down.is_write = false; // L2 buffered the dirty data
            } else {
                // Write-through L2: the store passes through.
                landWriteback(1, l1_->layout().lineBase(ref.paddr));
                ++res.writebacks;
                down.is_write = false;
            }
        }
        if (l2_res.hit) {
            res.level = HitLevel::L2;
        } else {
            const auto llc_res = llc_->access(down);
            res.level = llc_res.hit ? HitLevel::LLC : HitLevel::Memory;
            if (llc_res.dirty_writeback)
                ++res.writebacks; // LLC victims drain straight to memory
            if (down.is_write && (llc_res.hit || llc_res.filled) &&
                config_.llc.write_hit == WriteHitPolicy::WriteThrough)
                ++res.writebacks; // passes through the LLC to memory
        }
    }

    if (res.l1.hit && ref.is_write &&
        config_.l1.write_hit == WriteHitPolicy::WriteThrough) {
        // Write-through L1: the store is forwarded downstream even on a
        // hit; the miss path above already carried it down.
        landWriteback(0, l1_->layout().lineBase(ref.paddr));
        ++res.writebacks;
    }

    if (prefetcher_) {
        const bool l1_hit = res.level == HitLevel::L1;
        for (Addr pf_vaddr : prefetcher_->observe(ref, l1_hit)) {
            // Prefetches translate with the same VA->PA offset as the
            // triggering access.
            MemRef pf{pf_vaddr, pf_vaddr + (ref.paddr - ref.vaddr),
                      ref.thread, false};
            if (!l1_->contains(pf)) {
                l2_->prefetch(pf);
                l1_->prefetch(pf);
            }
        }
    }

    return res;
}

bool
CacheHierarchy::creditFixedPoint(std::span<const MemRef> refs,
                                 std::uint64_t times)
{
    if (prefetcher_)
        return false;
    if (config_.l1.write_hit == WriteHitPolicy::WriteThrough) {
        for (const MemRef &ref : refs) {
            if (ref.is_write)
                return false;
        }
    }
    return l1_->creditFixedPoint(refs, times);
}

CacheFlushResult
CacheHierarchy::flush(const MemRef &ref)
{
    const auto f1 = l1_->flush(ref);
    const auto f2 = l2_->flush(ref);
    const auto f3 = llc_->flush(ref);
    CacheFlushResult res;
    res.present = f1.present || f2.present || f3.present;
    res.dirty = f1.dirty || f2.dirty || f3.dirty;
    return res;
}

bool
CacheHierarchy::inAnyLevel(const MemRef &ref) const
{
    return l1_->contains(ref) || l2_->contains(ref) || llc_->contains(ref);
}

HitLevel
CacheHierarchy::peekLevel(const MemRef &ref) const
{
    if (l1_->contains(ref))
        return HitLevel::L1;
    if (l2_->contains(ref))
        return HitLevel::L2;
    if (llc_->contains(ref))
        return HitLevel::LLC;
    return HitLevel::Memory;
}

void
CacheHierarchy::reset()
{
    l1_->reset();
    l2_->reset();
    llc_->reset();
    if (prefetcher_)
        prefetcher_->reset();
}

void
CacheHierarchy::resetCounters()
{
    l1_->counters().reset();
    l2_->counters().reset();
    llc_->counters().reset();
}

} // namespace lruleak::sim
