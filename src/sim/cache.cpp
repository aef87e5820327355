/**
 * @file
 * Cache level implementation.
 */

#include "sim/cache.hpp"

#include <algorithm>

#include "sim/way_predictor.hpp"

namespace lruleak::sim {

Cache::Cache(const CacheConfig &config, PlMode pl_mode, bool way_predictor)
    : config_(config), layout_(config.line_size, config.numSets()),
      pl_mode_(pl_mode), way_predictor_(way_predictor),
      fill_rng_(config.seed ^ 0xf177ed5ecULL)
{
    config_.validate();

    // DAWG partitions the ways of every address set into secure_domains
    // independent slices, each with its own replacement state.
    std::uint32_t per_set = 1;
    std::uint32_t ways = config_.ways;
    if (config_.secure == SecureMode::Dawg) {
        if (config_.secure_domains == 0 ||
            config_.ways % config_.secure_domains != 0)
            throw std::invalid_argument(config_.name +
                ": DAWG domains must evenly divide the ways");
        per_set = config_.secure_domains;
        ways = config_.ways / config_.secure_domains;
    }
    if (config_.secure == SecureMode::RandomFill &&
        config_.fill_window == 0)
        throw std::invalid_argument(config_.name +
            ": RandomFill window must be non-zero");
    if (config_.secure == SecureMode::Sharp) {
        if (config_.secure_domains == 0)
            throw std::invalid_argument(config_.name +
                ": SHARP needs at least one protection domain");
        if (way_predictor_ || pl_mode_ != PlMode::Disabled)
            throw std::invalid_argument(config_.name +
                ": SHARP composes with neither the way predictor nor "
                "PL lock bits");
        sharp_alarms_.assign(config_.secure_domains, 0);
        sharp_forced_.assign(config_.secure_domains, 0);
        sharp_denied_.assign(config_.secure_domains, 0);
    }

    sets_.reserve(static_cast<std::size_t>(layout_.numSets()) * per_set);
    for (std::uint32_t s = 0; s < layout_.numSets() * per_set; ++s) {
        // Give each Random-policy set its own derived seed so sets do not
        // evict in lockstep.
        sets_.emplace_back(ways,
                           ReplState::make(config_.policy, ways,
                                           config_.seed + s),
                           pl_mode, config_.write_hit, config_.write_miss);
    }
}

SetAccessResult
Cache::randomFill(const MemRef &ref, std::uint32_t &fill_set)
{
    // Deterministic random neighbour within +-fill_window lines of the
    // missing address (never the missing line itself).  Line-base
    // arithmetic wraps mod 2^64, which keeps the draw well-defined near
    // address zero.
    const std::int64_t offset =
        fill_rng_.range(1, config_.fill_window) *
        (fill_rng_.chance(0.5) ? 1 : -1);
    const Addr delta = static_cast<Addr>(
        offset * static_cast<std::int64_t>(config_.line_size));
    const Addr line_mask = ~static_cast<Addr>(config_.line_size - 1);
    const Addr fill_vaddr = (ref.vaddr & line_mask) + delta;
    const Addr fill_paddr = (ref.paddr & line_mask) + delta;

    fill_set = layout_.setIndex(fill_vaddr);
    const std::uint16_t utag =
        way_predictor_ ? WayPredictor::utag(fill_vaddr) : 0;
    return routeSet(fill_set, ref.thread)
        .prefetchFill(layout_.tag(fill_paddr), utag, ref.thread);
}

CacheAccessResult
Cache::accessSharpImpl(std::uint32_t domain, const MemRef &ref)
{
    const std::uint32_t set = layout_.setIndex(ref.vaddr);
    const Addr tag = layout_.tag(ref.paddr);
    domain %= config_.secure_domains;

    // A domain whose alarm count already crossed the threshold gets its
    // forced evictions denied outright (threshold 0 = pure detector).
    const bool flagged =
        config_.sharp_alarm_threshold > 0 &&
        sharp_alarms_[domain] >= config_.sharp_alarm_threshold;

    SharpSetEvents ev;
    const SetAccessResult sr = sets_[set].accessSharp(
        tag, ref.thread, ref.is_write, domain, flagged, ev);
    sharp_alarms_[domain] += ev.alarms;
    sharp_forced_[domain] += ev.forced ? 1 : 0;
    sharp_denied_[domain] += ev.denied ? 1 : 0;

    CacheAccessResult res;
    res.hit = sr.hit;
    res.set = set;
    res.way = sr.way;
    res.filled = sr.filled;
    res.bypassed = sr.bypassed;
    res.dirty_writeback = sr.dirty_writeback;
    res.write_no_alloc = sr.write_no_alloc;
    if (sr.evicted)
        res.evicted_line = layout_.compose(sr.evicted_tag, set);

    counters_.record(ref.thread, sr.hit);
    if (sr.dirty_writeback)
        counters_.recordWriteback(ref.thread);
    return res;
}

CacheAccessResult
Cache::accessFrom(std::uint32_t domain, const MemRef &ref, LockReq lock_req)
{
    if (config_.secure == SecureMode::Sharp)
        return accessSharpImpl(domain, ref);
    return access(ref, lock_req);
}

void
Cache::releaseOwner(std::uint32_t domain, Addr line_base)
{
    if (config_.secure != SecureMode::Sharp)
        return;
    const MemRef ref = MemRef::load(line_base);
    const std::uint32_t set = layout_.setIndex(ref.vaddr);
    sets_[set].releaseOwner(layout_.tag(ref.paddr),
                            domain % config_.secure_domains);
}

std::uint64_t
Cache::sharpAlarmsTotal() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t v : sharp_alarms_)
        total += v;
    return total;
}

std::uint64_t
Cache::sharpForcedTotal() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t v : sharp_forced_)
        total += v;
    return total;
}

std::uint64_t
Cache::sharpDeniedTotal() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t v : sharp_denied_)
        total += v;
    return total;
}

CacheAccessResult
Cache::access(const MemRef &ref, LockReq lock_req)
{
    if (config_.secure == SecureMode::Sharp) {
        // No explicit domain: fall back to the thread id, which matches
        // the core on single-core topologies (and keeps standalone
        // SHARP caches usable without a hierarchy).
        return accessSharpImpl(
            static_cast<std::uint32_t>(ref.thread), ref);
    }

    const std::uint32_t set = layout_.setIndex(ref.vaddr);
    const Addr tag = layout_.tag(ref.paddr);
    const std::uint16_t utag =
        way_predictor_ ? WayPredictor::utag(ref.vaddr) : 0;

    CacheSet &target = routeSet(set, ref.thread);

    if (config_.secure == SecureMode::RandomFill && !target.probe(tag)) {
        // Demand miss: serve it uncached and install a random
        // neighbourhood line instead, decoupling the fill address from
        // the access address.
        std::uint32_t fill_set = 0;
        const SetAccessResult fr = randomFill(ref, fill_set);

        CacheAccessResult res;
        res.set = set;
        res.bypassed = true;
        res.write_no_alloc = ref.is_write;
        res.dirty_writeback = fr.dirty_writeback;
        if (fr.evicted)
            res.evicted_line = layout_.compose(fr.evicted_tag, fill_set);

        counters_.record(ref.thread, false);
        if (fr.dirty_writeback)
            counters_.recordWriteback(ref.thread);
        return res;
    }

    SetAccessResult sr = target.access(tag, utag, way_predictor_,
                                       lock_req, ref.thread,
                                       ref.is_write);

    CacheAccessResult res;
    res.hit = sr.hit;
    res.set = set;
    res.way = sr.way;
    res.filled = sr.filled;
    res.bypassed = sr.bypassed;
    res.utag_mismatch = sr.utag_mismatch;
    res.dirty_writeback = sr.dirty_writeback;
    res.write_no_alloc = sr.write_no_alloc;
    if (sr.evicted)
        res.evicted_line = layout_.compose(sr.evicted_tag, set);

    counters_.record(ref.thread, sr.hit);
    if (sr.dirty_writeback)
        counters_.recordWriteback(ref.thread);
    return res;
}

bool
Cache::creditFixedPoint(std::span<const MemRef> refs, std::uint64_t times)
{
    // Secure modes route or fill outside the touched sets; PL lock
    // bits are refused too, so the proof never reasons about locks.
    if (config_.secure != SecureMode::None || pl_mode_ != PlMode::Disabled)
        return false;
    std::size_t used = 0;
    for (const MemRef &ref : refs) {
        const std::uint32_t set = layout_.setIndex(ref.vaddr);
        std::size_t i = 0;
        while (i < used && dry_index_[i] != set)
            ++i;
        if (i == used) {
            if (used < dry_sets_.size()) {
                dry_index_[used] = set;
                dry_sets_[used] = sets_[set];
            } else {
                dry_index_.push_back(set);
                dry_sets_.push_back(sets_[set]);
            }
            ++used;
        }
        const std::uint16_t utag =
            way_predictor_ ? WayPredictor::utag(ref.vaddr) : 0;
        const SetAccessResult sr =
            dry_sets_[i].access(layout_.tag(ref.paddr), utag,
                                way_predictor_, LockReq::None, ref.thread,
                                ref.is_write);
        if (!sr.hit || sr.utag_mismatch)
            return false;
    }
    for (std::size_t i = 0; i < used; ++i) {
        if (!(dry_sets_[i] == sets_[dry_index_[i]]))
            return false;
    }
    for (const MemRef &ref : refs)
        counters_.recordHits(ref.thread, times);
    return true;
}

CacheAccessResult
Cache::prefetch(const MemRef &ref)
{
    const std::uint32_t set = layout_.setIndex(ref.vaddr);
    const Addr tag = layout_.tag(ref.paddr);
    const std::uint16_t utag =
        way_predictor_ ? WayPredictor::utag(ref.vaddr) : 0;

    SetAccessResult sr =
        routeSet(set, ref.thread).prefetchFill(tag, utag, ref.thread);

    CacheAccessResult res;
    res.hit = sr.hit;
    res.set = set;
    res.way = sr.way;
    res.filled = sr.filled;
    if (sr.evicted)
        res.evicted_line = layout_.compose(sr.evicted_tag, set);
    return res;
}

bool
Cache::contains(const MemRef &ref) const
{
    const std::uint32_t set = layout_.setIndex(ref.vaddr);
    return routeSet(set, ref.thread)
        .probe(layout_.tag(ref.paddr))
        .has_value();
}

CacheFlushResult
Cache::flush(const MemRef &ref)
{
    const std::uint32_t set = layout_.setIndex(ref.vaddr);
    const Addr tag = layout_.tag(ref.paddr);

    // Coherence reaches across DAWG partitions even though visibility
    // does not: clflush and back-invalidations must remove the line no
    // matter which domain installed it.
    if (config_.secure == SecureMode::Dawg) {
        for (std::uint32_t d = 0; d < config_.secure_domains; ++d) {
            const std::size_t idx =
                static_cast<std::size_t>(set) * config_.secure_domains + d;
            const SetFlushResult sr = sets_[idx].flushLine(tag);
            if (sr.present) {
                if (sr.dirty)
                    counters_.recordWriteback(ref.thread);
                return CacheFlushResult{sr.present, sr.dirty};
            }
        }
        return CacheFlushResult{};
    }

    const SetFlushResult sr = sets_[set].flushLine(tag);
    if (sr.dirty)
        counters_.recordWriteback(ref.thread);
    return CacheFlushResult{sr.present, sr.dirty};
}

bool
Cache::markDirtyLine(Addr line_base)
{
    const MemRef ref = MemRef::load(line_base);
    const std::uint32_t set = layout_.setIndex(ref.vaddr);
    const Addr tag = layout_.tag(ref.paddr);

    if (config_.secure == SecureMode::Dawg) {
        for (std::uint32_t d = 0; d < config_.secure_domains; ++d) {
            const std::size_t idx =
                static_cast<std::size_t>(set) * config_.secure_domains + d;
            if (sets_[idx].markDirty(tag))
                return true;
        }
        return false;
    }

    return sets_[set].markDirty(tag);
}

void
Cache::reset()
{
    for (auto &set : sets_)
        set.reset();
    counters_.reset();
    fill_rng_ = Xoshiro256(config_.seed ^ 0xf177ed5ecULL);
    std::fill(sharp_alarms_.begin(), sharp_alarms_.end(), 0);
    std::fill(sharp_forced_.begin(), sharp_forced_.end(), 0);
    std::fill(sharp_denied_.begin(), sharp_denied_.end(), 0);
}

void
Cache::setPlMode(PlMode mode)
{
    pl_mode_ = mode;
    for (auto &set : sets_)
        set.setPlMode(mode);
}

} // namespace lruleak::sim
