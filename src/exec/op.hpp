/**
 * @file
 * The operation vocabulary of simulated threads.
 *
 * Sender and receiver are modelled as state machines that yield one
 * operation at a time; the scheduler executes the operation against the
 * shared cache hierarchy, charges its latency to the thread's clock and
 * reports the outcome back.  This makes the interleaving of the two
 * parties explicit, reproducible and schedulable under both sharing
 * models.
 */

#ifndef LRULEAK_EXEC_OP_HPP
#define LRULEAK_EXEC_OP_HPP

#include <cstdint>
#include <span>

#include "sim/address.hpp"
#include "sim/cache_set.hpp"
#include "sim/hierarchy.hpp"

namespace lruleak::exec {

/** What a thread wants to do next. */
enum class OpKind
{
    Access,       //!< one load/store through the hierarchy
    AccessRun,    //!< a span of loads/stores as ONE engine event; each
                  //!< access is charged exactly like a lone Access op
                  //!< (per-access latency, overhead and jitter draw), but
                  //!< other threads cannot interleave inside the run and
                  //!< the program gets one aggregated OpResult.  Opt-in
                  //!< for throughput paths (SessionConfig::batch_walks).
    Measure,      //!< timed load of @c ref using the pointer-chase readout
    Flush,        //!< clflush @c ref from all levels
    MeasureFlush, //!< timed clflush of @c ref: the readout depends on
                  //!< whether a dirty copy had to be written back
                  //!< (Flushgeist-style flush-latency decoding)
    SpinUntil,    //!< busy-wait until the TSC reaches @c until
    Done,         //!< thread finished
};

/** One operation yielded by a ThreadProgram. */
struct Op
{
    OpKind kind = OpKind::Done;
    sim::MemRef ref;                     //!< Access/Measure/Flush target
    sim::LockReq lock_req = sim::LockReq::None;
    std::uint64_t until = 0;             //!< SpinUntil deadline (TSC)

    /**
     * For Measure: the observed hit levels of the preceding chase-chain
     * accesses (the receiver issues those as ordinary Access ops and
     * collects their levels via onResult).  A view into program-owned
     * storage: the engine consumes the op before the program's next()
     * runs again, so the program may reuse one buffer across samples
     * instead of allocating a fresh vector per measurement.
     */
    std::span<const sim::HitLevel> chain_levels;

    /**
     * For AccessRun: the accesses, in issue order.  A view into
     * program-owned storage, like chain_levels.
     */
    std::span<const sim::MemRef> run_refs;

    /**
     * For Measure: write-back transactions the preceding chain accesses
     * triggered (collected from their OpResults).  Each one stalled the
     * timed walk by the uarch's write-back latency, so the engine adds
     * them to the readout — the `dirty-evict` channel's signal.
     */
    std::uint32_t chain_writebacks = 0;

    static Op
    access(const sim::MemRef &ref)
    {
        Op op;
        op.kind = OpKind::Access;
        op.ref = ref;
        return op;
    }

    static Op
    accessLock(const sim::MemRef &ref, sim::LockReq req)
    {
        Op op = access(ref);
        op.lock_req = req;
        return op;
    }

    static Op
    accessRun(std::span<const sim::MemRef> refs)
    {
        Op op;
        op.kind = OpKind::AccessRun;
        op.run_refs = refs;
        return op;
    }

    static Op
    measure(const sim::MemRef &ref, std::span<const sim::HitLevel> chain,
            std::uint32_t chain_writebacks = 0)
    {
        Op op;
        op.kind = OpKind::Measure;
        op.ref = ref;
        op.chain_levels = chain;
        op.chain_writebacks = chain_writebacks;
        return op;
    }

    static Op
    flush(const sim::MemRef &ref)
    {
        Op op;
        op.kind = OpKind::Flush;
        op.ref = ref;
        return op;
    }

    static Op
    measureFlush(const sim::MemRef &ref)
    {
        Op op;
        op.kind = OpKind::MeasureFlush;
        op.ref = ref;
        return op;
    }

    static Op
    spinUntil(std::uint64_t tsc)
    {
        Op op;
        op.kind = OpKind::SpinUntil;
        op.until = tsc;
        return op;
    }

    static Op
    done()
    {
        return Op{};
    }
};

/** Outcome of an executed Access/AccessRun/Measure/Flush op. */
struct OpResult
{
    OpKind kind = OpKind::Access;
    sim::HitLevel level = sim::HitLevel::Memory; //!< where it was served
                                  //!< (AccessRun: the run's FIRST access
                                  //!< — senders put the encode access
                                  //!< first so its level survives)
    std::uint32_t measured = 0;   //!< latency readout (Measure kinds only)
    std::uint32_t writebacks = 0; //!< write-back transactions triggered
                                  //!< (Access/Measure; AccessRun: summed
                                  //!< over the run; receivers fold these
                                  //!< into the next timed readout)
    std::uint64_t tsc = 0;        //!< completion time
};

/**
 * A steady run a program declares at the start of a loop iteration,
 * for the engine's run compression (see TimeSlicePolicyConfig::
 * slice_events).  It promises: from now, iteration i (i = 0, 1, ...,
 * iterations - 1) performs each of @c refs as a plain Access op, back to
 * back, then yields SpinUntil(deadline + i * period), and iteration
 * i + 1 starts when that spin ends — provided iteration i's accesses
 * complete before its deadline and each is an L1 hit without
 * write-backs.  `iterations == 0` declares nothing.
 */
struct SteadyRun
{
    std::span<const sim::MemRef> refs; //!< one iteration's accesses (a
                                       //!< view into program storage)
    std::uint64_t deadline = 0;   //!< end of iteration 0's spin (TSC)
    std::uint64_t period = 0;     //!< deadline distance of iterations
    std::uint64_t iterations = 0; //!< iterations the promise covers
};

/**
 * A simulated thread.  @c next is called whenever the thread is runnable;
 * @c onResult delivers the outcome of the op that just executed.
 */
class ThreadProgram
{
  public:
    virtual ~ThreadProgram() = default;

    /** Yield the next operation. @p now is the current TSC. */
    virtual Op next(std::uint64_t now) = 0;

    /** Outcome of the last Access/Measure/Flush. */
    virtual void onResult(const OpResult &result) { (void)result; }

    /**
     * The steady run that starts if next() is called at @p now (see
     * SteadyRun).  Must not change the program's state.  Default: none,
     * so the program is always stepped op by op.
     */
    virtual SteadyRun
    steadyRun(std::uint64_t now) const
    {
        (void)now;
        return {};
    }

    /**
     * Advance the program's state past the first @p iterations
     * iterations of steadyRun(@p now), exactly as next()/onResult()
     * would have for those ops with every access an L1 hit and no
     * write-backs.  Only called after steadyRun(@p now) declared at
     * least @p iterations iterations.
     */
    virtual void
    skipSteady(std::uint64_t now, std::uint64_t iterations)
    {
        (void)now;
        (void)iterations;
    }

    /** The scheduler's thread id for this program's accesses. */
    sim::ThreadId threadId() const { return thread_id_; }
    void setThreadId(sim::ThreadId id) { thread_id_ = id; }

  private:
    sim::ThreadId thread_id_ = 0;
};

} // namespace lruleak::exec

#endif // LRULEAK_EXEC_OP_HPP
