/**
 * @file
 * LRU channel program implementations.
 */

#include "channel/lru_channel.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace lruleak::channel {

// -------------------------------------------------------------- receiver

LruReceiver::LruReceiver(const ChannelLayout &layout, ReceiverConfig config)
    : layout_(layout), config_(config),
      chase_(layout.chaseRefs(config.chain_len)),
      chain_hint_(chase_.size(), sim::HitLevel::L1)
{
    // Algorithm 1 walks lines 0..N (N+1 lines), Algorithm 2 walks
    // lines 0..N-1 (N lines).
    last_line_ = config_.alg == LruAlgorithm::Alg1Shared
                     ? layout_.ways()
                     : layout_.ways() - 1;
    samples_.reserve(config_.max_samples);

    if (config_.batch_walks) {
        for (std::uint32_t i = 0; i < config_.d; ++i)
            init_refs_.push_back(layout_.receiverLine(config_.alg, i));
        for (std::uint32_t i = config_.d; i <= last_line_; ++i)
            decode_refs_.push_back(layout_.receiverLine(config_.alg, i));
    }
}

exec::Op
LruReceiver::nextBatch(std::uint64_t now)
{
    // Same phase machine as next(), with every multi-line walk emitted
    // as one AccessRun.  Each case transitions first and emits second,
    // so the `now` a phase sees is the completion time of the previous
    // walk — exactly what the per-op path sees at its phase boundaries.
    switch (phase_) {
      case Phase::Prewarm:
        phase_ = Phase::Init;
        return exec::Op::accessRun(chase_);

      case Phase::Init:
        if (first_init_) {
            // Tlast arms when the prewarm walk completes, as in next().
            mark_ = now;
            first_init_ = false;
        }
        phase_ = Phase::Sleep;
        if (!init_refs_.empty())
            return exec::Op::accessRun(init_refs_);
        [[fallthrough]];

      case Phase::Sleep: {
        phase_ = Phase::Decode;
        const std::uint64_t deadline = mark_ + config_.tr;
        mark_ = std::max(deadline, now);
        if (deadline > now)
            return exec::Op::spinUntil(deadline);
        [[fallthrough]];
      }

      case Phase::Decode:
        phase_ = Phase::Chain;
        if (!decode_refs_.empty())
            return exec::Op::accessRun(decode_refs_);
        [[fallthrough]];

      case Phase::Chain:
        phase_ = Phase::Measure;
        return exec::Op::accessRun(chase_);

      case Phase::Measure:
        phase_ = Phase::Init;
        return exec::Op::measure(layout_.receiverLine(config_.alg, 0),
                                 chain_hint_);

      case Phase::Finished:
        break;
    }
    return exec::Op::done();
}

exec::Op
LruReceiver::next(std::uint64_t now)
{
    if (config_.batch_walks)
        return nextBatch(now);

    switch (phase_) {
      case Phase::Prewarm:
        if (index_ < chase_.size())
            return exec::Op::access(chase_[index_++]);
        index_ = 0;
        phase_ = Phase::Init;
        mark_ = now;
        [[fallthrough]];

      case Phase::Init:
        if (index_ < config_.d)
            return exec::Op::access(
                layout_.receiverLine(config_.alg, index_++));
        index_ = 0;
        phase_ = Phase::Sleep;
        [[fallthrough]];

      case Phase::Sleep: {
        phase_ = Phase::Decode;
        const std::uint64_t deadline = mark_ + config_.tr;
        // Tlast = TSC when the wait loop exits (Algorithm 3): if we are
        // already past the deadline, the mark snaps to now.
        mark_ = std::max(deadline, now);
        if (deadline > now)
            return exec::Op::spinUntil(deadline);
        [[fallthrough]];
      }

      case Phase::Decode:
        if (config_.d + index_ <= last_line_)
            return exec::Op::access(
                layout_.receiverLine(config_.alg, config_.d + index_++));
        index_ = 0;
        phase_ = Phase::Chain;
        [[fallthrough]];

      case Phase::Chain:
        // Refetch the chain so the timed pass hits L1 seven times.
        if (index_ < chase_.size())
            return exec::Op::access(chase_[index_++]);
        index_ = 0;
        phase_ = Phase::Measure;
        [[fallthrough]];

      case Phase::Measure:
        phase_ = Phase::Init;
        return exec::Op::measure(layout_.receiverLine(config_.alg, 0),
                                 chain_hint_);

      case Phase::Finished:
        break;
    }
    return exec::Op::done();
}

void
LruReceiver::onResult(const exec::OpResult &result)
{
    if (result.kind != exec::OpKind::Measure)
        return;
    samples_.push_back(Sample{result.tsc, result.measured, result.level});
    if (samples_.size() >= config_.max_samples)
        phase_ = Phase::Finished;
}

// ---------------------------------------------------------------- sender

LruSender::LruSender(const ChannelLayout &layout, SenderConfig config)
    : layout_(layout), config_(config), line_(layout.senderLine(config.alg))
{
    // The sender's private "stack" lines: always-hot local work placed in
    // a set far from the target so the access mix is realistic without
    // polluting the channel.
    const std::uint32_t stack_set =
        (layout_.targetSet() + 17) % layout_.layout().numSets();
    for (std::uint32_t i = 0; i < config_.stack_lines; ++i) {
        const sim::Addr a = sim::lineInSet(layout_.layout(), stack_set, i,
                                           ChannelLayout::kSenderBase);
        stack_.push_back(sim::MemRef{a, a, kSenderThread, false});
    }

    // kick_private: 16 lines sharing the target line's private L1/L2
    // index but living in other LLC sets (same aliasing scheme as the
    // spies' kick pool, own tag base).  Sixteen cycles both 8-way
    // private levels, so after a kick burst no private copy of the
    // target line survives and its LLC line is unowned under SHARP.
    if (config_.kick_private) {
        constexpr sim::Addr kSenderKickBase = 0x2800'0000'0000ULL;
        const std::uint32_t sets = layout_.layout().numSets();
        const std::uint32_t stride = std::max<std::uint32_t>(sets / 4, 1);
        for (std::uint32_t i = 0; i < 16; ++i) {
            const std::uint32_t kick_set =
                (layout_.targetSet() + stride * (i % 3 + 1)) % sets;
            const sim::Addr a = sim::lineInSet(layout_.layout(), kick_set,
                                               i / 3, kSenderKickBase);
            kick_.push_back(sim::MemRef{a, a, kSenderThread, false});
        }
    }

    if (config_.ts == 0)
        throw std::invalid_argument("LruSender: Ts must be positive");
    const std::size_t size = config_.message.size();
    if (size != 0)
        total_bits_ = size * (config_.infinite ? ~std::size_t{0} / size
                                               : config_.repeats);
    for (std::size_t i = 1; i < size; ++i)
        uniform_ = uniform_ && config_.message[i] == config_.message[0];

    for (int bit : {0, 1}) {
        auto &refs = steady_refs_[bit];
        if (config_.write_polarity || bit == 1) {
            sim::MemRef ref = line_;
            if (config_.write_polarity)
                ref.is_write = bit == 1;
            refs.push_back(ref);
        }
        refs.insert(refs.end(), stack_.begin(), stack_.end());
    }
}

int
LruSender::currentBit(std::size_t index) const
{
    if (index >= total_bits_)
        return -1;
    return config_.message[index % config_.message.size()];
}

std::pair<std::size_t, std::uint64_t>
LruSender::bitAt(std::uint64_t now) const
{
    if (now < bit_deadline_)
        return {bit_index_, bit_deadline_};
    const std::uint64_t behind = (now - bit_deadline_) / config_.ts + 1;
    return {bit_index_ + behind, bit_deadline_ + behind * config_.ts};
}

void
LruSender::catchUp(std::uint64_t now)
{
    if (now < bit_deadline_)
        return;
    std::tie(bit_index_, bit_deadline_) = bitAt(now);
    sub_step_ = 0;
    fresh_bit_ = true;
}

exec::SteadyRun
LruSender::steadyRun(std::uint64_t now) const
{
    // An iteration starting inside a bit ends its spin at that bit's
    // deadline only if now + encode_gap cannot fall short of it.
    if (phase_ != Phase::Encode || !started_ || sub_step_ != 0 ||
        config_.batch_walks || config_.kick_private ||
        config_.encode_gap < config_.ts)
        return {};
    const auto [index, deadline] = bitAt(now);
    const int bit = currentBit(index);
    if (bit < 0)
        return {};
    // One iteration per bit, for as long as the bit value repeats.
    std::uint64_t iterations = total_bits_ - index;
    if (!uniform_) {
        iterations = 0;
        while (currentBit(index + iterations) == bit)
            ++iterations;
    }
    return exec::SteadyRun{steady_refs_[bit], deadline, config_.ts,
                           iterations};
}

void
LruSender::skipSteady(std::uint64_t now, std::uint64_t iterations)
{
    catchUp(now);
    if (iterations > 1) {
        bit_index_ += iterations - 1;
        bit_deadline_ += (iterations - 1) * config_.ts;
        fresh_bit_ = true;
    }
    const int bit = currentBit(bit_index_);
    if (config_.write_polarity || bit == 1)
        encode_levels_.insert(encode_levels_.end(), iterations,
                              sim::HitLevel::L1);
    if (bit == 1 && !config_.write_polarity)
        fresh_bit_ = false;
    awaiting_encode_ = false;
}

exec::Op
LruSender::next(std::uint64_t now)
{
    if (phase_ == Phase::Prewarm) {
        // batch_walks: the whole prewarm (line fetch + kick expel) is one
        // run.  Locked prewarms stay per-op — AccessRun carries no lock
        // request.
        if (config_.batch_walks && !config_.lock_line) {
            phase_ = Phase::Encode;
            if (config_.prewarm) {
                iter_refs_.assign(1, line_);
                iter_refs_.insert(iter_refs_.end(), kick_.begin(),
                                  kick_.end());
                return exec::Op::accessRun(iter_refs_);
            }
        }
        if (phase_ == Phase::Prewarm && config_.prewarm && pre_step_ == 0) {
            ++pre_step_;
            return config_.lock_line
                       ? exec::Op::accessLock(line_, sim::LockReq::Lock)
                       : exec::Op::access(line_);
        }
        // kick_private: expel the prewarmed private copies right away,
        // so the team's warm-up pressure lands on the (unowned) target
        // line instead of wedging into a spy's slice.
        if (config_.prewarm && pre_step_ <= kick_.size())
            return exec::Op::access(kick_[pre_step_++ - 1]);
        phase_ = Phase::Encode;
    }

    if (phase_ == Phase::Finished)
        return exec::Op::done();

    if (!started_) {
        started_ = true;
        start_tsc_ = now;
        bit_deadline_ = now + config_.ts;
    }

    // Advance to the bit that owns the current instant.
    catchUp(now);

    const int bit = currentBit(bit_index_);
    if (bit < 0) {
        phase_ = Phase::Finished;
        return exec::Op::done();
    }

    // One encode iteration: (encode access if sending 1) -> (kick walk
    // if kick_private and the line was touched) -> local stack work ->
    // short spin.  The iteration then repeats until Ts expires.
    const std::uint32_t kicks = static_cast<std::uint32_t>(kick_.size());

    // batch_walks: the iteration's whole access burst is one run with
    // the encode access first, so the run's OpResult.level is the
    // encode level onResult() records.  The spin stays its own op.
    if (config_.batch_walks) {
        if (sub_step_ == 0) {
            sub_step_ = 1;
            iter_refs_.clear();
            if (config_.write_polarity) {
                sim::MemRef ref = line_;
                ref.is_write = bit == 1;
                awaiting_encode_ = true;
                iter_refs_.push_back(ref);
                iter_refs_.insert(iter_refs_.end(), kick_.begin(),
                                  kick_.end());
            } else if (bit == 1) {
                fresh_bit_ = false;
                awaiting_encode_ = true;
                iter_refs_.push_back(line_);
                iter_refs_.insert(iter_refs_.end(), kick_.begin(),
                                  kick_.end());
            } else if (config_.kick_private && fresh_bit_) {
                // Park the (unowned) line once at the start of a 0 bit,
                // then expel the private copies — see the per-op path.
                fresh_bit_ = false;
                iter_refs_.push_back(line_);
                iter_refs_.insert(iter_refs_.end(), kick_.begin(),
                                  kick_.end());
            }
            iter_refs_.insert(iter_refs_.end(), stack_.begin(),
                              stack_.end());
            if (!iter_refs_.empty())
                return exec::Op::accessRun(iter_refs_);
        }
        sub_step_ = 0;
        const std::uint64_t wake =
            std::min(now + config_.encode_gap, bit_deadline_);
        return exec::Op::spinUntil(wake);
    }
    if (sub_step_ == 0) {
        sub_step_ = 1;
        if (config_.write_polarity) {
            // Dirty-state encoding: access the line for both symbols,
            // store for 1 and load for 0 (see SenderConfig).
            awaiting_encode_ = true;
            sim::MemRef ref = line_;
            ref.is_write = bit == 1;
            return exec::Op::access(ref);
        }
        if (bit == 1) {
            fresh_bit_ = false;
            awaiting_encode_ = true;
            return exec::Op::access(line_);
        }
        // Sending 0 under the anti-SHARP protocol: park the line once
        // at the start of the bit — resident but (after the kick)
        // unowned, it is the absorber that lets the spies' churn damp
        // back to the quiet state instead of cycling through forced
        // evictions for the rest of the window.
        if (config_.kick_private && fresh_bit_) {
            fresh_bit_ = false;
            return exec::Op::access(line_);
        }
        // Sending 0: no access to the target set, and nothing to kick.
        sub_step_ = 1 + kicks;
    }
    if (sub_step_ <= kicks)
        return exec::Op::access(kick_[sub_step_++ - 1]);
    if (sub_step_ <= kicks + config_.stack_lines) {
        const auto &ref = stack_[sub_step_ - kicks - 1];
        ++sub_step_;
        return exec::Op::access(ref);
    }

    sub_step_ = 0;
    const std::uint64_t wake =
        std::min(now + config_.encode_gap, bit_deadline_);
    return exec::Op::spinUntil(wake);
}

void
LruSender::onResult(const exec::OpResult &result)
{
    if (awaiting_encode_ && (result.kind == exec::OpKind::Access ||
                             result.kind == exec::OpKind::AccessRun)) {
        // For a batched run the encode access is the run's first ref,
        // and an AccessRun's result.level is exactly that first level.
        encode_levels_.push_back(result.level);
        awaiting_encode_ = false;
    }
}

Bits
LruSender::sentBits() const
{
    return repeatBits(config_.message, config_.repeats);
}

} // namespace lruleak::channel
