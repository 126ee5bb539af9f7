#include "rtl/sim.hh"

#include "rtl/schedule.hh"
#include "util/logging.hh"

namespace coppelia::rtl
{

Simulator::Simulator(const Design &design)
    : design_(design), schedule_(std::make_shared<const Schedule>(design)),
      state_(schedule_->numSlots(), 0)
{
    schedule_->loadConstants(state_.data());
    reset();
}

void
Simulator::reset()
{
    for (SignalId sig = 0; sig < design_.numSignals(); ++sig) {
        const Signal &s = design_.signal(sig);
        state_[sig] =
            s.kind == SignalKind::Register ? s.resetValue.bits() : 0;
    }
    cycle_ = 0;
    evalCount_ = 0;
    settled_ = false;
    evalComb();
}

void
Simulator::setInput(SignalId sig, std::uint64_t bits)
{
    const Signal &s = design_.signal(sig);
    if (s.kind != SignalKind::Input)
        fatal("setInput on non-input signal ", s.name);
    bits &= widthMask(s.width);
    if (state_[sig] != bits) {
        state_[sig] = bits;
        settled_ = false;
    }
}

void
Simulator::setInput(const std::string &name, std::uint64_t bits)
{
    setInput(design_.signalIdOf(name), bits);
}

void
Simulator::settle()
{
    schedule_->settle(state_.data());
    settled_ = true;
}

void
Simulator::evalComb()
{
    if (!settled_)
        settle();
    ++evalCount_;
}

void
Simulator::step()
{
    if (!settled_)
        settle();
    // Every next-state value is computed against the settled pre-edge
    // state before any register commits (non-blocking semantics); the
    // settle that follows makes the wires reflect the new registers.
    schedule_->latch(state_.data());
    schedule_->settle(state_.data());
    evalCount_ += 2;
    ++cycle_;

    if (observer_ != nullptr)
        observer_->onStep(*this);
}

Value
Simulator::peek(SignalId sig) const
{
    return Value(design_.signal(sig).width, state_.at(sig));
}

Value
Simulator::peek(const std::string &name) const
{
    return peek(design_.signalIdOf(name));
}

std::vector<Value>
Simulator::env() const
{
    std::vector<Value> env;
    env.reserve(static_cast<std::size_t>(design_.numSignals()));
    for (SignalId sig = 0; sig < design_.numSignals(); ++sig)
        env.emplace_back(design_.signal(sig).width, state_[sig]);
    return env;
}

void
Simulator::pokeRegister(SignalId sig, std::uint64_t bits)
{
    const Signal &s = design_.signal(sig);
    if (s.kind != SignalKind::Register)
        fatal("pokeRegister on non-register signal ", s.name);
    bits &= widthMask(s.width);
    if (state_[sig] != bits) {
        state_[sig] = bits;
        settled_ = false;
    }
}

} // namespace coppelia::rtl
