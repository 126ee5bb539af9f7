#include "fuzz/coverage.hh"

namespace coppelia::fuzz
{

namespace
{

/** The condition of every control branch, in ExprRef order. */
std::vector<rtl::ExprRef>
branchConditions(const rtl::Design &design)
{
    std::vector<rtl::ExprRef> conds;
    for (rtl::ExprRef ref = 0; ref < design.numExprs(); ++ref) {
        if (design.isBranch(ref))
            conds.push_back(design.expr(ref).args[0]);
    }
    return conds;
}

} // namespace

CoverageMap::CoverageMap(const rtl::Design &design)
    : conds_(rtl::Schedule::ofRoots(design, branchConditions(design))),
      slots_(conds_.numSlots(), 0)
{
    std::uint32_t next = 0;
    for (rtl::SignalId sig = 0; sig < design.numSignals(); ++sig) {
        const rtl::Signal &s = design.signal(sig);
        if (s.kind != rtl::SignalKind::Register)
            continue;
        regs_.push_back({sig, s.width, next});
        next += 2 * static_cast<std::uint32_t>(s.width);
    }
    for (std::uint32_t slot : conds_.rootSlots()) {
        branches_.push_back({slot, next});
        next += 2;
    }
    conds_.loadConstants(slots_.data());
    totalPoints_ = next;
    prev_.assign(regs_.size(), 0);
    bits_.assign((totalPoints_ + 63) / 64, 0);
}

bool
CoverageMap::covered(std::size_t index) const
{
    return (bits_[index / 64] >> (index % 64)) & 1;
}

void
CoverageMap::mark(std::size_t index)
{
    std::uint64_t &word = bits_[index / 64];
    const std::uint64_t bit = 1ull << (index % 64);
    if (!(word & bit)) {
        word |= bit;
        ++covered_;
    }
}

void
CoverageMap::syncState(const rtl::Simulator &sim)
{
    for (std::size_t i = 0; i < regs_.size(); ++i)
        prev_[i] = sim.word(regs_[i].sig);
}

void
CoverageMap::clear()
{
    bits_.assign(bits_.size(), 0);
    covered_ = 0;
}

void
CoverageMap::onStep(const rtl::Simulator &sim)
{
    // Toggle points: compare each register's latched value to the previous
    // cycle; bit b rising marks point base+2b, falling marks base+2b+1.
    for (std::size_t i = 0; i < regs_.size(); ++i) {
        const RegPoints &r = regs_[i];
        const std::uint64_t now = sim.word(r.sig);
        const std::uint64_t was = prev_[i];
        std::uint64_t changed = now ^ was;
        while (changed != 0) {
            const int b = __builtin_ctzll(changed);
            changed &= changed - 1;
            const bool rose = (now >> b) & 1;
            mark(r.base + 2 * static_cast<std::uint32_t>(b) + (rose ? 0 : 1));
        }
        prev_[i] = now;
    }

    // Branch points: evaluate every control-branch condition against the
    // settled post-edge state (one sweep over the words it reads).
    for (rtl::SignalId sig : conds_.reads())
        slots_[sig] = sim.word(sig);
    conds_.settle(slots_.data());
    for (const BranchPoints &br : branches_)
        mark(br.base + (slots_[br.slot] != 0 ? 0 : 1));
}

} // namespace coppelia::fuzz
