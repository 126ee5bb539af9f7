/**
 * @file
 * Structural coverage map over the elaborated IR, the feedback signal of
 * the coverage-guided instruction fuzzer (TheHuzz-style golden-model
 * fuzzing made effective by coverage feedback, per Zhang et al.).
 *
 * Two families of coverage points are tracked per design:
 *
 *  - toggle coverage: for every register bit, a point for the 0->1 edge
 *    and a point for the 1->0 edge across a clock cycle;
 *  - branch coverage: for every Ite node marked as a *control branch*
 *    (Design::isBranch — the nodes the symbolic executor forks on), a
 *    point for the condition having been seen true and one for false.
 *
 * The map attaches to a concrete rtl::Simulator as a StepObserver and
 * updates a flat bitmap on every cycle. The hot path is allocation-free
 * (unit-asserted): it reads the simulator's raw signal words, and the
 * branch conditions are one sweep of an rtl::Schedule built over them,
 * the same straight-line evaluation the interpreter settles with, run
 * on a preallocated slot array.
 */

#ifndef COPPELIA_FUZZ_COVERAGE_HH
#define COPPELIA_FUZZ_COVERAGE_HH

#include <cstdint>
#include <vector>

#include "rtl/design.hh"
#include "rtl/schedule.hh"
#include "rtl/sim.hh"

namespace coppelia::fuzz
{

/** Toggle + branch coverage bitmap over one design. */
class CoverageMap : public rtl::StepObserver
{
  public:
    explicit CoverageMap(const rtl::Design &design);

    /** Total coverage points instrumented (2 per register bit + 2 per
     *  control branch). */
    std::size_t totalPoints() const { return totalPoints_; }

    /** Points hit so far. */
    std::size_t coveredPoints() const { return covered_; }

    /** True when the point at @p index has been hit. */
    bool covered(std::size_t index) const;

    /**
     * Re-seed the previous-register-value shadow from the simulator's
     * current state. Call after Simulator::reset() (or after poking
     * registers) so the first observed cycle does not count the jump from
     * stale values as toggles.
     */
    void syncState(const rtl::Simulator &sim);

    /** Forget all hits (the shadow state is kept). */
    void clear();

    /** StepObserver: fold the settled post-edge state into the bitmap. */
    void onStep(const rtl::Simulator &sim) override;

  private:
    struct RegPoints
    {
        rtl::SignalId sig;
        int width;
        std::uint32_t base; ///< first point index; 2 per bit (rise, fall)
    };
    struct BranchPoints
    {
        std::uint32_t slot; ///< the condition's slot in conds_
        std::uint32_t base; ///< 2 points (seen true, seen false)
    };

    void mark(std::size_t index);

    std::vector<RegPoints> regs_;
    std::vector<BranchPoints> branches_;
    std::vector<std::uint64_t> prev_;  ///< last latched value per regs_ entry
    std::vector<std::uint64_t> bits_;  ///< hit bitmap, one bit per point
    std::size_t totalPoints_ = 0;
    std::size_t covered_ = 0;
    rtl::Schedule conds_;              ///< every branch condition
    std::vector<std::uint64_t> slots_; ///< conds_'s state array
};

} // namespace coppelia::fuzz

#endif // COPPELIA_FUZZ_COVERAGE_HH
