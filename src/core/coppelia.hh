/**
 * @file
 * Coppelia — the end-to-end tool (paper Figure 1). Given a processor
 * design and a set of security-critical assertions it:
 *
 *   1. preprocesses the design (optimization passes standing in for
 *      Verilator -O3, cone-of-influence analysis),
 *   2. builds a trigger with the backward symbolic execution engine,
 *   3. appends the payload stub selected by the violated property's
 *      category, and
 *   4. validates the exploit by replay on the concrete simulator (the
 *      FPGA-board stand-in).
 *
 * It also packages the two §IV-G workflows: verifying that a security
 * patch actually fixed a vulnerability, and refining an assertion set by
 * classifying assertions that still fire on a corrected design.
 */

#ifndef COPPELIA_CORE_COPPELIA_HH
#define COPPELIA_CORE_COPPELIA_HH

#include <optional>
#include <string>
#include <vector>

#include "bse/engine.hh"
#include "coi/coi.hh"
#include "cpu/bugs.hh"
#include "exploit/exploit.hh"
#include "exploit/replay.hh"
#include "props/assertion.hh"
#include "rtl/design.hh"

namespace coppelia::core
{

/** Tool configuration. */
struct CoppeliaOptions
{
    bse::Options engine;
    /** Attach a payload stub and emit the C program. */
    bool addPayload = true;
    /** Validate by replay and reject non-replayable triggers. */
    bool validateByReplay = true;
    /** Deleted setting; see smt::RemovedOption. */
    smt::RemovedOption simBackend;
};

/** Result of one exploit-generation run. */
struct ExploitResult
{
    bse::Outcome outcome = bse::Outcome::NoViolation;
    std::optional<exploit::Exploit> exploit;
    exploit::ReplayResult replay;
    int triggerInstructions = 0;
    double seconds = 0.0;
    int iterations = 0;
    /** Some solver query stayed Unknown: a non-Found outcome means the
     *  search was incomplete, not that no violation exists. */
    bool solverIncomplete = false;
    StatGroup stats;

    bool found() const { return outcome == bse::Outcome::Found; }
    bool replayable() const { return replay.replayable(); }
};

/** §IV-G patch-verification verdicts. */
enum class PatchVerdict
{
    Pass,           ///< patched core clean: a complete search, no violation
    BugNotFixed,    ///< the patched core is still exploitable
    WrongAssertion, ///< the assertion fires even on the correct design
    /** The patched search found nothing but did not complete (budget or
     *  bound exhausted, or a query stayed Unknown): no verdict. */
    Inconclusive,
};

const char *patchVerdictName(PatchVerdict v);

/** The end-to-end driver bound to one design. */
class Coppelia
{
  public:
    Coppelia(const rtl::Design &design, cpu::Processor processor,
             CoppeliaOptions opts = {});

    /** Phases 2-4: trigger, payload, replay validation. */
    ExploitResult generateExploit(const props::Assertion &assertion);

    /** Cone-of-influence statistics for an assertion (phase 1). */
    coi::CoiStats coneStats(const props::Assertion &assertion) const;

    const rtl::Design &design() const { return design_; }

  private:
    const rtl::Design &design_;
    cpu::Processor processor_;
    CoppeliaOptions opts_;
};

/** A design paired with its instantiation of the assertion under test
 *  (assertions hold design-specific expression references). */
struct DesignUnderTest
{
    const rtl::Design *design;
    const props::Assertion *assertion;
};

/**
 * §IV-G: verify a patch. Expects an exploit on the buggy design and none
 * on the patched design. Pass needs the patched search to end in a
 * complete NoViolation; a search that merely ran out of budget is
 * Inconclusive. When the patched design is still exploitable the verdict
 * distinguishes an incomplete patch from a wrong assertion by consulting
 * the fully-correct reference design.
 */
PatchVerdict verifyPatch(const DesignUnderTest &buggy,
                         const DesignUnderTest &patched,
                         const DesignUnderTest &reference,
                         cpu::Processor processor,
                         const CoppeliaOptions &opts = {});

} // namespace coppelia::core

#endif // COPPELIA_CORE_COPPELIA_HH
