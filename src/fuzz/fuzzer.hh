/**
 * @file
 * The coverage-guided instruction fuzzer: an AFL-style corpus loop over
 * bus-driven instruction streams, with the structural CoverageMap as the
 * keep-signal and the ISS-vs-RTL DivergenceOracle as the bug oracle.
 *
 * The loop is the classic shape: pick a parent from the corpus (or a
 * fresh random stream), havoc/splice-mutate it, run it in lockstep, keep
 * it when it lights up new coverage points, and record + minimize any
 * architectural divergence. Everything is a pure function of the seed:
 * the same (design, processor, seed, budget) reproduces the same corpus
 * and the same divergences, which is what the campaign layer's JSONL
 * records and the CI smoke job rely on.
 *
 * Divergences are deduplicated by (mismatching field, opcode of the
 * diverging instruction) — the same granularity a triage engineer would
 * use — and each distinct one is minimized by trimming to the diverging
 * cycle, greedy deletion to a fixpoint, and NOP substitution, always
 * re-verifying that the *same field* still diverges.
 */

#ifndef COPPELIA_FUZZ_FUZZER_HH
#define COPPELIA_FUZZ_FUZZER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "fuzz/coverage.hh"
#include "fuzz/mutate.hh"
#include "fuzz/oracle.hh"
#include "solver/solver.hh"
#include "util/rng.hh"

namespace coppelia::fuzz
{

/** Fuzzing campaign budget and knobs. */
struct FuzzOptions
{
    /** Seed for every random choice (stream generation and mutation). */
    std::uint64_t seed = 1;
    /** Stream executions to run (0 = unlimited, bound by time/stop). */
    int maxExecs = 1024;
    /** Longest stream the generator and mutators will build. */
    int maxStreamLen = 24;
    /** Wall-clock limit in seconds (0 = unlimited). */
    double timeLimitSeconds = 0.0;
    /** External cancellation hook, polled once per execution. */
    std::function<bool()> stopRequested;
    /** Deleted setting; see smt::RemovedOption. */
    smt::RemovedOption backend;
};

/** One distinct, minimized divergence. */
struct FuzzDivergence
{
    Divergence divergence; ///< as observed on the minimized stream
    std::vector<std::uint32_t> stream; ///< minimized replayable stream
    int rawLength = 0; ///< length of the stream that first exposed it
};

/** What a fuzzing run produced. */
struct FuzzResult
{
    int execs = 0;                  ///< streams executed (incl. minimization)
    std::uint64_t instructions = 0; ///< lockstep cycles executed
    int corpusSize = 0;
    std::size_t coveragePoints = 0; ///< points hit
    std::size_t coverageTotal = 0;  ///< points instrumented
    std::vector<FuzzDivergence> divergences;
    double seconds = 0.0;
};

/** The coverage-guided fuzzing loop for one (design, processor) pair. */
class Fuzzer
{
  public:
    Fuzzer(const rtl::Design &design, cpu::Processor processor,
           FuzzOptions opts = {});
    ~Fuzzer();

    Fuzzer(const Fuzzer &) = delete;
    Fuzzer &operator=(const Fuzzer &) = delete;

    /** Run the campaign to budget exhaustion. */
    FuzzResult run();

    /**
     * Run one stream from reset in lockstep (coverage observed), stopping
     * at the first divergence. Exposed for tests and the concolic bridge.
     */
    std::optional<Divergence>
    execute(const std::vector<std::uint32_t> &stream);

    /**
     * Shrink a diverging stream: trim to the diverging cycle, greedy
     * deletion to a fixpoint, then NOP substitution — each step kept only
     * when the same field still diverges. @p d is updated to the
     * divergence observed on the returned stream.
     */
    std::vector<std::uint32_t>
    minimize(std::vector<std::uint32_t> stream, Divergence &d);

    DivergenceOracle &oracle() { return oracle_; }
    CoverageMap &coverage() { return coverage_; }
    const StreamGenerator &generator() const { return gen_; }
    const std::vector<std::vector<std::uint32_t>> &corpus() const
    {
        return corpus_;
    }

  private:
    /** Dedup key: mismatching field + opcode of the diverging word. */
    std::string divergenceKey(const Divergence &d) const;

    const rtl::Design &design_;
    FuzzOptions opts_;
    StreamGenerator gen_;
    DivergenceOracle oracle_;
    CoverageMap coverage_;
    Rng rng_;
    std::vector<std::vector<std::uint32_t>> corpus_;
    std::uint64_t instructions_ = 0;
    int execs_ = 0;
};

} // namespace coppelia::fuzz

#endif // COPPELIA_FUZZ_FUZZER_HH
