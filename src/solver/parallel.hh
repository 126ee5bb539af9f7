/**
 * @file
 * Parallel SAT solving for the hard-query tail: a portfolio race of
 * diversified CDCL configurations with learnt-clause sharing, and
 * cube-and-conquer splitting for queries that blow the conflict budget.
 *
 * Both entry points operate on a *clone* of the caller's solver (same
 * variable numbering, so the facade's model readback works unchanged
 * against the winner) and never mutate the source: a sequential query
 * stream interleaved with escalations stays bit-for-bit reproducible.
 *
 * Determinism contract: verdicts (Sat/Unsat) are reproducible — every
 * racer and every cube worker is sound, and clause sharing only moves
 * implied clauses between solvers over the same database and assumption
 * units — but the *witness* (which model, which racer wins, how many
 * conflicts each burns) depends on thread scheduling. Callers that need
 * bit-for-bit witness streams run with threads = 1, which never reaches
 * this layer.
 */

#ifndef COPPELIA_SOLVER_PARALLEL_HH
#define COPPELIA_SOLVER_PARALLEL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "solver/sat/sat.hh"

namespace coppelia::smt::parallel
{

/**
 * One diversified CDCL configuration. Racer 0 always runs the baseline
 * configuration, so a portfolio race is never weaker than the sequential
 * solver it replaces (modulo scheduling).
 */
struct RacerConfig
{
    const char *name;          ///< short label for querylog/report
    bool positivePhase;        ///< default phase polarity
    std::int64_t restartBase;  ///< Luby restart unit (baseline 100)
    double varDecay;           ///< VSIDS decay (baseline 0.95)
    bool minimize;             ///< learnt minimization + binary fast path
    double reduceDbFactor;     ///< reduceDB aggressiveness (baseline 0.5)
    std::size_t reduceDbMargin;
};

/** The diversification table; racer @p i runs configuration i modulo the
 *  table size. Index 0 is the baseline configuration. */
const RacerConfig &racerConfig(int i);

/** Number of distinct configurations in the diversification table. */
int racerConfigCount();

/** Per-racer outcome, reported for querylog/report attribution. */
struct RacerResult
{
    sat::SatResult result = sat::SatResult::Unknown;
    const char *config = "";
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t exported = 0; ///< learnt clauses offered to peers
    std::uint64_t imported = 0; ///< peer clauses drained into the DB
    std::uint64_t wallUs = 0;
};

struct RaceOutcome
{
    sat::SatResult result = sat::SatResult::Unknown;
    int winner = -1; ///< index of the first definitive racer (-1 if none)
    std::vector<RacerResult> racers;
    std::uint64_t clausesExported = 0;
    std::uint64_t clausesImported = 0;
    /** The winning solver, kept alive for model readback after Sat. */
    std::unique_ptr<sat::Solver> winnerSolver;
};

/**
 * Race @p threads diversified clones of @p src on one query.
 *
 * @p src must be at decision level 0. @p assumptions are installed as
 * unit clauses in every clone (all racers solve the same strengthened
 * formula, which makes learnt sharing between them sound). Each racer
 * gets the full @p conflict_budget (negative = unlimited). The first
 * definitive answer wins and interrupts the rest; with @p share on,
 * racers exchange size-capped learnt clauses through their import
 * queues, drained at restart boundaries.
 */
RaceOutcome portfolioRace(const sat::Solver &src,
                          const std::vector<sat::Lit> &assumptions,
                          int threads, std::int64_t conflict_budget,
                          bool share = true,
                          std::size_t share_max_lits = 8);

struct CubeOutcome
{
    sat::SatResult result = sat::SatResult::Unknown;
    int cubes = 0;    ///< fan-out (2^depth)
    int satCubes = 0; ///< cubes that came back Sat (workers stop at one)
    int unsatCubes = 0;
    int unknownCubes = 0;
    std::unique_ptr<sat::Solver> winnerSolver; ///< holds the Sat model
};

/**
 * Cube-and-conquer: split the query on @p depth lookahead-chosen
 * variables into 2^depth sign-complete cubes and solve them on
 * @p threads workers (each worker clones @p src once and takes cube
 * literals as solve-time assumptions, so one clone serves many cubes).
 * The cubes partition the search space: any Sat cube proves Sat, all
 * cubes Unsat proves Unsat, otherwise Unknown. @p per_cube_budget
 * bounds each cube individually (negative = unlimited, which makes the
 * merge always definitive).
 */
CubeOutcome cubeAndConquer(const sat::Solver &src,
                           const std::vector<sat::Lit> &assumptions,
                           int threads, int depth,
                           std::int64_t per_cube_budget);

/**
 * Pick @p depth split variables by propagation-weighted occurrence
 * (clauses score 1/2^len, so short clauses — the ones whose variables
 * propagate soonest — dominate), a cheap stand-in for full lookahead.
 * Skips assigned, clause-free, and @p exclude variables; ties break by
 * index so the split is deterministic for a given database.
 */
std::vector<sat::Var> pickSplitVars(const sat::Solver &src, int depth,
                                    const std::vector<sat::Lit> &exclude);

} // namespace coppelia::smt::parallel

#endif // COPPELIA_SOLVER_PARALLEL_HH
