/**
 * @file
 * Shared helpers for the benchmark harnesses: standard engine options for
 * each processor (preconditioned to legal opcodes, §II-E1), the bug ->
 * assertion mapping, the common command line (--smoke/--json/--trace),
 * and fixed-width table printing.
 */

#ifndef COPPELIA_BENCH_BENCH_COMMON_HH
#define COPPELIA_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bse/engine.hh"
#include "core/coppelia.hh"
#include "cpu/or1k/core.hh"
#include "cpu/or1k/isa.hh"
#include "cpu/riscv/core.hh"
#include "cpu/riscv/isa.hh"
#include "props/assertion.hh"
#include "util/strutil.hh"
#include "util/timer.hh"

namespace coppelia::bench
{

/**
 * The command line every bench binary accepts. Smoke mode is the CI
 * fast path: a 2-3 bug subset with tight budgets, same checks.
 */
struct BenchOptions
{
    bool smoke = false;     ///< tiny budgets, reduced bug set
    int repeat = 1;         ///< timing runs per configuration (median-of-N)
    std::string jsonPath;   ///< machine-readable results (--json FILE)
    std::string tracePath;  ///< Chrome trace-event timeline (--trace FILE)
};

inline void
benchUsage(const char *argv0)
{
    std::printf("usage: %s [--smoke] [--repeat N] "
                "[--json FILE] [--trace FILE]\n"
                "  --smoke             CI fast path: 2-3 bugs, tight "
                "budgets\n"
                "  --repeat N          run each timed configuration N times "
                "and\n"
                "                      report the median (default 1)\n"
                "  --json FILE         write machine-readable results as "
                "JSON\n"
                "  --trace FILE        record a Chrome trace-event "
                "timeline\n",
                argv0);
}

/** Parse the shared bench flags; unknown arguments print usage and
 *  exit 2, so CI logs always name the bad flag. */
inline BenchOptions
parseBenchArgs(int argc, char **argv)
{
    BenchOptions opts;
    auto value = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: missing value for %s\n\n", argv[0],
                         flag);
            benchUsage(argv[0]);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            benchUsage(argv[0]);
            std::exit(0);
        } else if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--repeat") {
            opts.repeat = std::atoi(value(i, "--repeat").c_str());
            if (opts.repeat < 1) {
                std::fprintf(stderr, "%s: --repeat needs N >= 1\n\n",
                             argv[0]);
                benchUsage(argv[0]);
                std::exit(2);
            }
        } else if (arg == "--json") {
            opts.jsonPath = value(i, "--json");
        } else if (arg == "--trace") {
            opts.tracePath = value(i, "--trace");
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n\n", argv[0],
                         arg.c_str());
            benchUsage(argv[0]);
            std::exit(2);
        }
    }
    return opts;
}

/** Open an input file, or print the path and the OS reason and exit 1 —
 *  a missing file must be diagnosable from CI logs, not a bare abort. */
inline std::ifstream
openInputOrDie(const char *argv0, const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open input '%s': %s\n", argv0,
                     path.c_str(), std::strerror(errno));
        std::exit(1);
    }
    return in;
}

/** Open an output file for --json/--trace; path + reason on failure. */
inline std::ofstream
openOutputOrDie(const char *argv0, const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "%s: cannot open output '%s': %s\n", argv0,
                     path.c_str(), std::strerror(errno));
        std::exit(1);
    }
    return out;
}

/** Preconditions restricting the 32-bit instruction input to the ISA. */
inline bse::PreconditionFn
or1kPreconditions(const rtl::Design &design)
{
    const rtl::Design *d = &design;
    return [d](smt::TermManager &tm,
               const sym::BoundState &bs) -> std::vector<smt::TermRef> {
        std::vector<smt::TermRef> out =
            cpu::or1k::stateAssumptions(tm, *d, bs.regVars);
        for (const auto &[sig, var] : bs.inputVars) {
            (void)sig;
            if (tm.varWidth(tm.term(var).varId) == 32)
                out.push_back(cpu::or1k::legalInsnConstraint(tm, var));
        }
        return out;
    };
}

inline bse::PreconditionFn
rv32Preconditions()
{
    return [](smt::TermManager &tm,
              const sym::BoundState &bs) -> std::vector<smt::TermRef> {
        for (const auto &[sig, var] : bs.inputVars) {
            (void)sig;
            if (tm.varWidth(tm.term(var).varId) == 32)
                return {cpu::riscv::rvLegalInsnConstraint(tm, var)};
        }
        return {};
    };
}

/** Default engine/driver configuration for OR1200 benchmark runs. */
inline core::CoppeliaOptions
or1200DriverOptions(const rtl::Design &design, double time_limit = 120.0)
{
    core::CoppeliaOptions opts;
    opts.engine.bound = 6;
    opts.engine.maxFeedbackRounds = 24;
    opts.engine.timeLimitSeconds = time_limit;
    opts.engine.preconditions = or1kPreconditions(design);
    return opts;
}

inline core::CoppeliaOptions
rv32DriverOptions(double time_limit = 120.0)
{
    core::CoppeliaOptions opts;
    opts.engine.bound = 6;
    opts.engine.maxFeedbackRounds = 24;
    opts.engine.timeLimitSeconds = time_limit;
    opts.engine.preconditions = rv32Preconditions();
    return opts;
}

/** Worker count for campaign-driven harnesses: the
 *  COPPELIA_CAMPAIGN_WORKERS environment variable, or 0 (= all cores). */
inline int
campaignWorkers()
{
    const char *env = std::getenv("COPPELIA_CAMPAIGN_WORKERS");
    return env ? std::atoi(env) : 0;
}

/** Find the assertion associated with a bug id; nullptr if none. */
inline const props::Assertion *
assertionForBug(const std::vector<props::Assertion> &asserts,
                const std::string &bug_name)
{
    for (const props::Assertion &a : asserts) {
        if (a.bugId == bug_name)
            return &a;
    }
    return nullptr;
}

/** Print a row of fixed-width columns. */
inline void
printRow(const std::vector<std::string> &cells,
         const std::vector<int> &widths)
{
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const int w = i < widths.size() ? widths[i] : 12;
        line += padRight(cells[i], static_cast<std::size_t>(w)) + " ";
    }
    std::printf("%s\n", line.c_str());
}

/** Print a separator matching the given column widths. */
inline void
printRule(const std::vector<int> &widths)
{
    std::size_t total = 0;
    for (int w : widths)
        total += static_cast<std::size_t>(w) + 1;
    std::printf("%s\n", std::string(total, '-').c_str());
}

/** "yes"/"no"/"-" helpers. */
inline std::string
yn(bool v)
{
    return v ? "yes" : "no";
}

/** Median of a sample set (for `--repeat N` timing runs). Sorts a copy;
 *  even-sized samples average the middle pair. */
inline double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t mid = samples.size() / 2;
    if (samples.size() % 2 == 1)
        return samples[mid];
    return 0.5 * (samples[mid - 1] + samples[mid]);
}

/** Min/max envelope of a sample set, reported next to the median so a
 *  `--repeat N` run exposes machine-noise spread instead of hiding it. */
struct Spread
{
    double min = 0.0;
    double max = 0.0;
};

inline Spread
spreadOf(const std::vector<double> &samples)
{
    Spread s;
    if (samples.empty())
        return s;
    const auto [lo, hi] =
        std::minmax_element(samples.begin(), samples.end());
    s.min = *lo;
    s.max = *hi;
    return s;
}

} // namespace coppelia::bench

#endif // COPPELIA_BENCH_BENCH_COMMON_HH
