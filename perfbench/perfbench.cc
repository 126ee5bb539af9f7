/**
 * @file
 * One benchmark workload, run as a closed loop with one client: the ops
 * execute one at a time on the calling thread, each a single call into a
 * layer's public function at the defaults `coppelia-campaign` applies.
 * The defaults come from a default-constructed campaign::CampaignSpec and
 * are mapped onto each layer's options the way src/campaign/job.cc maps
 * them, so a change to a default is measured at its new value.
 *
 *   perfbench --seed N --seconds S [--trace] OP...
 *
 *   OP = KIND:CORE:BUG:DESIGN[:BOUND]
 *     KIND    exploit (core::Coppelia::generateExploit),
 *             ifv / ebmc (bmc::checkAssertion with that preset),
 *             fuzz (fuzz::Fuzzer::run)
 *     CORE    or1200 | mor1kx | ri5cy
 *     BUG     the bug whose assertion is targeted (b01..b35), or "-"
 *     DESIGN  buggy (that bug present) | patched (its patch applied) |
 *             clean (no bug)
 *     BOUND   BMC unrolling bound (default: the campaign's bmcMaxBound)
 *
 * Op i's explorer or fuzzer seed is campaign::deriveJobSeed(N, i, 0), as
 * the campaign derives job seeds. Set-up (elaborating every design the
 * ops use and binding its assertions) repeats until about 6000 designs
 * have been elaborated, about a second; the ops then run in whole passes
 * for as long as a further pass fits in S seconds (at least one). With
 * --trace one untraced pass runs, then one more set-up and one more pass
 * with the program's trace spans on, wrapped in bench.* spans of our own,
 * and the fold of that pass is reported.
 *
 * A host probe of the benchmark's own (HostProbe) is timed between
 * set-up repetitions and before every op, outside the timed spans, so
 * that run.py can scale the times to the host's speed. Prints one
 * JSON document on stdout; run.py turns it into the benchmark's metrics.
 */

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "bmc/bmc.hh"
#include "campaign/job.hh"
#include "campaign/spec.hh"
#include "core/coppelia.hh"
#include "cpu/bugs.hh"
#include "cpu/or1k/core.hh"
#include "cpu/riscv/core.hh"
#include "fuzz/fuzzer.hh"
#include "trace/fold.hh"
#include "trace/trace.hh"
#include "util/json.hh"
#include "util/strutil.hh"
#include "util/timer.hh"

using namespace coppelia;

namespace
{

enum class Kind
{
    Exploit,
    Ifv,
    Ebmc,
    Fuzz,
};

enum class Variant
{
    Buggy,
    Patched,
    Clean,
};

struct OpSpec
{
    std::string text;
    Kind kind = Kind::Exploit;
    cpu::Processor processor = cpu::Processor::OR1200;
    std::string bug; ///< empty for "-"
    Variant variant = Variant::Buggy;
    int bound = 0;   ///< 0 = the campaign default
    std::uint64_t seed = 0;
    std::size_t design = 0; ///< index into the set-up's designs
};

/** One elaborated design and its bound assertions. */
struct DesignUnderTest
{
    cpu::Processor processor;
    std::string bug;
    Variant variant;
    std::unique_ptr<rtl::Design> design;
    std::vector<props::Assertion> assertions;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --seed N --seconds S [--trace] "
                 "KIND:CORE:BUG:DESIGN[:BOUND]...\n",
                 why.c_str());
    std::exit(2);
}

cpu::BugId
bugId(const std::string &name)
{
    for (const cpu::BugInfo &b : cpu::bugRegistry()) {
        if (b.name == name)
            return b.id;
    }
    usage("unknown bug '" + name + "'");
}

OpSpec
parseOp(const std::string &text)
{
    const std::vector<std::string> f = split(text, ':');
    if (f.size() != 4 && f.size() != 5)
        usage("malformed op '" + text + "'");
    OpSpec op;
    op.text = text;
    if (f[0] == "exploit")
        op.kind = Kind::Exploit;
    else if (f[0] == "ifv")
        op.kind = Kind::Ifv;
    else if (f[0] == "ebmc")
        op.kind = Kind::Ebmc;
    else if (f[0] == "fuzz")
        op.kind = Kind::Fuzz;
    else
        usage("unknown op kind in '" + text + "'");
    if (!campaign::parseProcessorName(f[1], &op.processor))
        usage("unknown core in '" + text + "'");
    if (f[2] != "-") {
        bugId(f[2]);
        op.bug = f[2];
    }
    if (f[3] == "buggy")
        op.variant = Variant::Buggy;
    else if (f[3] == "patched")
        op.variant = Variant::Patched;
    else if (f[3] == "clean")
        op.variant = Variant::Clean;
    else
        usage("unknown design in '" + text + "'");
    if (op.variant != Variant::Clean && op.bug.empty())
        usage("a buggy or patched design needs a bug: '" + text + "'");
    if (op.kind != Kind::Fuzz && op.bug.empty())
        usage("an exploit or BMC op needs a bug's assertion: '" + text + "'");
    if (f.size() == 5)
        op.bound = std::atoi(f[4].c_str());
    return op;
}

rtl::Design
elaborate(cpu::Processor processor, const cpu::BugConfig &bugs)
{
    switch (processor) {
      case cpu::Processor::OR1200: return cpu::or1k::buildOr1200(bugs);
      case cpu::Processor::Mor1kxEspresso:
        return cpu::or1k::buildMor1kx(bugs);
      case cpu::Processor::PulpinoRi5cy: return cpu::riscv::buildRi5cy(bugs);
    }
    return cpu::or1k::buildOr1200(bugs);
}

std::vector<props::Assertion>
bindAssertions(cpu::Processor processor, rtl::Design &design)
{
    switch (processor) {
      case cpu::Processor::OR1200: return cpu::or1k::or1200Assertions(design);
      case cpu::Processor::Mor1kxEspresso:
        return cpu::or1k::mor1kxAssertions(design);
      case cpu::Processor::PulpinoRi5cy:
        return cpu::riscv::ri5cyAssertions(design);
    }
    return {};
}

/**
 * The host's speed, measured by code that is not the program's. On a
 * shared host other tenants contend for a core and for memory, and the
 * ops slow down by up to half for minutes at a time, while the clock
 * stays the same (a single dependent multiply chain keeps its speed).
 * Each sample times two fixed pieces of work:
 *  - memory: dependent loads, one per cache line, round a random cycle
 *    through a buffer far larger than a core's caches, so that nearly
 *    every load goes to memory. Each call goes on round the cycle from
 *    where the last one stopped, so it does not find the lines the last
 *    one loaded still in the cache.
 *  - core: eight independent chains of shifts, xors and multiplies in
 *    registers, enough to keep a core's multiplier busy, so that they
 *    slow when another tenant shares the core.
 * The buffer stays resident from construction on, so it adds exactly
 * bytes() to the peak RSS.
 */
class HostProbe
{
  public:
    HostProbe()
    {
        // Mapped directly, not from the heap, so that the program's
        // allocator never sees it.
        void *buffer = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (buffer == MAP_FAILED) {
            std::perror("perfbench: mmap");
            std::exit(1);
        }
        slot_ = static_cast<std::uint32_t *>(buffer);
        // Sattolo's algorithm over the lines: line i's successor is the
        // line slot_[i * kStride] points to, and the successors form one
        // cycle through every line. Writing every line makes every page
        // resident.
        const std::size_t lines = kBytes / sizeof(std::uint32_t) / kStride;
        for (std::size_t i = 0; i < lines; ++i)
            slot_[i * kStride] = static_cast<std::uint32_t>(i * kStride);
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (std::size_t i = lines - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(slot_[i * kStride], slot_[(x % i) * kStride]);
        }
    }

    ~HostProbe() { munmap(slot_, kBytes); }
    HostProbe(const HostProbe &) = delete;
    HostProbe &operator=(const HostProbe &) = delete;

    static constexpr std::size_t bytes() { return kBytes; }

    /** One sample: [memory seconds, core seconds]. */
    json::Value
    sample() const
    {
        json::Value out = json::Value::array();
        out.push(json::Value::number(memorySeconds()));
        out.push(json::Value::number(coreSeconds()));
        return out;
    }

  private:
    static constexpr std::size_t kBytes = std::size_t{32} << 20;
    static constexpr std::size_t kStride = 64 / sizeof(std::uint32_t);
    static constexpr int kMemorySteps = 100000;
    static constexpr int kCoreSteps = 1000000;

    double
    memorySeconds() const
    {
        Timer timer;
        std::uint32_t at = at_;
        for (int i = 0; i < kMemorySteps; ++i)
            at = slot_[at];
        at_ = at;
        return timer.seconds();
    }

    double
    coreSeconds() const
    {
        Timer timer;
        std::uint64_t chain[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        for (int i = 0; i < kCoreSteps; ++i) {
            for (std::uint64_t &c : chain) {
                c ^= c >> 13;
                c *= 0x9e3779b97f4a7c15ULL;
            }
        }
        std::uint64_t folded = 0;
        for (std::uint64_t c : chain)
            folded ^= c;
        sink_ = folded;
        return timer.seconds();
    }

    std::uint32_t *slot_ = nullptr;
    mutable std::uint32_t at_ = 0;
    mutable volatile std::uint64_t sink_ = 0;
};

/** Set-up timing of one repetition. */
struct SetupTimes
{
    double buildS = 0.0;
    double bindS = 0.0;
};

/** Elaborate every design in @p designs afresh and bind its assertions. */
SetupTimes
setUp(std::vector<DesignUnderTest> &designs)
{
    SetupTimes t;
    trace::Span setup_span("bench.setup", "bench");
    for (DesignUnderTest &d : designs) {
        cpu::BugConfig bugs;
        if (d.variant != Variant::Clean)
            bugs.set(bugId(d.bug), d.variant == Variant::Buggy
                                       ? cpu::BugState::Present
                                       : cpu::BugState::Patched);
        Timer build;
        {
            trace::Span span("bench.cpu_build", "bench");
            d.design = std::make_unique<rtl::Design>(
                elaborate(d.processor, bugs));
        }
        t.buildS += build.seconds();
        Timer bind;
        {
            trace::Span span("bench.props_bind", "bench");
            d.assertions = bindAssertions(d.processor, *d.design);
        }
        t.bindS += bind.seconds();
    }
    return t;
}

/** The assertion the campaign targets for a bug: the first one linked to
 *  it (campaign::runJob's selection when the spec names none). */
const props::Assertion &
assertionFor(const DesignUnderTest &d, const std::string &bug)
{
    for (const props::Assertion &a : d.assertions) {
        if (a.bugId == bug)
            return a;
    }
    usage("no assertion for " + bug + " on " +
          cpu::processorName(d.processor));
}

/** §II-E1 preconditions per core, as campaign::runJob applies them. */
bse::PreconditionFn
preconditionsFor(cpu::Processor processor, const rtl::Design &design)
{
    return processor == cpu::Processor::PulpinoRi5cy
               ? bench::rv32Preconditions()
               : bench::or1kPreconditions(design);
}

core::CoppeliaOptions
exploitOptions(const campaign::CampaignSpec &spec, cpu::Processor processor,
               const rtl::Design &design, std::uint64_t seed)
{
    core::CoppeliaOptions opts;
    opts.addPayload = spec.addPayload;
    opts.validateByReplay = spec.validateByReplay;
    opts.simBackend = spec.simBackend;
    opts.engine.bound = spec.bound;
    opts.engine.maxFeedbackRounds = spec.maxFeedbackRounds;
    opts.engine.timeLimitSeconds = spec.jobTimeLimitSeconds;
    opts.engine.preconditions = preconditionsFor(processor, design);
    opts.engine.explorer.seed = seed;
    opts.engine.incrementalSolver = spec.incrementalSolver;
    opts.engine.solverConflictBudget = spec.solverConflictBudget;
    opts.engine.solverRewrite = spec.solverRewrite;
    opts.engine.solverPreprocess = spec.solverPreprocess;
    opts.engine.solverMinimize = spec.solverMinimize;
    opts.engine.solverThreads = spec.solverThreads;
    opts.engine.solverPortfolio = spec.solverPortfolio;
    opts.engine.solverCubeBudget = spec.solverCubeBudget;
    opts.engine.solverAdaptive = spec.solverAdaptive;
    return opts;
}

bmc::BmcOptions
bmcOptions(const campaign::CampaignSpec &spec, const OpSpec &op)
{
    bmc::BmcOptions opts;
    opts.preset =
        op.kind == Kind::Ifv ? bmc::Preset::IfvLike : bmc::Preset::EbmcLike;
    opts.maxBound = op.bound > 0 ? op.bound : spec.bmcMaxBound;
    opts.simBackend = spec.simBackend;
    opts.timeLimitSeconds = spec.jobTimeLimitSeconds;
    opts.incrementalSolver = spec.incrementalSolver;
    opts.solverConflictBudget = spec.solverConflictBudget;
    opts.solverRewrite = spec.solverRewrite;
    opts.solverPreprocess = spec.solverPreprocess;
    opts.solverMinimize = spec.solverMinimize;
    opts.solverThreads = spec.solverThreads;
    opts.solverPortfolio = spec.solverPortfolio;
    opts.solverCubeBudget = spec.solverCubeBudget;
    opts.solverAdaptive = spec.solverAdaptive;
    if (op.processor == cpu::Processor::PulpinoRi5cy) {
        opts.insnConstraint = [](smt::TermManager &tm, smt::TermRef v) {
            return cpu::riscv::rvLegalInsnConstraint(tm, v);
        };
    } else {
        opts.insnConstraint = [](smt::TermManager &tm, smt::TermRef v) {
            return cpu::or1k::legalInsnConstraint(tm, v);
        };
    }
    return opts;
}

/** Fuzz-kind options as campaign::runJob sets them; the hand-off to the
 *  BSEE is a separate stage the benchmark does not drive. */
fuzz::FuzzOptions
fuzzOptions(const campaign::CampaignSpec &spec, std::uint64_t seed)
{
    fuzz::FuzzOptions opts;
    opts.seed = seed;
    opts.maxExecs = spec.fuzzExecs;
    opts.maxStreamLen = spec.fuzzMaxStream;
    opts.backend = spec.simBackend;
    opts.timeLimitSeconds = spec.jobTimeLimitSeconds;
    return opts;
}

json::Value
statsJson(const StatGroup &stats)
{
    json::Value out = json::Value::object();
    for (const auto &[name, value] : stats.all())
        out.set(name, json::Value::number(value));
    return out;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

/** Run one op; returns its record (what it returned plus its wall and
 *  CPU time). */
json::Value
runOp(const campaign::CampaignSpec &spec, const OpSpec &op,
      const DesignUnderTest &dut)
{
    json::Value rec = json::Value::object();
    rec.set("op", json::Value::string(op.text));
    const double cpu_start = cpuSeconds();
    Timer timer;
    trace::Span span("bench.op", "bench");
    switch (op.kind) {
      case Kind::Exploit: {
          core::Coppelia tool(
              *dut.design, op.processor,
              exploitOptions(spec, op.processor, *dut.design, op.seed));
          const core::ExploitResult res =
              tool.generateExploit(assertionFor(dut, op.bug));
          span.close();
          rec.set("s", json::Value::number(timer.seconds()));
          rec.set("outcome",
                  json::Value::string(bse::outcomeName(res.outcome)));
          rec.set("replayable",
                  json::Value::boolean(res.found() && res.replayable()));
          rec.set("incomplete", json::Value::boolean(res.solverIncomplete));
          rec.set("iterations", json::Value::number(res.iterations));
          rec.set("stats", statsJson(res.stats));
          break;
      }
      case Kind::Ifv:
      case Kind::Ebmc: {
          const bmc::BmcResult res = bmc::checkAssertion(
              *dut.design, assertionFor(dut, op.bug), bmcOptions(spec, op));
          span.close();
          rec.set("s", json::Value::number(timer.seconds()));
          rec.set("outcome", json::Value::string(res.found ? "found"
                                                           : "no-violation"));
          rec.set("replayable", json::Value::boolean(res.replayableFromReset));
          rec.set("incomplete", json::Value::boolean(res.solverIncomplete));
          rec.set("depth", json::Value::number(res.depth));
          rec.set("stats", statsJson(res.stats));
          break;
      }
      case Kind::Fuzz: {
          const fuzz::FuzzOptions opts = fuzzOptions(spec, op.seed);
          fuzz::Fuzzer fuzzer(*dut.design, op.processor, opts);
          const fuzz::FuzzResult res = fuzzer.run();
          span.close();
          rec.set("s", json::Value::number(timer.seconds()));
          rec.set("outcome", json::Value::string(
                                 res.divergences.empty() ? "no-divergence"
                                                         : "divergence"));
          rec.set("full_budget",
                  json::Value::boolean(res.execs >= opts.maxExecs));
          rec.set("execs", json::Value::number(res.execs));
          rec.set("instructions", json::Value::number(res.instructions));
          rec.set("coverage_points",
                  json::Value::number(
                      static_cast<std::uint64_t>(res.coveragePoints)));
          rec.set("corpus_size", json::Value::number(res.corpusSize));
          rec.set("divergences",
                  json::Value::number(
                      static_cast<std::uint64_t>(res.divergences.size())));
          break;
      }
    }
    rec.set("cpu_s", json::Value::number(cpuSeconds() - cpu_start));
    return rec;
}

/** Peak RSS of the process, without the probe's buffer. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return (static_cast<double>(ru.ru_maxrss) * 1024.0 -
            static_cast<double>(HostProbe::bytes())) /
           (1024.0 * 1024.0);
}

/** One pass over every op, in order, with the probe timed before each op
 *  and after the last. The pass's wall and CPU time are its ops' own. */
json::Value
runPass(const campaign::CampaignSpec &spec, const std::vector<OpSpec> &ops,
        const std::vector<DesignUnderTest> &designs, const HostProbe &probe)
{
    json::Value pass = json::Value::object();
    json::Value records = json::Value::array();
    json::Value probes = json::Value::array();
    double wall_s = 0.0;
    double cpu_s = 0.0;
    for (const OpSpec &op : ops) {
        probes.push(probe.sample());
        json::Value rec = runOp(spec, op, designs[op.design]);
        wall_s += rec.find("s")->asNumber();
        cpu_s += rec.find("cpu_s")->asNumber();
        records.push(std::move(rec));
    }
    probes.push(probe.sample());
    pass.set("wall_s", json::Value::number(wall_s));
    pass.set("cpu_s", json::Value::number(cpu_s));
    pass.set("probe_s", std::move(probes));
    pass.set("ops", std::move(records));
    return pass;
}

json::Value
setupJson(const SetupTimes &t)
{
    json::Value out = json::Value::object();
    out.set("build_s", json::Value::number(t.buildS));
    out.set("bind_s", json::Value::number(t.bindS));
    return out;
}

/** @p reps set-ups of @p designs in kChunks runs, with the probe timed
 *  before each run and after the last. */
json::Value
repeatSetUp(std::vector<DesignUnderTest> &designs, std::size_t reps,
            const HostProbe &probe)
{
    constexpr std::size_t kChunks = 20;
    const std::size_t chunk = (reps + kChunks - 1) / kChunks;
    json::Value times = json::Value::array();
    json::Value probes = json::Value::array();
    for (std::size_t r = 0; r < reps; ++r) {
        if (r % chunk == 0)
            probes.push(probe.sample());
        times.push(setupJson(setUp(designs)));
    }
    probes.push(probe.sample());
    json::Value out = json::Value::object();
    out.set("reps", std::move(times));
    out.set("probe_s", std::move(probes));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool traced = false;
    std::vector<OpSpec> ops;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--seed") {
            seed = std::strtoull(value().c_str(), nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            seconds = std::atof(value().c_str());
        } else if (arg == "--trace") {
            traced = true;
        } else if (arg.rfind("--", 0) == 0) {
            usage("unknown option '" + arg + "'");
        } else {
            ops.push_back(parseOp(arg));
        }
    }
    if (!have_seed || seconds <= 0.0 || ops.empty())
        usage("need --seed, --seconds > 0 and an op");

    // One design per distinct (core, bug, variant); ops share them.
    std::vector<DesignUnderTest> designs;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        OpSpec &op = ops[i];
        op.seed = campaign::deriveJobSeed(seed, static_cast<int>(i), 0);
        auto same = [&op](const DesignUnderTest &d) {
            return d.processor == op.processor && d.bug == op.bug &&
                   d.variant == op.variant;
        };
        auto it = std::find_if(designs.begin(), designs.end(), same);
        op.design = static_cast<std::size_t>(it - designs.begin());
        if (it == designs.end())
            designs.push_back({op.processor, op.bug, op.variant, nullptr, {}});
    }

    const campaign::CampaignSpec spec;
    const HostProbe probe;
    json::Value out = json::Value::object();
    // Set-up takes milliseconds and the host's speed moves on a scale of
    // seconds, so set-up repeats for about a second and its median is
    // reported. The count follows from the op list alone: the heap the
    // ops start from, and with it the peak RSS, must not depend on the
    // host's speed.
    out.set("setup", repeatSetUp(designs, 6000 / designs.size() + 1, probe));

    // Whole passes while another one as long as the last still ends
    // inside the budget. A traced run needs one untraced pass, the
    // reference its trace overhead is measured against.
    json::Value passes = json::Value::array();
    Timer budget;
    double pass_s = 0.0;
    do {
        Timer elapsed;
        passes.push(runPass(spec, ops, designs, probe));
        pass_s = elapsed.seconds();
        // The peak of set-up and one pass. Later passes only fragment the
        // heap further, and how many run depends on the host's speed.
        if (passes.items().size() == 1)
            out.set("peak_rss_mb", json::Value::number(peakRssMb()));
    } while (!traced && budget.seconds() + pass_s <= seconds);
    out.set("passes", std::move(passes));

    if (traced) {
        trace::clear();
        trace::setEnabled(true);
        json::Value traced_out = json::Value::object();
        traced_out.set("setup", repeatSetUp(designs, 1, probe));
        traced_out.set("pass", runPass(spec, ops, designs, probe));
        trace::setEnabled(false);
        const trace::FoldReport fold = trace::foldLive();
        json::Value rows = json::Value::object();
        for (const trace::FoldRow &row : fold.rows) {
            json::Value r = json::Value::object();
            r.set("count", json::Value::number(row.count));
            r.set("total_us", json::Value::number(row.totalUs));
            r.set("self_us", json::Value::number(row.selfUs));
            rows.set(row.name, std::move(r));
        }
        traced_out.set("fold", std::move(rows));
        traced_out.set("spans", json::Value::number(fold.spanCount));
        traced_out.set("dropped_events",
                       json::Value::number(trace::droppedEventCount()));
        out.set("traced", std::move(traced_out));
    }

    std::printf("%s\n", out.dump().c_str());
    return 0;
}
