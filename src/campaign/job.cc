#include "campaign/job.hh"

#include <algorithm>

#include "bmc/bmc.hh"
#include "bse/recorder.hh"
#include "core/coppelia.hh"
#include "cpu/or1k/core.hh"
#include "cpu/riscv/core.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/handoff.hh"
#include "solver/querylog.hh"
#include "trace/trace.hh"
#include "util/timer.hh"

namespace coppelia::campaign
{

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
      case JobStatus::Completed: return "completed";
      case JobStatus::NoAssertion: return "no-assertion";
      case JobStatus::Cancelled: return "cancelled";
    }
    return "?";
}

std::uint64_t
deriveJobSeed(std::uint64_t base, int index, int attempt)
{
    // splitmix64 over (base, index, attempt): decorrelated streams per
    // job. Only the fuzzer's mutations read them.
    std::uint64_t x = base + 0x9e3779b97f4a7c15ull *
                                 (static_cast<std::uint64_t>(index) * 131ull +
                                  static_cast<std::uint64_t>(attempt) + 1ull);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

namespace
{

/** Build the job's design; each job owns its elaboration. */
rtl::Design
buildDesign(const JobSpec &job)
{
    const cpu::BugConfig bugs = cpu::BugConfig::with(job.bug);
    switch (job.processor) {
      case cpu::Processor::OR1200:
        return cpu::or1k::buildOr1200(bugs);
      case cpu::Processor::Mor1kxEspresso:
        return cpu::or1k::buildMor1kx(bugs);
      case cpu::Processor::PulpinoRi5cy:
        return cpu::riscv::buildRi5cy(bugs);
    }
    return cpu::or1k::buildOr1200(bugs);
}

std::vector<props::Assertion>
buildAssertions(const JobSpec &job, rtl::Design &design)
{
    switch (job.processor) {
      case cpu::Processor::OR1200:
        return cpu::or1k::or1200Assertions(design);
      case cpu::Processor::Mor1kxEspresso:
        return cpu::or1k::mor1kxAssertions(design);
      case cpu::Processor::PulpinoRi5cy:
        return cpu::riscv::ri5cyAssertions(design);
    }
    return {};
}

const props::Assertion *
selectAssertion(const JobSpec &job,
                const std::vector<props::Assertion> &asserts)
{
    const std::string bug = cpu::bugName(job.bug);
    for (const props::Assertion &a : asserts) {
        if (!job.assertionId.empty()) {
            if (a.id == job.assertionId)
                return &a;
        } else if (a.bugId == bug) {
            return &a;
        }
    }
    return nullptr;
}

/** Preconditions per processor (§II-E1 parity across every job). */
bse::PreconditionFn
preconditionsFor(const JobSpec &job, const rtl::Design &design)
{
    const rtl::Design *d = &design;
    if (job.processor == cpu::Processor::PulpinoRi5cy) {
        return [](smt::TermManager &tm, const sym::BoundState &bs)
                   -> std::vector<smt::TermRef> {
            for (const auto &[sig, var] : bs.inputVars) {
                (void)sig;
                if (tm.varWidth(tm.term(var).varId) == 32)
                    return {cpu::riscv::rvLegalInsnConstraint(tm, var)};
            }
            return {};
        };
    }
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

double
jobTimeLimit(const CampaignSpec &spec, const JobSpec &job)
{
    return job.timeLimitSeconds > 0.0 ? job.timeLimitSeconds
                                      : spec.jobTimeLimitSeconds;
}

JobResult
runExploitJob(const CampaignSpec &spec, const JobSpec &job,
              const rtl::Design &design, const props::Assertion &assertion,
              std::uint64_t seed, const CancelToken *cancel)
{
    core::CoppeliaOptions opts;
    opts.addPayload = spec.addPayload;
    opts.validateByReplay = spec.validateByReplay;
    opts.engine.bound = spec.bound;
    opts.engine.maxFeedbackRounds = spec.maxFeedbackRounds;
    opts.engine.timeLimitSeconds = jobTimeLimit(spec, job);
    opts.engine.preconditions = preconditionsFor(job, design);
    opts.engine.explorer.seed = seed;
    opts.engine.incrementalSolver = spec.incrementalSolver;
    opts.engine.solverConflictBudget = spec.solverConflictBudget;
    opts.engine.solverMinimize = spec.solverMinimize;

    core::Coppelia tool(design, job.processor, opts);
    core::ExploitResult res = tool.generateExploit(assertion);

    JobResult out;
    out.outcome = res.outcome;
    out.found = res.found();
    out.replayable = res.found() && res.replayable();
    out.triggerInstructions = res.triggerInstructions;
    out.iterations = res.iterations;
    out.solverIncomplete = res.solverIncomplete;
    out.seconds = res.seconds;
    out.stats = res.stats;
    if (cancel && cancel->cancelled())
        out.status = JobStatus::Cancelled;
    return out;
}

JobResult
runBmcJob(const CampaignSpec &spec, const JobSpec &job,
          const rtl::Design &design, const props::Assertion &assertion,
          const CancelToken *cancel)
{
    bmc::BmcOptions opts;
    opts.preset = job.kind == JobKind::BmcIfv ? bmc::Preset::IfvLike
                                              : bmc::Preset::EbmcLike;
    opts.maxBound = spec.bmcMaxBound;
    opts.timeLimitSeconds = jobTimeLimit(spec, job);
    opts.incrementalSolver = spec.incrementalSolver;
    opts.solverConflictBudget = spec.solverConflictBudget;
    opts.solverMinimize = spec.solverMinimize;
    if (job.processor == cpu::Processor::PulpinoRi5cy) {
        opts.insnConstraint = [](smt::TermManager &tm, smt::TermRef v) {
            return cpu::riscv::rvLegalInsnConstraint(tm, v);
        };
    } else {
        opts.insnConstraint = [](smt::TermManager &tm, smt::TermRef v) {
            return cpu::or1k::legalInsnConstraint(tm, v);
        };
    }

    bmc::BmcResult res = bmc::checkAssertion(design, assertion, opts);

    JobResult out;
    out.found = res.found;
    out.bmcDepth = res.depth;
    out.bmcReplayableFromReset = res.replayableFromReset;
    out.solverIncomplete = res.solverIncomplete;
    out.replayable = res.found && res.replayableFromReset;
    out.triggerInstructions = res.found ? res.depth : 0;
    out.seconds = res.seconds;
    out.stats = res.stats;
    if (cancel && cancel->cancelled())
        out.status = JobStatus::Cancelled;
    return out;
}

JobResult
runFuzzJob(const CampaignSpec &spec, const JobSpec &job,
           const rtl::Design &design, const props::Assertion *assertion,
           std::uint64_t seed, const CancelToken *cancel)
{
    fuzz::FuzzOptions opts;
    opts.seed = seed;
    opts.maxExecs = spec.fuzzExecs;
    opts.maxStreamLen = spec.fuzzMaxStream;
    opts.timeLimitSeconds = jobTimeLimit(spec, job);
    if (cancel)
        opts.stopRequested = [cancel] { return cancel->cancelled(); };

    fuzz::Fuzzer fuzzer(design, job.processor, opts);
    const fuzz::FuzzResult res = fuzzer.run();

    JobResult out;
    out.fuzzExecs = res.execs;
    out.fuzzInstructions = res.instructions;
    out.fuzzCorpusSize = res.corpusSize;
    out.fuzzCoveragePoints = res.coveragePoints;
    out.fuzzCoverageTotal = res.coverageTotal;
    out.fuzzDivergences = static_cast<int>(res.divergences.size());
    // A divergence is a found bug; the minimized stream was re-verified
    // by concrete replay during minimization, so it is replayable.
    out.found = !res.divergences.empty();
    out.replayable = out.found;
    if (out.found)
        out.triggerInstructions =
            static_cast<int>(res.divergences.front().stream.size());
    for (const fuzz::FuzzDivergence &d : res.divergences)
        out.fuzzStreams.push_back(d.stream);
    out.seconds = res.seconds;

    // Concolic hand-off: when the bug has an assertion, run a
    // short-horizon BSEE search from the highest-proximity corpus states.
    const bool cancelled = cancel && cancel->cancelled();
    if (assertion && spec.fuzzHandoffs > 0 && !cancelled) {
        fuzz::ConcolicBridge bridge(design, job.processor, *assertion);
        std::vector<std::pair<int, const std::vector<std::uint32_t> *>>
            ranked;
        for (const auto &entry : fuzzer.corpus())
            ranked.emplace_back(
                bridge.proximity(bridge.stateAfter(entry)), &entry);
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const auto &a, const auto &b) {
                             return a.first > b.first;
                         });

        fuzz::HandoffOptions hopts;
        hopts.bound = std::min(spec.bound, hopts.bound);
        hopts.timeLimitSeconds = jobTimeLimit(spec, job) / 4.0;

        bse::Options base;
        base.maxFeedbackRounds = spec.maxFeedbackRounds;
        base.preconditions = preconditionsFor(job, design);
        base.explorer.seed = seed;
        base.incrementalSolver = spec.incrementalSolver;
        base.solverConflictBudget = spec.solverConflictBudget;
        base.solverMinimize = spec.solverMinimize;

        int attempts = 0;
        for (const auto &[prox, prefix] : ranked) {
            if (attempts >= spec.fuzzHandoffs || prox <= 0)
                break;
            if (cancel && cancel->cancelled())
                break;
            ++attempts;
            const fuzz::HandoffOutcome ho =
                bridge.attempt(*prefix, hopts, base);
            bse::recorder::event("handoff", "", -1, ho.fired ? 1 : 0);
            if (ho.fired) {
                ++out.fuzzHandoffs;
                out.found = true;
                out.replayable = true;
                const int combined = static_cast<int>(
                    ho.prefix.size() + ho.suffix.size());
                if (out.triggerInstructions == 0 ||
                    combined < out.triggerInstructions)
                    out.triggerInstructions = combined;
            }
        }
    }

    if (cancel && cancel->cancelled())
        out.status = JobStatus::Cancelled;
    return out;
}

} // namespace

JobResult
runJob(const CampaignSpec &spec, const JobSpec &job, std::uint64_t seed,
       const CancelToken *cancel)
{
    // The job span nests the whole cell — elaboration, assertion binding,
    // search, replay — on the executing worker's track; a campaign with
    // tracing on renders as one timeline of these per worker.
    const std::size_t trace_before = trace::enabled()
                                         ? trace::threadEventCount()
                                         : 0;
    trace::Span job_span(
        trace::enabled()
            ? trace::internString(std::string(jobKindName(job.kind)) + ":" +
                                  cpu::bugName(job.bug))
            : "campaign.job",
        "campaign");
    Timer timer;
    JobResult out;
    {
        trace::Span elaborate_span("hdl.elaborate", "hdl");
        rtl::Design design = buildDesign(job);
        elaborate_span.close();

        trace::Span bind_span("rtl.assertions", "rtl");
        std::vector<props::Assertion> asserts =
            buildAssertions(job, design);
        const props::Assertion *assertion = selectAssertion(job, asserts);
        bind_span.close();

        // Query-log origin: every solver record this thread emits for the
        // rest of the job names the assertion it serves. Interned — the
        // context pointer outlives the job's own strings.
        if (assertion)
            smt::querylog::context().origin =
                trace::internString(assertion->id);

        if (job.kind == JobKind::Fuzz) {
            // The fuzzer's divergence oracle needs no assertion; one only
            // gates the concolic hand-off stage.
            out = runFuzzJob(spec, job, design, assertion, seed, cancel);
            if (assertion)
                out.assertionId = assertion->id;
        } else if (!assertion) {
            out.status = JobStatus::NoAssertion;
        } else {
            out = job.kind == JobKind::Exploit
                      ? runExploitJob(spec, job, design, *assertion, seed,
                                      cancel)
                      : runBmcJob(spec, job, design, *assertion, cancel);
            out.assertionId = assertion->id;
        }
    }
    // Charge elaboration + assertion binding to the job, not just the
    // engine: the campaign's wall-clock accounting covers the whole cell.
    out.seconds = timer.seconds();
    smt::querylog::context().origin = "";
    job_span.close();
    if (trace::enabled())
        out.traceEvents = trace::threadEventCount() - trace_before;
    return out;
}

} // namespace coppelia::campaign
