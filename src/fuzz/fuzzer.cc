#include "fuzz/fuzzer.hh"

#include <string>
#include <unordered_set>

#include "bse/recorder.hh"
#include "cpu/or1k/isa.hh"
#include "cpu/riscv/isa.hh"
#include "metrics/metrics.hh"
#include "trace/trace.hh"
#include "util/timer.hh"

namespace coppelia::fuzz
{

namespace
{

/** Corpus cap; the oldest entries are culled past it. */
constexpr std::size_t kMaxCorpus = 256;
/** Distinct divergences recorded before the run stops recording more. */
constexpr std::size_t kMaxDivergences = 8;

} // namespace

Fuzzer::Fuzzer(const rtl::Design &design, cpu::Processor processor,
               FuzzOptions opts)
    : design_(design), opts_(opts), gen_(processor),
      oracle_(design, processor), coverage_(design), rng_(opts.seed)
{
    oracle_.system().sim().setObserver(&coverage_);
    coverage_.syncState(oracle_.system().sim());
}

Fuzzer::~Fuzzer()
{
    oracle_.system().sim().setObserver(nullptr);
}

std::optional<Divergence>
Fuzzer::execute(const std::vector<std::uint32_t> &stream)
{
    oracle_.reset();
    // Reset jumps every register to its reset value; re-seed the toggle
    // shadow so the jump is not counted as coverage.
    coverage_.syncState(oracle_.system().sim());
    ++execs_;
    for (std::uint32_t insn : stream) {
        ++instructions_;
        if (auto d = oracle_.stepCompare(insn))
            return d;
    }
    return std::nullopt;
}

std::string
Fuzzer::divergenceKey(const Divergence &d) const
{
    const std::uint32_t op =
        gen_.processor() == cpu::Processor::PulpinoRi5cy
            ? cpu::riscv::rvOpcode(d.insn)
            : cpu::or1k::opcodeOf(d.insn);
    return d.field + ":" + std::to_string(op);
}

std::vector<std::uint32_t>
Fuzzer::minimize(std::vector<std::uint32_t> stream, Divergence &d)
{
    // Trim: nothing past the diverging cycle matters.
    if (d.cycle + 1 < static_cast<int>(stream.size()))
        stream.resize(static_cast<std::size_t>(d.cycle) + 1);

    const std::string field = d.field;
    auto stillDiverges = [&](const std::vector<std::uint32_t> &cand,
                             Divergence &out) {
        auto r = execute(cand);
        if (r && r->field == field) {
            out = *r;
            return true;
        }
        return false;
    };

    // Greedy deletion to a fixpoint.
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 0; i < stream.size() && stream.size() > 1;
             ++i) {
            std::vector<std::uint32_t> cand = stream;
            cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
            Divergence nd;
            if (stillDiverges(cand, nd)) {
                stream = std::move(cand);
                d = nd;
                changed = true;
                break;
            }
        }
    }

    // NOP substitution: neutralize words whose effect is incidental.
    const std::uint32_t nop = gen_.nop();
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (stream[i] == nop)
            continue;
        std::vector<std::uint32_t> cand = stream;
        cand[i] = nop;
        Divergence nd;
        if (stillDiverges(cand, nd)) {
            stream = std::move(cand);
            d = nd;
        }
    }

    // Leave both models in the minimized stream's final state and make
    // sure the recorded divergence is the one this exact stream produces.
    Divergence nd;
    if (stillDiverges(stream, nd))
        d = nd;
    return stream;
}

FuzzResult
Fuzzer::run()
{
    static metrics::Counter *execs_total = metrics::counter(
        "fuzz_execs_total", "Instruction streams executed by the fuzzer");
    static metrics::Counter *divergences_total = metrics::counter(
        "fuzz_divergences", "Distinct ISS-vs-RTL divergences found");
    static metrics::Gauge *corpus_gauge = metrics::gauge(
        "fuzz_corpus_size", "Streams currently kept in the fuzz corpus");
    static metrics::Gauge *coverage_gauge = metrics::gauge(
        "fuzz_coverage_points", "Coverage points hit by the fuzzer");

    Timer timer;
    FuzzResult res;
    std::unordered_set<std::string> seen;
    const int start_execs = execs_;

    auto exhausted = [&] {
        if (opts_.maxExecs > 0 && execs_ - start_execs >= opts_.maxExecs)
            return true;
        if (opts_.timeLimitSeconds > 0.0 &&
            timer.seconds() >= opts_.timeLimitSeconds)
            return true;
        return false;
    };

    while (!exhausted()) {
        // Schedule: mostly mutate a corpus parent; sometimes splice two
        // parents or start fresh (always fresh while the corpus is empty).
        std::vector<std::uint32_t> stream;
        if (corpus_.empty() || rng_.below(8) == 0) {
            stream = gen_.randomStream(rng_, opts_.maxStreamLen);
        } else {
            const auto &parent = corpus_[rng_.below(corpus_.size())];
            if (corpus_.size() >= 2 && rng_.below(4) == 0) {
                const auto &other = corpus_[rng_.below(corpus_.size())];
                stream =
                    gen_.splice(parent, other, rng_, opts_.maxStreamLen);
            } else {
                stream = gen_.mutate(parent, rng_, opts_.maxStreamLen);
            }
        }
        gen_.scrub(stream);
        if (stream.empty())
            continue;

        const std::size_t before = coverage_.coveredPoints();
        auto d = execute(stream);
        execs_total->inc();

        // AFL-style culling: a stream earns a corpus slot only by hitting
        // a point no earlier stream hit.
        if (coverage_.coveredPoints() > before) {
            corpus_.push_back(stream);
            if (corpus_.size() > kMaxCorpus)
                corpus_.erase(corpus_.begin());
            // Coverage-over-time checkpoint for the forensics stream:
            // one event per coverage step traces the plateau shape
            // without per-exec volume.
            bse::recorder::event("coverage", "", -1,
                                 static_cast<std::uint64_t>(execs_ -
                                                            start_execs),
                                 coverage_.coveredPoints());
        }

        if (d) {
            const std::string key = divergenceKey(*d);
            if (seen.insert(key).second &&
                res.divergences.size() < kMaxDivergences) {
                FuzzDivergence fd;
                fd.rawLength = d->cycle + 1;
                Divergence dm = *d;
                fd.stream = minimize(stream, dm);
                fd.divergence = dm;
                bse::recorder::event(
                    "divergence",
                    bse::recorder::enabled()
                        ? trace::internString(dm.field)
                        : "",
                    -1,
                    static_cast<std::uint64_t>(execs_ - start_execs),
                    coverage_.coveredPoints());
                res.divergences.push_back(std::move(fd));
                divergences_total->inc();
            }
        }

        corpus_gauge->set(static_cast<double>(corpus_.size()));
        coverage_gauge->set(
            static_cast<double>(coverage_.coveredPoints()));
        metrics::heartbeat("fuzz",
                           static_cast<std::uint64_t>(execs_ - start_execs),
                           coverage_.coveredPoints());
    }

    // Terminal checkpoint: the timeline's last point is the run's final
    // coverage even when the last executions found nothing new.
    bse::recorder::event("coverage", "", -1,
                         static_cast<std::uint64_t>(execs_ - start_execs),
                         coverage_.coveredPoints());
    res.execs = execs_ - start_execs;
    res.instructions = instructions_;
    res.corpusSize = static_cast<int>(corpus_.size());
    res.coveragePoints = coverage_.coveredPoints();
    res.coverageTotal = coverage_.totalPoints();
    res.seconds = timer.seconds();
    return res;
}

} // namespace coppelia::fuzz
