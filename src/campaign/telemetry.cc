#include "campaign/telemetry.hh"

#include <algorithm>
#include <map>
#include <ostream>

#include "bse/engine.hh"
#include "util/strutil.hh"
#include "util/timer.hh"

namespace coppelia::campaign
{

const std::vector<JsonlField> &
jsonlSchema()
{
    static const std::vector<JsonlField> schema{
        {"schema_version", "JSONL record schema version "
                           "(kJsonlSchemaVersion; see telemetry.hh)"},
        {"job", "job index within the expanded campaign matrix"},
        {"kind", "job kind: exploit, bmc-ifv, bmc-ebmc, or fuzz"},
        {"processor", "processor the design was elaborated for"},
        {"bug", "bug id from the registry (bNN)"},
        {"assertion", "assertion id actually targeted"},
        {"status", "how the job ran: completed or no-assertion (what it "
                   "found is in outcome/found)"},
        {"outcome", "engine outcome (exploit kind only): found, "
                    "no-violation, bound-exceeded, budget-exhausted"},
        {"found", "a violation was found"},
        {"replayable", "the exploit replayed on the concrete simulator"},
        {"solver_incomplete", "a solver query stayed Unknown; negative "
                              "results are inconclusive"},
        {"trigger_instructions", "trigger length in instructions"},
        {"iterations", "backward-engine iterations (exploit kind only)"},
        {"bmc_depth", "unrolling depth reached (baseline kinds only)"},
        {"fuzz_execs", "instruction streams executed (fuzz kind only)"},
        {"fuzz_instructions",
         "lockstep instructions executed (fuzz kind only)"},
        {"fuzz_corpus_size", "streams kept in the corpus (fuzz kind only)"},
        {"fuzz_coverage_points",
         "coverage points hit (fuzz kind only)"},
        {"fuzz_coverage_total",
         "coverage points instrumented (fuzz kind only)"},
        {"fuzz_divergences",
         "distinct ISS-vs-RTL divergences found (fuzz kind only)"},
        {"fuzz_handoffs",
         "concolic hand-offs that produced a replayable trigger "
         "(fuzz kind only)"},
        {"fuzz_streams",
         "minimized replayable streams, one array of hex instruction "
         "words per divergence (fuzz kind only)"},
        {"seconds", "end-to-end job wall-clock seconds"},
        {"worker", "worker thread that ran the job"},
        {"seed", "the job's derived RNG seed (decimal string); only "
                 "fuzz jobs read it"},
        {"trace_events", "trace events emitted by this job (0 when "
                         "tracing is disabled)"},
        {"queries_jsonl", "per-job solver query-log artifact path "
                          "(only when the campaign wrote artifacts)"},
        {"search_jsonl", "per-job search-recorder artifact path "
                         "(only when the campaign wrote artifacts)"},
        {"stats", "solver/search work counters (object; counter names "
                  "are additive but individually unstable)"},
    };
    return schema;
}

json::Value
recordToJson(const JobRecord &record)
{
    const JobResult &r = record.result;
    json::Value v = json::Value::object();
    v.set("schema_version", json::Value::number(kJsonlSchemaVersion));
    v.set("job", json::Value::number(record.jobIndex));
    v.set("kind", json::Value::string(jobKindName(record.spec.kind)));
    v.set("processor", json::Value::string(
                           cpu::processorName(record.spec.processor)));
    v.set("bug", json::Value::string(cpu::bugName(record.spec.bug)));
    v.set("assertion", json::Value::string(record.spec.assertionId));
    v.set("status", json::Value::string(jobStatusName(r.status)));
    if (record.spec.kind == JobKind::Exploit)
        v.set("outcome", json::Value::string(bse::outcomeName(r.outcome)));
    v.set("found", json::Value::boolean(r.found));
    v.set("replayable", json::Value::boolean(r.replayable));
    v.set("solver_incomplete", json::Value::boolean(r.solverIncomplete));
    v.set("trigger_instructions",
          json::Value::number(r.triggerInstructions));
    if (record.spec.kind == JobKind::Exploit) {
        v.set("iterations", json::Value::number(r.iterations));
    } else if (record.spec.kind == JobKind::Fuzz) {
        v.set("fuzz_execs", json::Value::number(r.fuzzExecs));
        v.set("fuzz_instructions",
              json::Value::number(r.fuzzInstructions));
        v.set("fuzz_corpus_size", json::Value::number(r.fuzzCorpusSize));
        v.set("fuzz_coverage_points",
              json::Value::number(r.fuzzCoveragePoints));
        v.set("fuzz_coverage_total",
              json::Value::number(r.fuzzCoverageTotal));
        v.set("fuzz_divergences", json::Value::number(r.fuzzDivergences));
        v.set("fuzz_handoffs", json::Value::number(r.fuzzHandoffs));
        json::Value streams = json::Value::array();
        for (const std::vector<std::uint32_t> &stream : r.fuzzStreams) {
            json::Value words = json::Value::array();
            for (std::uint32_t w : stream) {
                char buf[16];
                std::snprintf(buf, sizeof(buf), "%08x", w);
                words.push(json::Value::string(buf));
            }
            streams.push(std::move(words));
        }
        v.set("fuzz_streams", std::move(streams));
    } else {
        v.set("bmc_depth", json::Value::number(r.bmcDepth));
    }
    v.set("seconds", json::Value::number(r.seconds));
    v.set("worker", json::Value::number(record.workerId));
    // As a string: a 64-bit seed does not round-trip through a double.
    v.set("seed", json::Value::string(std::to_string(record.seed)));
    v.set("trace_events", json::Value::number(r.traceEvents));
    if (!r.queriesArtifact.empty())
        v.set("queries_jsonl", json::Value::string(r.queriesArtifact));
    if (!r.searchArtifact.empty())
        v.set("search_jsonl", json::Value::string(r.searchArtifact));
    json::Value stats = json::Value::object();
    for (const auto &[name, count] : r.stats.all())
        stats.set(name, json::Value::number(count));
    v.set("stats", stats);
    return v;
}

void
writeJsonlRecord(std::ostream &out, const JobRecord &record)
{
    out << recordToJson(record).dump() << "\n";
}

namespace
{

void
row(std::ostream &out, const std::vector<std::string> &cells,
    const std::vector<int> &widths)
{
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const int w = i < widths.size() ? widths[i] : 12;
        line += padRight(cells[i], static_cast<std::size_t>(w)) + " ";
    }
    out << line << "\n";
}

void
rule(std::ostream &out, const std::vector<int> &widths)
{
    std::size_t total = 0;
    for (int w : widths)
        total += static_cast<std::size_t>(w) + 1;
    out << std::string(total, '-') << "\n";
}

std::string
fmtPpr(int v)
{
    return v < 0 ? std::string("-") : std::to_string(v);
}

std::string
fmt1(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

/** The per-bug cells of one processor's matrix. */
struct BugRow
{
    const JobRecord *exploit = nullptr;
    const JobRecord *ifv = nullptr;
    const JobRecord *ebmc = nullptr;
};

} // namespace

void
writeSummary(std::ostream &out, const CampaignSpec &spec,
             const std::vector<JobRecord> &records,
             const SchedulerReport &report)
{
    out << "campaign '" << spec.name << "': " << records.size()
        << " jobs on " << report.workers << " workers, "
        << Timer::formatSeconds(report.wallSeconds)
        << " wall (jsonl schema v" << kJsonlSchemaVersion << ")\n";

    // Group the matrix per processor, joining kinds by bug. Fuzz jobs get
    // their own block below instead of matrix columns.
    std::map<cpu::Processor, std::map<std::string, BugRow>> matrix;
    bool have_baselines = false;
    bool have_fuzz = false;
    for (const JobRecord &r : records) {
        if (r.spec.kind == JobKind::Fuzz) {
            have_fuzz = true;
            continue;
        }
        BugRow &cell =
            matrix[r.spec.processor][cpu::bugName(r.spec.bug)];
        switch (r.spec.kind) {
          case JobKind::Exploit: cell.exploit = &r; break;
          case JobKind::BmcIfv: cell.ifv = &r; have_baselines = true; break;
          case JobKind::BmcEbmc:
            cell.ebmc = &r;
            have_baselines = true;
            break;
          case JobKind::Fuzz: break; // filtered above
        }
    }

    for (const auto &[proc, bugs] : matrix) {
        out << "\n" << cpu::processorName(proc) << "\n";
        std::vector<int> widths{4, 34, 9, 10, 9};
        std::vector<std::string> head{"No.", "Synopsis", "Cop(ppr)",
                                      "Cop(meas)", "rep(meas)"};
        if (have_baselines) {
            for (int w : {9, 10, 9, 10})
                widths.push_back(w);
            for (const char *h :
                 {"IFV(ppr)", "IFV(meas)", "EBMC(ppr)", "EBMC(meas)"})
                head.push_back(h);
        }
        row(out, head, widths);
        rule(out, widths);

        int found = 0, replayable = 0;
        for (const auto &[bug_name, cell] : bugs) {
            const cpu::BugInfo *info = nullptr;
            for (const cpu::BugInfo &b : cpu::bugRegistry()) {
                if (b.name == bug_name) {
                    info = &b;
                    break;
                }
            }
            std::string cop = "-", rep = "-", ifv = "-", ebmc = "-";
            if (cell.exploit && cell.exploit->result.found) {
                ++found;
                cop = std::to_string(
                    cell.exploit->result.triggerInstructions);
                if (cell.exploit->result.replayable) {
                    ++replayable;
                    rep = "yes";
                } else {
                    rep = "no";
                }
            }
            if (cell.ifv && cell.ifv->result.found) {
                ifv = std::to_string(cell.ifv->result.bmcDepth);
                if (!cell.ifv->result.bmcReplayableFromReset)
                    ifv += "*";
            }
            if (cell.ebmc && cell.ebmc->result.found)
                ebmc = std::to_string(cell.ebmc->result.bmcDepth);

            std::vector<std::string> cells{
                bug_name,
                info ? info->description.substr(0, 34) : "",
                info ? fmtPpr(info->paperInstrsCoppelia) : "-", cop, rep};
            if (have_baselines) {
                cells.push_back(info ? fmtPpr(info->paperInstrsCadence)
                                     : "-");
                cells.push_back(ifv);
                cells.push_back(info ? fmtPpr(info->paperInstrsEbmc)
                                     : "-");
                cells.push_back(ebmc);
            }
            row(out, cells, widths);
        }
        rule(out, widths);
        out << "  " << found << " generated, " << replayable
            << " replayable\n";
    }

    if (have_fuzz) {
        out << "\nfuzzing\n";
        const std::vector<int> widths{16, 4, 8, 10, 12, 7, 9};
        row(out,
            {"Processor", "Bug", "execs", "instrs", "coverage", "diverg",
             "handoffs"},
            widths);
        rule(out, widths);
        for (const JobRecord &r : records) {
            if (r.spec.kind != JobKind::Fuzz)
                continue;
            const JobResult &res = r.result;
            std::string coverage =
                std::to_string(res.fuzzCoveragePoints) + "/" +
                std::to_string(res.fuzzCoverageTotal);
            row(out,
                {cpu::processorName(r.spec.processor),
                 cpu::bugName(r.spec.bug),
                 std::to_string(res.fuzzExecs),
                 std::to_string(res.fuzzInstructions), coverage,
                 std::to_string(res.fuzzDivergences),
                 std::to_string(res.fuzzHandoffs)},
                widths);
        }
        rule(out, widths);
    }

    // §IV-E digest over the exploit jobs.
    std::vector<double> times;
    double cpu_seconds = 0.0;
    for (const JobRecord &r : records) {
        cpu_seconds += r.result.seconds;
        if (r.spec.kind == JobKind::Exploit)
            times.push_back(r.result.seconds);
    }
    if (!times.empty()) {
        std::sort(times.begin(), times.end());
        const double threshold = 5.0;
        int fast = 0;
        for (double t : times)
            fast += t <= threshold;
        out << "\nperformance: " << fast << "/" << times.size()
            << " exploits within " << fmt1(threshold) << "s; median "
            << fmt1(times[times.size() / 2]) << "s; max "
            << fmt1(times.back()) << "s\n";
    }
    if (report.wallSeconds > 0.0) {
        out << "parallelism: " << fmt1(cpu_seconds) << "s of job time in "
            << fmt1(report.wallSeconds) << "s wall ("
            << fmt1(cpu_seconds / report.wallSeconds) << "x)\n";
    }
}

} // namespace coppelia::campaign
