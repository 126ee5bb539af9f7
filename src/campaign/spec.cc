#include "campaign/spec.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/logging.hh"
#include "util/strutil.hh"

namespace coppelia::campaign
{

const char *
jobKindName(JobKind k)
{
    switch (k) {
      case JobKind::Exploit: return "exploit";
      case JobKind::BmcIfv: return "bmc-ifv";
      case JobKind::BmcEbmc: return "bmc-ebmc";
      case JobKind::Fuzz: return "fuzz";
    }
    return "?";
}

bool
parseProcessorName(const std::string &name, cpu::Processor *out)
{
    if (name == "or1200")
        *out = cpu::Processor::OR1200;
    else if (name == "mor1kx" || name == "mor1kx-espresso")
        *out = cpu::Processor::Mor1kxEspresso;
    else if (name == "ri5cy" || name == "pulpino" || name == "pulpino-ri5cy")
        *out = cpu::Processor::PulpinoRi5cy;
    else
        return false;
    return true;
}

bool
parseJobKindName(const std::string &name, JobKind *out)
{
    if (name == "exploit" || name == "coppelia")
        *out = JobKind::Exploit;
    else if (name == "bmc-ifv" || name == "ifv")
        *out = JobKind::BmcIfv;
    else if (name == "bmc-ebmc" || name == "ebmc")
        *out = JobKind::BmcEbmc;
    else if (name == "fuzz" || name == "fuzzer")
        *out = JobKind::Fuzz;
    else
        return false;
    return true;
}

namespace
{

bool
parseBugName(const std::string &name, cpu::BugId *out)
{
    for (const cpu::BugInfo &info : cpu::bugRegistry()) {
        if (info.name == name) {
            *out = info.id;
            return true;
        }
    }
    return false;
}

} // namespace

void
addProcessorMatrix(CampaignSpec &spec, cpu::Processor processor,
                   JobKind kind)
{
    for (cpu::BugId id : cpu::bugsFor(processor, false)) {
        JobSpec job;
        job.kind = kind;
        job.processor = processor;
        job.bug = id;
        spec.jobs.push_back(job);
    }
}

CampaignSpec
parseSpec(std::istream &in, const std::string &origin)
{
    CampaignSpec spec;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream words(line);
        std::string key;
        if (!(words >> key))
            continue;

        auto bad = [&](const std::string &why) {
            fatal(origin, ":", lineno, ": ", why, " in '", key, "' line");
        };
        auto word = [&](const char *what) {
            std::string w;
            if (!(words >> w))
                bad(std::string("missing ") + what);
            return w;
        };
        auto onOff = [&]() {
            const std::string w = word("on/off");
            if (w != "on" && w != "off")
                bad("expected on or off");
            return w == "on";
        };
        // A number must be the whole word: std::stoi alone would read
        // "2e4" as 2 and "4x" as 4.
        auto number = [&](const char *what, auto parse) {
            const std::string w = word(what);
            std::size_t used = 0;
            try {
                const auto v = parse(w, &used);
                if (used == w.size())
                    return v;
            } catch (...) {
            }
            bad(std::string("malformed ") + what);
            return decltype(parse(w, &used)){};
        };
        auto intWord = [&](const char *what) {
            return number(what, [](const std::string &w, std::size_t *n) {
                return std::stoi(w, n);
            });
        };
        auto u64Word = [&](const char *what) {
            return number(what, [](const std::string &w, std::size_t *n) {
                return std::stoull(w, n);
            });
        };
        auto doubleWord = [&](const char *what) {
            return number(what, [](const std::string &w, std::size_t *n) {
                return std::stod(w, n);
            });
        };

        if (key == "name") {
            spec.name = word("value");
        } else if (key == "workers") {
            spec.workers = intWord("count");
        } else if (key == "seed") {
            spec.seed = u64Word("value");
        } else if (key == "time-limit") {
            spec.jobTimeLimitSeconds = doubleWord("seconds");
        } else if (key == "bound") {
            spec.bound = intWord("value");
        } else if (key == "feedback-rounds") {
            spec.maxFeedbackRounds = intWord("value");
        } else if (key == "bmc-bound") {
            spec.bmcMaxBound = intWord("value");
        } else if (key == "incremental") {
            spec.incrementalSolver = onOff();
        } else if (key == "conflict-budget") {
            spec.solverConflictBudget = intWord("count");
            if (spec.solverConflictBudget < -1)
                bad("budget must be >= -1");
        } else if (key == "minimize") {
            spec.solverMinimize = onOff();
        } else if (key == "fuzz-execs") {
            spec.fuzzExecs = intWord("count");
        } else if (key == "fuzz-stream") {
            spec.fuzzMaxStream = intWord("length");
        } else if (key == "fuzz-handoffs") {
            spec.fuzzHandoffs = intWord("count");
        } else if (key == "sim-backend") {
            if (!rtl::parseSimBackendName(word("backend"),
                                          &spec.simBackend))
                bad("unknown sim backend");
        } else if (key == "require-backend") {
            spec.requireBackend = onOff();
        } else if (key == "payload") {
            spec.addPayload = onOff();
        } else if (key == "replay") {
            spec.validateByReplay = onOff();
        } else if (key == "trace") {
            spec.traceFile = word("file");
        } else if (key == "artifacts") {
            spec.artifactDir = word("directory");
        } else if (key == "monitor") {
            spec.monitorPort = intWord("port");
            if (spec.monitorPort < 0 || spec.monitorPort > 65535)
                bad("port out of range");
        } else if (key == "matrix") {
            cpu::Processor proc;
            if (!parseProcessorName(word("processor"), &proc))
                bad("unknown processor");
            JobKind kind = JobKind::Exploit;
            std::string kind_word;
            if (words >> kind_word && !parseJobKindName(kind_word, &kind))
                bad("unknown job kind");
            addProcessorMatrix(spec, proc, kind);
        } else if (key == "job") {
            JobSpec job;
            if (!parseProcessorName(word("processor"), &job.processor))
                bad("unknown processor");
            if (!parseBugName(word("bug"), &job.bug))
                bad("unknown bug");
            std::string kind_word;
            if (words >> kind_word &&
                !parseJobKindName(kind_word, &job.kind))
                bad("unknown job kind");
            spec.jobs.push_back(job);
        } else {
            fatal(origin, ":", lineno, ": unknown directive '", key, "'");
        }
    }
    return spec;
}

CampaignSpec
loadSpecFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open campaign spec '", path,
              "': ", std::strerror(errno));
    return parseSpec(in, path);
}

std::string
describeJobs(const CampaignSpec &spec)
{
    std::ostringstream os;
    int i = 0;
    for (const JobSpec &job : spec.jobs) {
        os << padRight(std::to_string(i++), 4) << " "
           << padRight(jobKindName(job.kind), 9) << " "
           << padRight(cpu::processorName(job.processor), 16) << " "
           << padRight(cpu::bugName(job.bug), 4);
        if (!job.assertionId.empty())
            os << " " << job.assertionId;
        os << "\n";
    }
    return os.str();
}

} // namespace coppelia::campaign
