#include "campaign/report.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

namespace coppelia::campaign::report
{

namespace
{

std::string
escapeHtml(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          default: out += c;
        }
    }
    return out;
}

double
num(const json::Value &obj, const char *key, double fallback = 0.0)
{
    const json::Value *v = obj.find(key);
    return v && v->isNumber() ? v->asNumber() : fallback;
}

std::string
str(const json::Value &obj, const char *key,
    const std::string &fallback = "")
{
    const json::Value *v = obj.find(key);
    return v && v->isString() ? v->asString() : fallback;
}

bool
boolean(const json::Value &obj, const char *key)
{
    const json::Value *v = obj.find(key);
    return v && v->isBool() && v->asBool();
}

double
statOf(const json::Value &record, const char *name)
{
    const json::Value *stats = record.find("stats");
    return stats && stats->isObject() ? num(*stats, name) : 0.0;
}

std::string
fmtUs(double us)
{
    char buf[32];
    if (us >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.2fs", us / 1e6);
    else if (us >= 1e3)
        std::snprintf(buf, sizeof(buf), "%.1fms", us / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.0fus", us);
    return buf;
}

std::string
fmtCount(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
}

std::string
fmt2(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

/** A <td> cell; right-aligned for the numeric variant. */
std::string
td(const std::string &s)
{
    return "<td>" + s + "</td>";
}

std::string
tdr(const std::string &s)
{
    return "<td class=\"r\">" + s + "</td>";
}

/** Sum of every querylog meta line's total_wall_us for one job: covers
 *  all recorded queries, dropped ones included, so it is the number
 *  that agrees with the cumulative solve_us metric. */
double
querylogWallUs(const JobForensics &job)
{
    double total = 0.0;
    for (const json::Value &line : job.queries) {
        if (str(line, "meta") == "querylog")
            total += num(line, "total_wall_us");
    }
    return total;
}

double
querylogRecorded(const JobForensics &job)
{
    double total = 0.0;
    for (const json::Value &line : job.queries) {
        if (str(line, "meta") == "querylog")
            total += num(line, "recorded");
    }
    return total;
}

std::string
jobLabel(const json::Value &record)
{
    return str(record, "kind", "?") + ":" + str(record, "bug", "?");
}

/** Kind-specific progress cell of the summary table. */
std::string
progressCell(const json::Value &record)
{
    const std::string kind = str(record, "kind");
    if (kind == "exploit") {
        // A refuted depth-1 level is why a search stopped after one
        // exploration.
        const bool refuted = statOf(record, "level1_refutations") > 0;
        return fmtCount(num(record, "iterations")) + " iter" +
               (refuted ? ", refuted" : "");
    }
    if (kind == "fuzz")
        return fmtCount(num(record, "fuzz_execs")) + " execs, " +
               fmtCount(num(record, "fuzz_coverage_points")) + "/" +
               fmtCount(num(record, "fuzz_coverage_total")) + " cov";
    return "depth " + fmtCount(num(record, "bmc_depth"));
}

void
sectionOverview(std::string &h, const ReportData &d)
{
    int found = 0, replayable = 0;
    double seconds = 0.0, solver_us = 0.0, queries = 0.0;
    for (const JobForensics &j : d.jobs) {
        found += boolean(j.record, "found");
        replayable += boolean(j.record, "replayable");
        seconds += num(j.record, "seconds");
        solver_us += statOf(j.record, "solver_solve_us");
        queries += statOf(j.record, "solver_queries");
    }
    h += "<p class=\"overview\">" + fmtCount(d.jobs.size()) + " jobs, " +
         std::to_string(found) + " found, " + std::to_string(replayable) +
         " replayable &middot; " + fmt2(seconds) + "s of job time, " +
         fmtUs(solver_us) + " in the solver across " + fmtCount(queries) +
         " queries</p>\n";
}

void
sectionJobs(std::string &h, const ReportData &d)
{
    h += "<h2 id=\"jobs\">Jobs</h2>\n<table>\n<tr><th>#</th>"
         "<th>kind</th><th>processor</th><th>bug</th><th>assertion</th>"
         "<th>status</th><th>found</th><th>replay</th><th>trigger</th>"
         "<th>progress</th><th>wall</th><th>solver</th><th>queries</th>"
         "<th>logged</th></tr>\n";
    for (const JobForensics &j : d.jobs) {
        const json::Value &r = j.record;
        h += "<tr>";
        h += tdr(fmtCount(num(r, "job")));
        h += td(escapeHtml(str(r, "kind", "?")));
        h += td(escapeHtml(str(r, "processor", "?")));
        h += td(escapeHtml(str(r, "bug", "?")));
        h += td(escapeHtml(str(r, "assertion", "-")));
        h += td(escapeHtml(str(r, "status", "?")));
        h += td(boolean(r, "found") ? "yes" : "-");
        h += td(boolean(r, "replayable") ? "yes" : "-");
        h += tdr(fmtCount(num(r, "trigger_instructions")));
        h += td(progressCell(r));
        h += tdr(fmt2(num(r, "seconds")) + "s");
        h += tdr(fmtUs(statOf(r, "solver_solve_us")));
        h += tdr(fmtCount(statOf(r, "solver_queries")));
        h += tdr(fmtCount(querylogRecorded(j)));
        h += "</tr>\n";
    }
    h += "</table>\n";
}

void
sectionSlowestQueries(std::string &h, const ReportData &d)
{
    struct Ranked
    {
        const json::Value *line;
        double wallUs;
    };
    std::vector<Ranked> ranked;
    for (const JobForensics &j : d.jobs) {
        for (const json::Value &line : j.queries) {
            if (line.find("q"))
                ranked.push_back({&line, num(line, "wall_us")});
        }
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const Ranked &a, const Ranked &b) {
                         return a.wallUs > b.wallUs;
                     });

    h += "<h2 id=\"queries\">Slowest solver queries</h2>\n";
    if (ranked.empty()) {
        h += "<p>No query-log records (campaign ran without artifacts "
             "or the query log was compiled out).</p>\n";
        return;
    }
    h += "<table>\n<tr><th>query</th><th>job</th><th>origin</th>"
         "<th>iter</th><th>retry</th><th>result</th><th>backend</th>"
         "<th>wall</th><th>conflicts</th><th>decisions</th>"
         "<th>props</th><th>restarts</th><th>assumps</th>"
         "<th>minimized</th></tr>\n";
    const std::size_t limit = std::min<std::size_t>(ranked.size(), 20);
    for (std::size_t i = 0; i < limit; ++i) {
        const json::Value &q = *ranked[i].line;
        h += "<tr>";
        h += tdr(fmtCount(num(q, "q")));
        h += tdr(fmtCount(num(q, "job", -1)));
        h += td(escapeHtml(str(q, "origin", "-")));
        h += tdr(fmtCount(num(q, "iteration", -1)));
        h += tdr(fmtCount(num(q, "retry")));
        h += td(escapeHtml(str(q, "result", "?")));
        h += td(boolean(q, "incremental") ? "inc" : "fresh");
        h += tdr(fmtUs(num(q, "wall_us")));
        h += tdr(fmtCount(num(q, "conflicts")));
        h += tdr(fmtCount(num(q, "decisions")));
        h += tdr(fmtCount(num(q, "propagations")));
        h += tdr(fmtCount(num(q, "restarts")));
        h += tdr(fmtCount(num(q, "assumptions")));
        h += tdr(fmtCount(num(q, "learnt_lits_saved")));
        h += "</tr>\n";
    }
    h += "</table>\n";
    if (ranked.size() > limit)
        h += "<p class=\"note\">" + fmtCount(ranked.size() - limit) +
             " further logged queries not shown.</p>\n";
}

void
sectionPhases(std::string &h, const ReportData &d)
{
    h += "<h2 id=\"phases\">Per-phase time breakdown</h2>\n";
    if (!d.haveFold) {
        h += "<p>No trace supplied (run the campaign with --trace and "
             "pass the file to coppelia-report).</p>\n";
        return;
    }
    h += "<p class=\"note\">" + fmtCount(d.fold.spanCount) +
         " spans on " + std::to_string(d.fold.tracks) + " tracks, " +
         fmtUs(static_cast<double>(d.fold.wallUs)) +
         " timeline extent</p>\n";
    h += "<table>\n<tr><th>phase</th><th>count</th><th>total</th>"
         "<th>self</th><th>self %</th></tr>\n";
    const std::size_t limit = std::min<std::size_t>(d.fold.rows.size(), 16);
    for (std::size_t i = 0; i < limit; ++i) {
        const trace::FoldRow &row = d.fold.rows[i];
        const double pct =
            d.fold.wallUs > 0
                ? 100.0 * static_cast<double>(row.selfUs) /
                      static_cast<double>(d.fold.wallUs)
                : 0.0;
        h += "<tr>";
        h += td(escapeHtml(row.name));
        h += tdr(fmtCount(static_cast<double>(row.count)));
        h += tdr(fmtUs(static_cast<double>(row.totalUs)));
        h += tdr(fmtUs(static_cast<double>(row.selfUs)));
        h += tdr(fmt2(pct));
        h += "</tr>\n";
    }
    h += "</table>\n";
}

void
histogramTable(std::string &h, const std::map<std::string, double> &counts)
{
    double max = 0.0;
    for (const auto &[reason, count] : counts)
        max = std::max(max, count);
    h += "<table>\n<tr><th>reason</th><th>count</th><th></th></tr>\n";
    for (const auto &[reason, count] : counts) {
        const int width =
            max > 0.0 ? static_cast<int>(200.0 * count / max) : 0;
        h += "<tr>" + td(escapeHtml(reason)) + tdr(fmtCount(count)) +
             "<td><div class=\"bar\" style=\"width:" +
             std::to_string(width) + "px\"></div></td></tr>\n";
    }
    h += "</table>\n";
}

void
sectionRejections(std::string &h, const ReportData &d)
{
    h += "<h2 id=\"rejections\">Candidate rejections</h2>\n";
    bool any = false;
    std::map<std::string, double> total;
    for (const JobForensics &j : d.jobs) {
        std::map<std::string, double> counts;
        for (const json::Value &e : j.search) {
            if (str(e, "type") != "reject")
                continue;
            const std::string reason = str(e, "detail", "unknown");
            counts[reason] += 1.0;
            total[reason] += 1.0;
        }
        if (counts.empty())
            continue;
        any = true;
        h += "<h3>job " + fmtCount(num(j.record, "job")) + " &mdash; " +
             escapeHtml(jobLabel(j.record)) + "</h3>\n";
        histogramTable(h, counts);
    }
    if (!any) {
        h += "<p>No rejection events recorded.</p>\n";
        return;
    }
    if (total.size() > 1) {
        h += "<h3>all searches</h3>\n";
        histogramTable(h, total);
    }
}

void
coverageSvg(std::string &h, const JobForensics &j)
{
    struct Point
    {
        double execs, points;
    };
    std::vector<Point> line;
    std::vector<Point> marks;
    for (const json::Value &e : j.search) {
        const std::string type = str(e, "type");
        if (type == "coverage")
            line.push_back({num(e, "a"), num(e, "b")});
        else if (type == "divergence")
            marks.push_back({num(e, "a"), num(e, "b")});
    }
    if (line.empty())
        return;

    double max_x = 1.0, max_y = 1.0;
    for (const Point &p : line) {
        max_x = std::max(max_x, p.execs);
        max_y = std::max(max_y, p.points);
    }
    const double w = 560.0, hgt = 140.0, pad = 20.0;
    auto px = [&](double x) { return pad + (w - 2 * pad) * x / max_x; };
    auto py = [&](double y) {
        return hgt - pad - (hgt - 2 * pad) * y / max_y;
    };

    h += "<h3>job " + fmtCount(num(j.record, "job")) + " &mdash; " +
         escapeHtml(jobLabel(j.record)) + " (" +
         fmtCount(num(j.record, "fuzz_coverage_points")) + "/" +
         fmtCount(num(j.record, "fuzz_coverage_total")) +
         " points, " + fmtCount(num(j.record, "fuzz_divergences")) +
         " divergences)</h3>\n";
    h += "<svg viewBox=\"0 0 560 140\" width=\"560\" height=\"140\" "
         "role=\"img\">\n";
    h += "<rect x=\"0\" y=\"0\" width=\"560\" height=\"140\" "
         "class=\"plot\"/>\n";
    h += "<polyline class=\"cov\" points=\"";
    for (const Point &p : line)
        h += fmt2(px(p.execs)) + "," + fmt2(py(p.points)) + " ";
    h += "\"/>\n";
    for (const Point &p : marks)
        h += "<circle class=\"div\" cx=\"" + fmt2(px(p.execs)) +
             "\" cy=\"" + fmt2(py(p.points)) + "\" r=\"3\"/>\n";
    h += "<text x=\"" + fmt2(pad) + "\" y=\"" + fmt2(hgt - 4) +
         "\" class=\"axis\">0</text>\n";
    h += "<text x=\"" + fmt2(w - pad) + "\" y=\"" + fmt2(hgt - 4) +
         "\" class=\"axis\" text-anchor=\"end\">" + fmtCount(max_x) +
         " execs</text>\n";
    h += "<text x=\"" + fmt2(pad) + "\" y=\"" + fmt2(pad - 6) +
         "\" class=\"axis\">" + fmtCount(max_y) + " pts</text>\n";
    h += "</svg>\n";
}

void
sectionCoverage(std::string &h, const ReportData &d)
{
    h += "<h2 id=\"coverage\">Fuzz coverage</h2>\n";
    bool any = false;
    for (const JobForensics &j : d.jobs) {
        if (str(j.record, "kind") != "fuzz")
            continue;
        const std::size_t before = h.size();
        coverageSvg(h, j);
        any = any || h.size() != before;
    }
    if (!any)
        h += "<p>No fuzz coverage checkpoints recorded.</p>\n";
}

void
sectionConsistency(std::string &h, const ReportData &d)
{
    h += "<h2 id=\"consistency\">Solver-time cross-check</h2>\n";
    h += "<p class=\"note\">The query log's summed wall time per job "
         "against the job's solver_solve_us stat; the two are the same "
         "measurement taken at the same site, so any gap means lost "
         "records.</p>\n";
    h += "<table>\n<tr><th>job</th><th>query log</th><th>stat</th>"
         "<th>delta %</th></tr>\n";
    double log_total = 0.0, stat_total = 0.0;
    for (const JobForensics &j : d.jobs) {
        const double logged = querylogWallUs(j);
        const double stat = statOf(j.record, "solver_solve_us");
        if (logged == 0.0 && stat == 0.0)
            continue;
        log_total += logged;
        stat_total += stat;
        // Fuzz jobs log their hand-off searches' queries but do not
        // merge solver stats into the record; no stat means no delta.
        const std::string delta =
            stat > 0.0 ? fmt2(100.0 * (logged - stat) / stat) : "-";
        h += "<tr>" + tdr(fmtCount(num(j.record, "job"))) +
             tdr(fmtUs(logged)) + tdr(fmtUs(stat)) + tdr(delta) +
             "</tr>\n";
    }
    h += "<tr class=\"total\">" + td("total") + tdr(fmtUs(log_total)) +
         tdr(fmtUs(stat_total)) +
         tdr(fmt2(stat_total > 0.0
                      ? 100.0 * (log_total - stat_total) / stat_total
                      : 0.0)) +
         "</tr>\n</table>\n";
    if (d.metrics.isObject()) {
        if (const json::Value *histograms = d.metrics.find("histograms")) {
            if (const json::Value *solve =
                    histograms->find("smt.solve_us")) {
                h += "<p class=\"note\">Registry smt.solve_us: " +
                     fmtUs(num(*solve, "sum")) + " over " +
                     fmtCount(num(*solve, "count")) +
                     " dispatches (process cumulative).</p>\n";
            }
        }
    }
}

} // namespace

std::string
renderHtml(const ReportData &data)
{
    std::string h;
    h += "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
         "<meta charset=\"utf-8\">\n<title>" +
         escapeHtml(data.title) + " &mdash; coppelia report</title>\n";
    h += "<style>\n"
         "body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;"
         "max-width:72em;padding:0 1em;color:#222}\n"
         "h1{border-bottom:2px solid #222;padding-bottom:.2em}\n"
         "h2{margin-top:2em;border-bottom:1px solid #bbb}\n"
         "table{border-collapse:collapse;margin:.6em 0}\n"
         "th,td{border:1px solid #ccc;padding:.2em .5em;"
         "text-align:left}\n"
         "th{background:#f0f0f0}\n"
         "td.r{text-align:right;font-variant-numeric:tabular-nums}\n"
         "tr.total td{font-weight:bold;background:#fafafa}\n"
         ".bar{background:#4878b0;height:.8em}\n"
         ".note{color:#555;font-size:13px}\n"
         ".overview{font-size:15px}\n"
         "svg .plot{fill:#fafafa;stroke:#ccc}\n"
         "svg .cov{fill:none;stroke:#4878b0;stroke-width:1.5}\n"
         "svg .div{fill:#c0392b}\n"
         "svg .axis{font:11px system-ui,sans-serif;fill:#555}\n"
         "</style>\n</head>\n<body>\n";
    h += "<h1>" + escapeHtml(data.title) + "</h1>\n";
    h += "<p class=\"note\">Sections: <a href=\"#jobs\">jobs</a> &middot; "
         "<a href=\"#queries\">slowest queries</a> &middot; "
         "<a href=\"#phases\">phases</a> &middot; "
         "<a href=\"#rejections\">rejections</a> &middot; "
         "<a href=\"#coverage\">fuzz coverage</a> &middot; "
         "<a href=\"#consistency\">cross-check</a></p>\n";
    sectionOverview(h, data);
    sectionJobs(h, data);
    sectionSlowestQueries(h, data);
    sectionPhases(h, data);
    sectionRejections(h, data);
    sectionCoverage(h, data);
    sectionConsistency(h, data);
    h += "</body>\n</html>\n";
    return h;
}

void
writeHtml(std::ostream &out, const ReportData &data)
{
    out << renderHtml(data);
}

namespace
{

bool
parseJsonlFile(const std::string &path, std::vector<json::Value> *out,
               std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::string parse_error;
        json::Value v = json::parse(line, &parse_error);
        if (!v.isObject()) {
            if (error)
                *error = path + ":" + std::to_string(lineno) + ": " +
                         parse_error;
            return false;
        }
        out->push_back(std::move(v));
    }
    return true;
}

/** Resolve an artifact path recorded in campaign.jsonl: as written,
 *  then relative to the campaign dir, then by basename under the
 *  conventional artifacts/ subdirectory (covers relocated outputs). */
std::string
resolveArtifact(const std::string &dir, const std::string &recorded)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (fs::exists(recorded, ec))
        return recorded;
    const fs::path rel = fs::path(dir) / recorded;
    if (fs::exists(rel, ec))
        return rel.string();
    const fs::path by_name =
        fs::path(dir) / "artifacts" / fs::path(recorded).filename();
    if (fs::exists(by_name, ec))
        return by_name.string();
    return "";
}

} // namespace

bool
loadCampaignDir(const std::string &dir, const std::string &traceFile,
                ReportData *out, std::string *error)
{
    namespace fs = std::filesystem;
    const std::string jsonl = (fs::path(dir) / "campaign.jsonl").string();
    std::vector<json::Value> records;
    if (!parseJsonlFile(jsonl, &records, error))
        return false;

    out->title = fs::path(dir).filename().string();
    if (out->title.empty())
        out->title = "campaign";
    for (json::Value &record : records) {
        JobForensics job;
        const std::string qpath = str(record, "queries_jsonl");
        const std::string spath = str(record, "search_jsonl");
        job.record = std::move(record);
        // Artifacts are optional per record; a broken pointer is worth
        // failing loudly on — the report's numbers would silently lie.
        if (!qpath.empty()) {
            const std::string resolved = resolveArtifact(dir, qpath);
            if (resolved.empty()) {
                if (error)
                    *error = "missing query-log artifact " + qpath;
                return false;
            }
            if (!parseJsonlFile(resolved, &job.queries, error))
                return false;
        }
        if (!spath.empty()) {
            const std::string resolved = resolveArtifact(dir, spath);
            if (resolved.empty()) {
                if (error)
                    *error = "missing search artifact " + spath;
                return false;
            }
            if (!parseJsonlFile(resolved, &job.search, error))
                return false;
        }
        out->jobs.push_back(std::move(job));
    }
    std::stable_sort(out->jobs.begin(), out->jobs.end(),
                     [](const JobForensics &a, const JobForensics &b) {
                         return num(a.record, "job") < num(b.record, "job");
                     });

    const std::string metrics_path =
        (fs::path(dir) / "metrics.json").string();
    std::ifstream metrics_in(metrics_path);
    if (metrics_in) {
        std::ostringstream buf;
        buf << metrics_in.rdbuf();
        std::string parse_error;
        json::Value doc = json::parse(buf.str(), &parse_error);
        if (!doc.isObject()) {
            if (error)
                *error = metrics_path + ": " + parse_error;
            return false;
        }
        out->metrics = std::move(doc);
    }

    if (!traceFile.empty()) {
        std::vector<trace::TrackEvents> tracks;
        std::string trace_error;
        if (!trace::loadChromeTraceFile(traceFile, &tracks,
                                        &trace_error)) {
            if (error)
                *error = trace_error;
            return false;
        }
        out->fold = trace::foldTracks(tracks);
        out->haveFold = true;
    }
    return true;
}

} // namespace coppelia::campaign::report
