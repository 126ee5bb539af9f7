/**
 * @file
 * Post-mortem campaign report: fold campaign.jsonl, the per-job solver
 * query logs and search-recorder streams, the Chrome trace fold, and a
 * metrics snapshot into one dependency-free static HTML page — the
 * artifact behind `coppelia-report`. Sections:
 *
 *  - per-job summary in the Table II/VI layout (kind, bug, outcome,
 *    trigger length, wall and solver time, query counts);
 *  - slowest-query ranking across every job, each with its SAT stat
 *    fingerprint (conflicts/decisions/propagations/restarts,
 *    minimization savings);
 *  - per-phase time breakdown from the trace fold;
 *  - rejection-reason histogram per search, from the recorder stream;
 *  - fuzz coverage-over-time timeline (inline SVG) with divergences.
 *
 * The renderer is deterministic over its input (no timestamps, no
 * environment), so a fixed synthetic ReportData pins the HTML in a
 * golden-file test.
 */

#ifndef COPPELIA_CAMPAIGN_REPORT_HH
#define COPPELIA_CAMPAIGN_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/fold.hh"
#include "util/json.hh"

namespace coppelia::campaign::report
{

/** One job's slice of the campaign: its telemetry record plus the
 *  parsed lines of its two forensics artifacts (meta lines included;
 *  either may be empty when the campaign ran without artifacts). */
struct JobForensics
{
    json::Value record;
    std::vector<json::Value> queries; ///< queries.jsonl lines, in order
    std::vector<json::Value> search;  ///< search.jsonl lines, in order
};

/** Everything the renderer folds into the page. */
struct ReportData
{
    std::string title = "campaign";
    std::vector<JobForensics> jobs;
    /** Registry snapshot (metrics.json / snapshotJson shape); Null when
     *  unavailable. */
    json::Value metrics;
    trace::FoldReport fold;
    bool haveFold = false;
};

/**
 * Load a campaign output directory: parses campaign.jsonl, follows each
 * record's queries_jsonl/search_jsonl pointer (as written, then relative
 * to @p dir, then `<dir>/artifacts/<basename>`), reads metrics.json when
 * present, and folds @p traceFile (empty = skip; a missing or malformed
 * trace is an error). Returns false and fills @p error on failure.
 */
bool loadCampaignDir(const std::string &dir, const std::string &traceFile,
                     ReportData *out, std::string *error);

/** Render the report as one self-contained HTML document. */
std::string renderHtml(const ReportData &data);

/** Render straight to a stream (convenience over renderHtml). */
void writeHtml(std::ostream &out, const ReportData &data);

} // namespace coppelia::campaign::report

#endif // COPPELIA_CAMPAIGN_REPORT_HH
