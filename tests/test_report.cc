/**
 * @file
 * The coppelia-report renderer and loader: a golden-file pin of the full
 * HTML page over fixed synthetic forensics (the renderer is
 * deterministic, so the page is byte-stable), section structure and
 * escaping, the slowest-query ranking's consistency with the per-job
 * solver_solve_us stats, and loadCampaignDir round-trips including the
 * artifact-path fallback resolution and loud failure on broken artifact
 * pointers.
 *
 * Regenerate the golden after an intentional renderer change with
 *   COPPELIA_UPDATE_GOLDEN=1 ./test_report
 * and review the HTML diff like any other golden.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "campaign/report.hh"
#include "util/json.hh"

using namespace coppelia;
using campaign::report::JobForensics;
using campaign::report::ReportData;

namespace
{

json::Value
obj(const std::string &text)
{
    std::string error;
    json::Value v = json::parse(text, &error);
    EXPECT_TRUE(v.isObject()) << error << " in: " << text;
    return v;
}

/** Fixed two-job campaign — one exploit search with query log and
 *  rejection events, one fuzz job with a coverage timeline — plus a
 *  trace fold and a registry snapshot. Everything the renderer folds. */
ReportData
syntheticData()
{
    ReportData d;
    d.title = "synthetic <smoke>";

    JobForensics exploit;
    exploit.record = obj(
        R"({"schema_version":4,"job":0,"kind":"exploit","processor":"or1200",)"
        R"("bug":"b01","assertion":"a01_add_sub","status":"ok","found":true,)"
        R"("replayable":true,"trigger_instructions":3,"iterations":2,)"
        R"("seconds":1.25,"queries_jsonl":"artifacts/job0_queries.jsonl",)"
        R"("search_jsonl":"artifacts/job0_search.jsonl",)"
        R"("stats":{"solver_solve_us":1500,"solver_queries":3,)"
        R"("querylog_records":3,"querylog_dropped":0,)"
        R"("querylog_wall_us":1500}})");
    exploit.queries.push_back(obj(
        R"({"meta":"querylog","schema_version":1,"recorded":3,"dropped":0,)"
        R"("total_wall_us":1500})"));
    exploit.queries.push_back(obj(
        R"({"q":1,"job":0,"iteration":1,"origin":"a01_add_sub",)"
        R"("assumptions":4,"retry":0,"result":"unsat","incremental":true,)"
        R"("conflicts":10,"decisions":40,"propagations":400,"restarts":0,)"
        R"("learnt_lits_saved":7,)"
        R"("wall_us":200})"));
    exploit.queries.push_back(obj(
        R"({"q":2,"job":0,"iteration":1,"origin":"a01_add_sub",)"
        R"("assumptions":6,"retry":0,"result":"sat","incremental":true,)"
        R"("conflicts":90,"decisions":300,"propagations":9000,"restarts":2,)"
        R"("learnt_lits_saved":44,)"
        R"("wall_us":1100})"));
    exploit.queries.push_back(obj(
        R"({"q":3,"job":0,"iteration":2,"origin":"a01_add_sub",)"
        R"("assumptions":2,"retry":0,"result":"sat","incremental":false,)"
        R"("conflicts":4,"decisions":9,"propagations":80,"restarts":0,)"
        R"("learnt_lits_saved":0,)"
        R"("wall_us":200})"));
    exploit.search.push_back(obj(
        R"({"meta":"search","schema_version":1,"events":4,"dropped":0})"));
    exploit.search.push_back(
        obj(R"({"us":10,"type":"iteration","iteration":1,"a":1,"b":0})"));
    exploit.search.push_back(obj(
        R"({"us":20,"type":"reject","detail":"replay_reject",)"
        R"("iteration":1,"a":1,"b":0})"));
    exploit.search.push_back(obj(
        R"({"us":30,"type":"reject","detail":"replay_reject",)"
        R"("iteration":1,"a":1,"b":0})"));
    exploit.search.push_back(obj(
        R"({"us":40,"type":"candidate","detail":"reset","iteration":2,)"
        R"("a":2,"b":0})"));
    d.jobs.push_back(std::move(exploit));

    JobForensics fuzz;
    fuzz.record = obj(
        R"({"schema_version":4,"job":1,"kind":"fuzz","processor":"or1200",)"
        R"("bug":"b04","status":"ok","found":false,"replayable":false,)"
        R"("trigger_instructions":0,"fuzz_execs":200,)"
        R"("fuzz_coverage_points":34,"fuzz_coverage_total":96,)"
        R"("fuzz_divergences":1,"seconds":0.75,)"
        R"("search_jsonl":"artifacts/job1_search.jsonl",)"
        R"("stats":{"fuzz_execs":200}})");
    fuzz.search.push_back(obj(
        R"({"meta":"search","schema_version":1,"events":4,"dropped":0})"));
    fuzz.search.push_back(
        obj(R"({"us":5,"type":"coverage","iteration":-1,"a":50,"b":10})"));
    fuzz.search.push_back(
        obj(R"({"us":6,"type":"coverage","iteration":-1,"a":100,"b":30})"));
    fuzz.search.push_back(obj(
        R"({"us":7,"type":"divergence","detail":"gpr3","iteration":-1,)"
        R"("a":120,"b":30})"));
    fuzz.search.push_back(
        obj(R"({"us":8,"type":"coverage","iteration":-1,"a":200,"b":34})"));
    d.jobs.push_back(std::move(fuzz));

    d.metrics = obj(
        R"({"counters":{"solver_sat_calls":3},"gauges":{},)"
        R"("histograms":{"smt.solve_us":{"count":3,"sum":1500,)"
        R"("p50":917.7,"p90":1400.0,"p99":1490.0}}})");

    trace::FoldRow solve;
    solve.name = "smt.solve";
    solve.count = 3;
    solve.totalUs = 1500;
    solve.selfUs = 1500;
    d.fold.rows.push_back(solve);
    trace::FoldRow search;
    search.name = "bse.search";
    search.count = 1;
    search.totalUs = 1250000;
    search.selfUs = 1248500;
    d.fold.rows.push_back(search);
    d.fold.spanCount = 4;
    d.fold.wallUs = 2000000;
    d.fold.tracks = 2;
    d.haveFold = true;
    return d;
}

TEST(Report, MatchesGoldenFile)
{
    const std::string html =
        campaign::report::renderHtml(syntheticData());
    const std::string path =
        std::string(COPPELIA_TEST_DATA_DIR) + "/report_golden.html";

    if (std::getenv("COPPELIA_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << html;
        GTEST_SKIP() << "golden updated: " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << path
                    << " (regenerate with COPPELIA_UPDATE_GOLDEN=1)";
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(html, buf.str())
        << "renderer output drifted from the golden; if intentional, "
           "regenerate with COPPELIA_UPDATE_GOLDEN=1 and review the diff";
}

TEST(Report, SectionsPresentAndTitleEscaped)
{
    const std::string html =
        campaign::report::renderHtml(syntheticData());
    for (const char *anchor :
         {"<h2 id=\"jobs\">", "<h2 id=\"queries\">", "<h2 id=\"phases\">",
          "<h2 id=\"rejections\">", "<h2 id=\"coverage\">",
          "<h2 id=\"consistency\">"})
        EXPECT_NE(html.find(anchor), std::string::npos) << anchor;
    // The title is user-controlled text and must be escaped.
    EXPECT_NE(html.find("synthetic &lt;smoke&gt;"), std::string::npos);
    EXPECT_EQ(html.find("<smoke>"), std::string::npos);
    // The coverage timeline rendered a polyline and the divergence mark.
    EXPECT_NE(html.find("<polyline class=\"cov\""), std::string::npos);
    EXPECT_NE(html.find("<circle class=\"div\""), std::string::npos);

    // An empty campaign still renders every section, with fallbacks.
    const std::string empty =
        campaign::report::renderHtml(ReportData{});
    EXPECT_NE(empty.find("No query-log records"), std::string::npos);
    EXPECT_NE(empty.find("No trace supplied"), std::string::npos);
    EXPECT_NE(empty.find("No rejection events"), std::string::npos);
    EXPECT_NE(empty.find("No fuzz coverage"), std::string::npos);
}

TEST(Report, RefutedSearchSaysWhyItStopped)
{
    ReportData d = syntheticData();
    JobForensics patched;
    patched.record = obj(
        R"({"schema_version":4,"job":2,"kind":"exploit","processor":"or1200",)"
        R"("bug":"b03","assertion":"a03_rfe_restores_sr","status":"ok",)"
        R"("found":false,"iterations":1,"seconds":0.1,)"
        R"("stats":{"level1_refutations":1}})");
    d.jobs.push_back(patched);
    const std::string html = campaign::report::renderHtml(d);
    EXPECT_NE(html.find("<td>1 iter, refuted</td>"), std::string::npos);
    // The searches that explored past depth 1 keep the plain count.
    EXPECT_NE(html.find("<td>2 iter</td>"), std::string::npos);
}

TEST(Report, SlowestQueryRankingConsistentWithJobStats)
{
    const ReportData d = syntheticData();
    const std::string html = campaign::report::renderHtml(d);

    // The ranking leads with the slowest query (q=2, 1100us), and the
    // two 200us queries follow in emission order (stable sort).
    const std::size_t section = html.find("<h2 id=\"queries\">");
    ASSERT_NE(section, std::string::npos);
    const std::size_t first = html.find("<tr><td class=\"r\">", section);
    ASSERT_NE(first, std::string::npos);
    const std::string lead = "<tr><td class=\"r\">2</td>";
    EXPECT_EQ(html.substr(first, lead.size()), lead)
        << html.substr(first, 60);

    // Consistency section: job 0's query-log sum equals its
    // solver_solve_us stat (delta 0.00); the fuzz job has no solver
    // stat, so its delta renders as "-", not a fake zero.
    const std::size_t cons = html.find("<h2 id=\"consistency\">");
    ASSERT_NE(cons, std::string::npos);
    EXPECT_NE(html.find("<td class=\"r\">0.00</td>", cons),
              std::string::npos);
    // Totals row: 1500us logged on both sides.
    EXPECT_NE(html.find("<tr class=\"total\"><td>total</td>"
                        "<td class=\"r\">1.5ms</td>"
                        "<td class=\"r\">1.5ms</td>"
                        "<td class=\"r\">0.00</td></tr>", cons),
              std::string::npos)
        << html.substr(cons, 2000);
    // Registry note folded from metrics.json.
    EXPECT_NE(html.find("Registry smt.solve_us: 1.5ms over 3"),
              std::string::npos);
}

TEST(Report, LoadCampaignDirResolvesArtifactsAndSortsJobs)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(testing::TempDir()) / "coppelia_report_load";
    fs::remove_all(dir);
    fs::create_directories(dir / "artifacts");

    // Records deliberately out of job order; job 1's query-log pointer
    // is recorded under a path that no longer exists as written, so the
    // loader must fall back to artifacts/<basename>.
    {
        std::ofstream jsonl(dir / "campaign.jsonl");
        jsonl << R"({"schema_version":4,"job":1,"kind":"exploit",)"
              << R"("bug":"b04","seconds":1.0,)"
              << R"("queries_jsonl":"/moved/elsewhere/job1_queries.jsonl",)"
              << R"("stats":{"solver_solve_us":70}})" << "\n";
        jsonl << R"({"schema_version":4,"job":0,"kind":"exploit",)"
              << R"("bug":"b01","seconds":2.0,"stats":{}})" << "\n";
    }
    {
        std::ofstream q(dir / "artifacts" / "job1_queries.jsonl");
        q << R"({"meta":"querylog","schema_version":1,"recorded":1,)"
          << R"("dropped":0,"total_wall_us":70})" << "\n";
        q << R"({"q":9,"job":1,"iteration":0,"origin":"","assumptions":1,)"
          << R"("retry":0,"result":"sat","incremental":true,"conflicts":0,)"
          << R"("decisions":1,"propagations":2,"restarts":0,)"
          << R"("learnt_lits_saved":0,"wall_us":70})" << "\n";
    }
    {
        std::ofstream metrics(dir / "metrics.json");
        metrics << R"({"counters":{},"gauges":{},"histograms":{}})";
    }

    ReportData data;
    std::string error;
    ASSERT_TRUE(campaign::report::loadCampaignDir(dir.string(), "", &data,
                                                  &error))
        << error;
    ASSERT_EQ(data.jobs.size(), 2u);
    // Sorted by job index, not file order.
    EXPECT_EQ(data.jobs[0].record.find("job")->asInt(), 0);
    EXPECT_EQ(data.jobs[1].record.find("job")->asInt(), 1);
    ASSERT_EQ(data.jobs[1].queries.size(), 2u); // meta + one record
    EXPECT_EQ(data.jobs[1].queries[1].find("wall_us")->asInt(), 70);
    EXPECT_TRUE(data.jobs[0].queries.empty());
    EXPECT_TRUE(data.metrics.isObject());
    EXPECT_FALSE(data.haveFold);

    // A pointer that resolves nowhere is a loud failure, not an empty
    // section quietly lying about the campaign.
    {
        std::ofstream jsonl(dir / "campaign.jsonl");
        jsonl << R"({"schema_version":4,"job":0,"kind":"exploit",)"
              << R"("queries_jsonl":"nowhere/gone.jsonl","stats":{}})"
              << "\n";
    }
    ReportData broken;
    EXPECT_FALSE(campaign::report::loadCampaignDir(dir.string(), "",
                                                   &broken, &error));
    EXPECT_NE(error.find("gone.jsonl"), std::string::npos) << error;
    fs::remove_all(dir);
}

} // namespace
