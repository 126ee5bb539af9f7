/**
 * @file
 * The campaign JSONL schema contract: every key recordToJson emits is
 * documented in jsonlSchema(), every documented key is actually emitted
 * by some record kind, and emission order matches the documented order —
 * so downstream consumers of campaign.jsonl can rely on the key set, and
 * adding a key without documenting it fails here, not in a dashboard.
 */

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bse/recorder.hh"
#include "campaign/telemetry.hh"
#include "solver/querylog.hh"

using namespace coppelia;
using namespace coppelia::campaign;

namespace
{

JobRecord
exploitRecord()
{
    JobRecord rec;
    rec.jobIndex = 0;
    rec.spec.kind = JobKind::Exploit;
    rec.spec.processor = cpu::Processor::OR1200;
    rec.spec.bug = cpu::BugId::b01;
    rec.spec.assertionId = "a01_test";
    rec.seed = 0xdeadbeefcafef00dull;
    rec.workerId = 3;
    rec.result.found = true;
    rec.result.replayable = true;
    rec.result.triggerInstructions = 2;
    rec.result.iterations = 5;
    rec.result.seconds = 0.5;
    rec.result.traceEvents = 42;
    rec.result.queriesArtifact = "artifacts/job0_queries.jsonl";
    rec.result.searchArtifact = "artifacts/job0_search.jsonl";
    rec.result.stats.set("solver_solve_us", 1234);
    return rec;
}

JobRecord
bmcRecord()
{
    JobRecord rec = exploitRecord();
    rec.spec.kind = JobKind::BmcIfv;
    rec.result.bmcDepth = 3;
    return rec;
}

JobRecord
fuzzRecord()
{
    JobRecord rec = exploitRecord();
    rec.spec.kind = JobKind::Fuzz;
    rec.result.fuzzExecs = 512;
    rec.result.fuzzInstructions = 6144;
    rec.result.fuzzCorpusSize = 17;
    rec.result.fuzzCoveragePoints = 2600;
    rec.result.fuzzCoverageTotal = 3596;
    rec.result.fuzzDivergences = 2;
    rec.result.fuzzHandoffs = 1;
    rec.result.fuzzStreams = {{0x9c200011u, 0x15000000u}, {0x9c00002au}};
    return rec;
}

std::vector<std::string>
emittedKeys(const JobRecord &rec)
{
    const json::Value v = recordToJson(rec);
    std::vector<std::string> keys;
    for (const auto &[key, value] : v.members())
        keys.push_back(key);
    return keys;
}

std::set<std::string>
schemaKeys()
{
    std::set<std::string> keys;
    for (const JsonlField &field : jsonlSchema())
        keys.insert(field.key);
    return keys;
}

TEST(TelemetrySchema, SchemaIsWellFormed)
{
    std::set<std::string> seen;
    for (const JsonlField &field : jsonlSchema()) {
        EXPECT_TRUE(seen.insert(field.key).second)
            << "duplicate schema key " << field.key;
        EXPECT_NE(field.description, nullptr);
        EXPECT_GT(std::string(field.description).size(), 0u)
            << field.key << " lacks a description";
    }
}

TEST(TelemetrySchema, EveryEmittedKeyIsDocumented)
{
    const std::set<std::string> schema = schemaKeys();
    for (const JobRecord &rec : {exploitRecord(), bmcRecord(), fuzzRecord()}) {
        for (const std::string &key : emittedKeys(rec))
            EXPECT_TRUE(schema.count(key))
                << "recordToJson emits undocumented key '" << key
                << "' — document it in jsonlSchema()";
    }
}

TEST(TelemetrySchema, EveryDocumentedKeyIsEmitted)
{
    std::set<std::string> emitted;
    for (const JobRecord &rec : {exploitRecord(), bmcRecord(), fuzzRecord()}) {
        for (const std::string &key : emittedKeys(rec))
            emitted.insert(key);
    }
    for (const std::string &key : schemaKeys())
        EXPECT_TRUE(emitted.count(key))
            << "documented key '" << key
            << "' is never emitted — stale schema entry?";
}

TEST(TelemetrySchema, EmissionFollowsDocumentedOrder)
{
    // The emitted key sequence must be a subsequence of the schema order
    // (kind-conditional keys may be absent, but never reordered).
    std::vector<std::string> order;
    for (const JsonlField &field : jsonlSchema())
        order.push_back(field.key);
    for (const JobRecord &rec : {exploitRecord(), bmcRecord(), fuzzRecord()}) {
        std::size_t pos = 0;
        for (const std::string &key : emittedKeys(rec)) {
            const auto it =
                std::find(order.begin() + static_cast<long>(pos),
                          order.end(), key);
            ASSERT_NE(it, order.end())
                << "key '" << key << "' out of documented order";
            pos = static_cast<std::size_t>(it - order.begin()) + 1;
        }
    }
}

TEST(TelemetrySchema, SchemaVersionIsPinnedAndEmittedFirst)
{
    // The version constant is part of the compatibility contract: bumping
    // it is a deliberate act (update this test alongside the documented
    // history in telemetry.hh), and every record carries it as the first
    // key so consumers can dispatch before reading anything else.
    EXPECT_EQ(kJsonlSchemaVersion, 7);
    EXPECT_TRUE(schemaKeys().count("schema_version"));
    EXPECT_EQ(jsonlSchema().front().key, std::string("schema_version"));
    for (const JobRecord &rec : {exploitRecord(), bmcRecord(), fuzzRecord()}) {
        const std::vector<std::string> keys = emittedKeys(rec);
        ASSERT_FALSE(keys.empty());
        EXPECT_EQ(keys.front(), "schema_version");
        const json::Value v = recordToJson(rec);
        const json::Value *version = v.find("schema_version");
        ASSERT_NE(version, nullptr);
        ASSERT_TRUE(version->isNumber());
        EXPECT_EQ(version->asInt(), kJsonlSchemaVersion);
    }
}

TEST(TelemetrySchema, StableKeysKeepTheirMeaning)
{
    // Spot-check load-bearing fields: the seed must round-trip as a
    // string (64-bit values do not survive a double), trace_events must
    // always be present (0 when tracing is off), stats is an object.
    const json::Value v = recordToJson(exploitRecord());
    const json::Value *seed = v.find("seed");
    ASSERT_NE(seed, nullptr);
    ASSERT_TRUE(seed->isString());
    EXPECT_EQ(seed->asString(),
              std::to_string(0xdeadbeefcafef00dull));

    const json::Value *trace_events = v.find("trace_events");
    ASSERT_NE(trace_events, nullptr);
    EXPECT_EQ(trace_events->asInt(), 42);

    const json::Value *stats = v.find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_TRUE(stats->isObject());

    // Kind-specific keys: iterations on exploit records, bmc_depth on
    // baseline records, fuzz_* on fuzz records, never crossed.
    EXPECT_NE(v.find("iterations"), nullptr);
    EXPECT_EQ(v.find("bmc_depth"), nullptr);
    EXPECT_EQ(v.find("fuzz_execs"), nullptr);
    const json::Value b = recordToJson(bmcRecord());
    EXPECT_EQ(b.find("iterations"), nullptr);
    EXPECT_NE(b.find("bmc_depth"), nullptr);
    EXPECT_EQ(b.find("fuzz_execs"), nullptr);
}

TEST(TelemetrySchema, ArtifactPointersEmittedOnlyWhenPresent)
{
    // Schema v4: artifact pointers appear exactly when the campaign
    // wrote the files, as string paths.
    const json::Value with = recordToJson(exploitRecord());
    const json::Value *queries = with.find("queries_jsonl");
    ASSERT_NE(queries, nullptr);
    ASSERT_TRUE(queries->isString());
    EXPECT_EQ(queries->asString(), "artifacts/job0_queries.jsonl");
    const json::Value *search = with.find("search_jsonl");
    ASSERT_NE(search, nullptr);
    ASSERT_TRUE(search->isString());

    JobRecord bare = exploitRecord();
    bare.result.queriesArtifact.clear();
    bare.result.searchArtifact.clear();
    const json::Value without = recordToJson(bare);
    EXPECT_EQ(without.find("queries_jsonl"), nullptr);
    EXPECT_EQ(without.find("search_jsonl"), nullptr);
}

TEST(QuerylogSchema, RecordJsonShapeIsPinned)
{
    // The queries.jsonl line shape is a downstream contract exactly like
    // the campaign record: key set, order, and value encodings pinned.
    smt::querylog::Record r;
    r.id = 7;
    r.job = 2;
    r.iteration = 4;
    r.origin = "a01_test";
    r.assumptions = 9;
    r.retry = 1;
    r.conflicts = 100;
    r.decisions = 200;
    r.propagations = 300;
    r.restarts = 5;
    r.learntLitsSaved = 13;
    r.wallUs = 4567;
    r.result = 1;
    r.incremental = true;

    const json::Value v = smt::querylog::recordToJson(r);
    const std::vector<std::string> expected{
        "q",         "job",          "iteration",
        "origin",    "assumptions",  "retry",
        "result",    "incremental",  "conflicts",
        "decisions", "propagations", "restarts",
        "learnt_lits_saved", "wall_us"};
    std::vector<std::string> emitted;
    for (const auto &[key, value] : v.members())
        emitted.push_back(key);
    EXPECT_EQ(emitted, expected);
    EXPECT_EQ(v.find("result")->asString(), "unsat");
    EXPECT_EQ(v.find("wall_us")->asInt(), 4567);
    EXPECT_TRUE(v.find("incremental")->asBool());
    EXPECT_EQ(smt::querylog::kQuerylogSchemaVersion, 4);
}

TEST(QuerylogSchema, JsonlMetaLineCarriesTheAccountingTotals)
{
    smt::querylog::Drained d;
    d.recorded = 5;
    d.dropped = 2;
    d.totalWallUs = 987654;
    smt::querylog::Record r;
    r.id = 1;
    r.wallUs = 10;
    d.records.push_back(r);

    std::ostringstream os;
    smt::querylog::writeJsonl(os, d);
    std::istringstream in(os.str());
    std::string meta_line;
    ASSERT_TRUE(std::getline(in, meta_line));
    const json::Value meta = json::parse(meta_line);
    ASSERT_TRUE(meta.isObject());
    EXPECT_EQ(meta.find("meta")->asString(), "querylog");
    EXPECT_EQ(meta.find("schema_version")->asInt(),
              smt::querylog::kQuerylogSchemaVersion);
    EXPECT_EQ(meta.find("recorded")->asInt(), 5);
    EXPECT_EQ(meta.find("dropped")->asInt(), 2);
    // total_wall_us covers every recorded query, dropped included — the
    // invariant that keeps the artifact in agreement with solve_us.
    EXPECT_EQ(meta.find("total_wall_us")->asInt(), 987654);
    std::string record_line;
    ASSERT_TRUE(std::getline(in, record_line));
    EXPECT_TRUE(json::parse(record_line).isObject());
    EXPECT_FALSE(std::getline(in, record_line));
}

TEST(QuerylogSchema, SearchEventJsonShapeIsPinned)
{
    bse::recorder::Event e;
    e.us = 1000;
    e.type = "reject";
    e.detail = "replay_validation_rejects";
    e.iteration = 3;
    e.a = 2;
    e.b = 0;
    const json::Value v = bse::recorder::eventToJson(e);
    std::vector<std::string> emitted;
    for (const auto &[key, value] : v.members())
        emitted.push_back(key);
    const std::vector<std::string> expected{"us", "type",      "detail",
                                            "iteration", "a", "b"};
    EXPECT_EQ(emitted, expected);
    EXPECT_EQ(v.find("type")->asString(), "reject");
    EXPECT_EQ(bse::recorder::kSearchSchemaVersion, 1);

    // Empty details are elided, not emitted as "".
    e.detail = "";
    EXPECT_EQ(bse::recorder::eventToJson(e).find("detail"), nullptr);
}

TEST(TelemetrySchema, FuzzRecordsCarryTheFuzzFields)
{
    const json::Value f = recordToJson(fuzzRecord());
    EXPECT_EQ(f.find("iterations"), nullptr);
    EXPECT_EQ(f.find("bmc_depth"), nullptr);
    for (const char *key :
         {"fuzz_execs", "fuzz_instructions", "fuzz_corpus_size",
          "fuzz_coverage_points", "fuzz_coverage_total",
          "fuzz_divergences", "fuzz_handoffs", "fuzz_streams"})
        EXPECT_NE(f.find(key), nullptr) << key;

    const json::Value *execs = f.find("fuzz_execs");
    ASSERT_NE(execs, nullptr);
    EXPECT_EQ(execs->asInt(), 512);

    // Streams are arrays of zero-padded hex instruction words: directly
    // replayable, and immune to JSON number precision.
    const json::Value *streams = f.find("fuzz_streams");
    ASSERT_NE(streams, nullptr);
    ASSERT_TRUE(streams->isArray());
    ASSERT_EQ(streams->items().size(), 2u);
    const json::Value &first = streams->items()[0];
    ASSERT_TRUE(first.isArray());
    ASSERT_EQ(first.items().size(), 2u);
    ASSERT_TRUE(first.items()[0].isString());
    EXPECT_EQ(first.items()[0].asString(), "9c200011");
}

} // namespace
