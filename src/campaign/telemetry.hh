/**
 * @file
 * Campaign telemetry: the JSONL record schema and the end-of-run summary
 * table. One JSON object per finished job:
 *
 *   {"job":0,"kind":"exploit","processor":"OR1200","bug":"b01",
 *    "assertion":"a01_...","status":"completed","outcome":"found",
 *    "found":true,"replayable":true,"trigger_instructions":2,
 *    "iterations":5,"seconds":0.41,"worker":3,
 *    "seed":123456789,"stats":{"solver.queries":17,...}}
 *
 * The summary reproduces the layout of the paper's Tables II/VI: one row
 * per bug with the paper-reported values beside the measured ones, a
 * per-kind totals block, and the §IV-E performance digest.
 */

#ifndef COPPELIA_CAMPAIGN_TELEMETRY_HH
#define COPPELIA_CAMPAIGN_TELEMETRY_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/result_store.hh"
#include "campaign/scheduler.hh"
#include "util/json.hh"

namespace coppelia::campaign
{

/**
 * The JSONL record schema version, emitted as the first field of every
 * record (and echoed in the end-of-run summary) so downstream consumers
 * can dispatch on it. History:
 *
 *   1  the pre-versioned records (no schema_version field)
 *   2  adds schema_version itself
 *   3  adds the fuzz job kind: `kind` may now be "fuzz", and fuzz
 *      records carry the fuzz_* fields instead of outcome/iterations/
 *      bmc_depth
 *   4  adds the forensics artifact pointers: `queries_jsonl` and
 *      `search_jsonl` name the per-job solver query log and search
 *      recorder files when the campaign ran with an artifact directory
 *      (absent otherwise); `stats` gains the querylog and search
 *      recorder accounting counters
 *   5  removes `attempts`: every job runs once, and the `retryable`
 *      status is gone (an exploit search that ran out of budget is
 *      `completed` with outcome `budget-exhausted`)
 *   6  removes `sim_backend`: every job simulates on the one levelized
 *      schedule (rtl::Simulator), so there is no substrate to name
 *
 * Bump it whenever a documented field changes meaning, is removed, or
 * is renamed; adding a field is backward compatible and does not bump.
 */
constexpr int kJsonlSchemaVersion = 6;

/**
 * One documented top-level field of the JSONL record. The schema is a
 * compatibility contract: every key recordToJson emits must appear here
 * (the schema test enforces it), and removing or renaming a key is a
 * breaking change for downstream consumers of campaign.jsonl.
 */
struct JsonlField
{
    const char *key;
    const char *description;
};

/** The documented JSONL record schema, in emission order. Keys marked
 *  kind-specific in their description appear on a subset of records. */
const std::vector<JsonlField> &jsonlSchema();

/** Build the JSON object for one record. */
json::Value recordToJson(const JobRecord &record);

/** Write one record as a single JSONL line (newline-terminated). */
void writeJsonlRecord(std::ostream &out, const JobRecord &record);

/**
 * Write the end-of-run summary: per-processor tables in the Table II/VI
 * layout (paper-reported columns from the bug registry beside measured
 * ones, baseline columns when the campaign ran baseline jobs), campaign
 * totals, scheduler accounting, and the §IV-E performance digest.
 */
void writeSummary(std::ostream &out, const CampaignSpec &spec,
                  const std::vector<JobRecord> &records,
                  const SchedulerReport &report);

} // namespace coppelia::campaign

#endif // COPPELIA_CAMPAIGN_TELEMETRY_HH
