/**
 * @file
 * The search recorder: a per-thread event stream of what a search engine
 * actually did, for post-mortem forensics. The backward engine emits
 * candidate-tree events — candidate generated, stitched into the next
 * level, shrunk toward reset, rejected with its reason (fast-validation
 * diff/repeat/marching, bound, replay-reject, or unsat feedback) — plus
 * one frontier-size event per iteration, so a b19-class search that
 * burned its budget explains *where*. Fuzz jobs contribute
 * coverage-over-time checkpoints and divergence events to the same
 * stream, giving the report's coverage timeline.
 *
 * A campaign job runs on one worker thread, so the campaign layer drains
 * the calling thread's buffer at job end into the per-job search.jsonl
 * artifact. Recording is off by default (a bare engine/fuzzer run keeps
 * zero overhead beyond one relaxed load per event site) and is switched
 * on for the whole process by the campaign when artifact recording is
 * configured. The per-thread buffer is capped; overflow drops the newest
 * events and is reported in the drain's meta line.
 */

#ifndef COPPELIA_BSE_RECORDER_HH
#define COPPELIA_BSE_RECORDER_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "util/json.hh"

namespace coppelia::bse::recorder
{

/** The per-job search.jsonl artifact schema version (meta line). */
constexpr int kSearchSchemaVersion = 1;

/**
 * One search event. `type` names the event; `detail` refines it (the
 * reject reason, the diverging field); `a`/`b` are type-specific
 * payloads documented per emitter:
 *
 *   iteration   a = frontier depth (levels), b = feedback rounds so far
 *   candidate   a = frontier depth; detail "reset" when it closed the
 *               search from the reset state
 *   shrink      a = whole-register pins, b = bit pins this candidate
 *   reject      detail = reason stat name; a = frontier depth
 *   feedback    a = frontier depth after popping; detail "unsat" when
 *               the level produced no candidate at all
 *   refuted     a = frontier depth (1); one query showed that no wider
 *               Eq. 1 bound holds a violation, so the level ends there
 *   stitch      a = new frontier depth, b = pinned registers stitched
 *   fallback    incremental attempt conceded to the fresh backend
 *   coverage    a = executions so far, b = coverage points hit
 *   divergence  detail = mismatching field; a = executions so far
 *   handoff     a = 1 when the concolic hand-off fired
 *
 * `type` and `detail` must be string literals or interned strings.
 */
struct Event
{
    std::uint64_t us = 0; ///< metrics::nowUs() at emission
    const char *type = "";
    const char *detail = "";
    int iteration = -1; ///< engine iteration (-1 outside a search)
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/** Global recording switch (one relaxed load per event site). */
bool enabled();
void setEnabled(bool on);

/** Emit one event on the calling thread's buffer (no-op when disabled
 *  or the buffer is full; overflow is counted). */
void event(const char *type, const char *detail, int iteration,
           std::uint64_t a = 0, std::uint64_t b = 0);

/** What one drain returns. */
struct Drained
{
    std::vector<Event> events;
    std::uint64_t dropped = 0; ///< events lost to the buffer cap
};

/** Drain and reset the calling thread's buffer (owning thread only). */
Drained drainThread();

json::Value eventToJson(const Event &e);

/** Write a drained buffer as JSONL: a meta line
 *  (`{"meta":"search","schema_version":1,"events":N,"dropped":N}`)
 *  followed by one line per event. */
void writeJsonl(std::ostream &out, const Drained &d);

} // namespace coppelia::bse::recorder

#endif // COPPELIA_BSE_RECORDER_HH
