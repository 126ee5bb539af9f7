/**
 * @file
 * Trace folding: turn the span stream of trace.hh (or a Chrome trace
 * JSON file exported by it) into a per-phase time breakdown — the data
 * behind the paper's Tables III/IV. For every span name the fold reports
 * the call count, total (inclusive) time, and self time (total minus the
 * time covered by spans nested inside it on the same track), so "where
 * did the campaign's wall-clock go" is one table instead of a timeline
 * crawl: e.g. `bse.search` total ≈ the whole engine, while its self time
 * excludes the `smt.solve` leaves that dominate it. Instant events
 * (`bse.refute`, `bse.fallback`, ...) fold to rows of their own that
 * count occurrences and carry no time.
 */

#ifndef COPPELIA_TRACE_FOLD_HH
#define COPPELIA_TRACE_FOLD_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace coppelia::trace
{

/** Aggregate for one span or instant name across every track. */
struct FoldRow
{
    std::string name;
    std::uint64_t count = 0; ///< spans, or instants (which have no time)
    std::uint64_t totalUs = 0; ///< inclusive (sum of span durations)
    std::uint64_t selfUs = 0;  ///< exclusive (minus nested spans)
};

/** The folded breakdown plus the timeline extent it was computed over. */
struct FoldReport
{
    std::vector<FoldRow> rows; ///< sorted by totalUs, descending
    std::uint64_t spanCount = 0; ///< 'X' events only
    std::uint64_t wallUs = 0; ///< max span end − min span start
    int tracks = 0;           ///< tracks that carried at least one span

    /** Row for @p name; nullptr when absent. */
    const FoldRow *find(const std::string &name) const;
};

/** Fold the given tracks ('X' spans and 'i' instants; counters are
 *  ignored). */
FoldReport foldTracks(const std::vector<TrackEvents> &tracks);

/** Fold everything currently buffered by the live trace. */
FoldReport foldLive();

/**
 * Load a Chrome trace JSON document (as written by writeChromeTrace, but
 * any file of "X" events with pid/tid/ts/dur and "i" events with
 * pid/tid/ts loads) back into tracks.
 * Returns false and fills @p error on unreadable or malformed input.
 */
bool loadChromeTraceFile(const std::string &path,
                         std::vector<TrackEvents> *out, std::string *error);

/** Render the breakdown as a fixed-width table. */
void writeFoldReport(std::ostream &out, const FoldReport &report);

} // namespace coppelia::trace

#endif // COPPELIA_TRACE_FOLD_HH
