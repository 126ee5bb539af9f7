#include "trace/fold.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/json.hh"
#include "util/strutil.hh"

namespace coppelia::trace
{

const FoldRow *
FoldReport::find(const std::string &name) const
{
    for (const FoldRow &row : rows) {
        if (row.name == name)
            return &row;
    }
    return nullptr;
}

namespace
{

struct OpenSpan
{
    std::uint64_t endUs = 0;
    std::uint64_t childUs = 0;
    const Event *ev = nullptr;
};

} // namespace

FoldReport
foldTracks(const std::vector<TrackEvents> &tracks)
{
    FoldReport report;
    std::map<std::string, FoldRow> rows;
    std::uint64_t min_start = ~std::uint64_t(0);
    std::uint64_t max_end = 0;

    for (const TrackEvents &track : tracks) {
        std::vector<const Event *> spans;
        for (const Event &ev : track.events) {
            if (ev.phase == 'X')
                spans.push_back(&ev);
            else if (ev.phase == 'i')
                ++rows[ev.name ? ev.name : ""].count; // no time
        }
        if (spans.empty())
            continue;
        ++report.tracks;

        // Parent spans start earlier (or start together and last longer)
        // than the spans nested inside them, so a single sorted sweep
        // with a stack of open spans recovers the nesting.
        std::sort(spans.begin(), spans.end(),
                  [](const Event *a, const Event *b) {
                      if (a->startUs != b->startUs)
                          return a->startUs < b->startUs;
                      return a->durUs > b->durUs;
                  });

        std::vector<OpenSpan> stack;
        auto close = [&](const OpenSpan &open) {
            FoldRow &row = rows[open.ev->name ? open.ev->name : ""];
            ++row.count;
            row.totalUs += open.ev->durUs;
            const std::uint64_t covered =
                std::min(open.childUs, open.ev->durUs);
            row.selfUs += open.ev->durUs - covered;
            if (!stack.empty())
                stack.back().childUs += open.ev->durUs;
        };

        for (const Event *ev : spans) {
            ++report.spanCount;
            min_start = std::min(min_start, ev->startUs);
            max_end = std::max(max_end, ev->startUs + ev->durUs);
            while (!stack.empty() && stack.back().endUs <= ev->startUs) {
                OpenSpan open = stack.back();
                stack.pop_back();
                close(open);
            }
            stack.push_back(OpenSpan{ev->startUs + ev->durUs, 0, ev});
        }
        while (!stack.empty()) {
            OpenSpan open = stack.back();
            stack.pop_back();
            close(open);
        }
    }

    if (report.spanCount > 0)
        report.wallUs = max_end - min_start;
    report.rows.reserve(rows.size());
    for (auto &[name, row] : rows) {
        row.name = name;
        report.rows.push_back(row);
    }
    std::sort(report.rows.begin(), report.rows.end(),
              [](const FoldRow &a, const FoldRow &b) {
                  if (a.totalUs != b.totalUs)
                      return a.totalUs > b.totalUs;
                  return a.name < b.name;
              });
    return report;
}

FoldReport
foldLive()
{
    return foldTracks(snapshot());
}

bool
loadChromeTraceFile(const std::string &path, std::vector<TrackEvents> *out,
                    std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    std::string parse_error;
    json::Value doc = json::parse(buf.str(), &parse_error);
    const json::Value *events = nullptr;
    if (doc.isObject())
        events = doc.find("traceEvents");
    else if (doc.isArray())
        events = &doc; // bare trace-event arrays are also valid
    if (!events || !events->isArray()) {
        if (error)
            *error = "'" + path + "' is not a Chrome trace document" +
                     (parse_error.empty() ? "" : ": " + parse_error);
        return false;
    }

    std::map<int, TrackEvents> tracks;
    for (const json::Value &ev : events->items()) {
        if (!ev.isObject())
            continue;
        const json::Value *ph = ev.find("ph");
        const json::Value *name = ev.find("name");
        const json::Value *tid = ev.find("tid");
        if (!ph || !ph->isString() || !name || !name->isString())
            continue;
        const int track_id =
            tid && tid->isNumber() ? static_cast<int>(tid->asInt()) : 0;
        TrackEvents &track = tracks[track_id];
        track.tid = track_id;

        if (ph->asString() == "M") {
            if (name->asString() == "thread_name") {
                const json::Value *args = ev.find("args");
                const json::Value *tname =
                    args && args->isObject() ? args->find("name") : nullptr;
                if (tname && tname->isString())
                    track.threadName = tname->asString();
            }
            continue;
        }
        if (ph->asString() != "X" && ph->asString() != "i")
            continue;
        const json::Value *ts = ev.find("ts");
        const json::Value *dur = ev.find("dur");
        if (!ts || !ts->isNumber())
            continue;
        Event out_ev;
        out_ev.name = internString(name->asString());
        out_ev.phase = ph->asString()[0];
        out_ev.startUs = static_cast<std::uint64_t>(ts->asNumber());
        out_ev.durUs = dur && dur->isNumber()
                           ? static_cast<std::uint64_t>(dur->asNumber())
                           : 0;
        track.events.push_back(out_ev);
    }

    out->clear();
    for (auto &[track_id, track] : tracks) {
        (void)track_id;
        out->push_back(std::move(track));
    }
    return true;
}

namespace
{

std::string
fmtUs(std::uint64_t us)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(us) / 1e6);
    return std::string(buf) + "s";
}

std::string
fmtPct(std::uint64_t part, std::uint64_t whole)
{
    if (whole == 0)
        return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%",
                  100.0 * static_cast<double>(part) /
                      static_cast<double>(whole));
    return buf;
}

} // namespace

void
writeFoldReport(std::ostream &out, const FoldReport &report)
{
    out << "per-phase breakdown: " << report.spanCount << " spans on "
        << report.tracks << " tracks, " << fmtUs(report.wallUs)
        << " timeline extent\n\n";

    const std::vector<int> widths{28, 10, 12, 12, 8};
    auto row = [&](const std::vector<std::string> &cells) {
        std::string line;
        for (std::size_t i = 0; i < cells.size(); ++i)
            line += padRight(cells[i],
                             static_cast<std::size_t>(widths[i])) + " ";
        out << line << "\n";
    };
    row({"phase", "count", "total", "self", "self%"});
    std::size_t rule_width = 0;
    for (int w : widths)
        rule_width += static_cast<std::size_t>(w) + 1;
    out << std::string(rule_width, '-') << "\n";

    std::uint64_t self_sum = 0;
    for (const FoldRow &r : report.rows)
        self_sum += r.selfUs;
    for (const FoldRow &r : report.rows) {
        row({r.name, std::to_string(r.count), fmtUs(r.totalUs),
             fmtUs(r.selfUs), fmtPct(r.selfUs, self_sum)});
    }
}

} // namespace coppelia::trace
