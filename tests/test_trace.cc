/**
 * @file
 * The tracing subsystem: span nesting across threads, Chrome trace JSON
 * validity (parsed back with the in-tree JSON parser), the
 * zero-allocation guarantee when tracing is disabled, buffer-cap
 * accounting, string interning, and fold correctness (total vs. self
 * time, instant counts) including the file round-trip.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "counting_alloc.hh"
#include "trace/fold.hh"
#include "trace/trace.hh"
#include "util/json.hh"

using namespace coppelia;

namespace
{

/** Reset global trace state between tests (the registry is process-wide). */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::setEnabled(false);
        trace::clear();
        trace::setMaxEventsPerThread(std::size_t(1) << 22);
    }

    void
    TearDown() override
    {
        trace::setEnabled(false);
        trace::clear();
    }
};

const trace::TrackEvents *
findTrack(const std::vector<trace::TrackEvents> &tracks,
          const std::string &name)
{
    for (const trace::TrackEvents &t : tracks) {
        if (t.threadName == name)
            return &t;
    }
    return nullptr;
}

TEST_F(TraceTest, DisabledSpanRecordsNothing)
{
    const std::size_t before = trace::eventCount();
    {
        trace::Span span("never", "test");
        trace::counter("never.counter", 1.0);
        trace::instant("never.instant");
    }
    EXPECT_EQ(trace::eventCount(), before);
}

TEST_F(TraceTest, DisabledModeAllocatesNothing)
{
    // Touch the thread buffer once so first-use registration (which does
    // allocate, on the first *enabled* event) is out of the picture.
    (void)trace::threadEventCount();
    ASSERT_FALSE(trace::enabled());

    const std::uint64_t before = allocationCount();
    for (int i = 0; i < 1000; ++i) {
        trace::Span span("hot", "test");
        trace::Span inner("hot.inner", nullptr);
        trace::counter("hot.counter", static_cast<double>(i));
        trace::instant("hot.instant", "test");
        inner.close();
    }
    EXPECT_EQ(allocationCount(), before)
        << "disabled tracing must not allocate";
}

TEST_F(TraceTest, SpanNestingWithinOneThread)
{
    trace::setEnabled(true);
    {
        trace::Span outer("outer", "test");
        {
            trace::Span inner("inner", "test");
        }
    }
    trace::setEnabled(false);

    const auto tracks = trace::snapshot();
    const trace::Event *outer = nullptr, *inner = nullptr;
    for (const auto &track : tracks) {
        for (const trace::Event &ev : track.events) {
            if (ev.name == std::string("outer"))
                outer = &ev;
            if (ev.name == std::string("inner"))
                inner = &ev;
        }
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_GE(inner->startUs, outer->startUs);
    EXPECT_LE(inner->startUs + inner->durUs, outer->startUs + outer->durUs);
}

TEST_F(TraceTest, SpansLandOnPerThreadTracks)
{
    trace::setEnabled(true);
    auto work = [](const char *thread_name, const char *span_name) {
        trace::setThreadName(thread_name);
        trace::Span outer(span_name, "test");
        trace::Span inner("nested", "test");
    };
    std::thread a(work, "track-a", "span-a");
    std::thread b(work, "track-b", "span-b");
    a.join();
    b.join();
    trace::setEnabled(false);

    const auto tracks = trace::snapshot();
    const trace::TrackEvents *ta = findTrack(tracks, "track-a");
    const trace::TrackEvents *tb = findTrack(tracks, "track-b");
    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tb, nullptr);
    EXPECT_NE(ta->tid, tb->tid);
    ASSERT_EQ(ta->events.size(), 2u);
    ASSERT_EQ(tb->events.size(), 2u);
    // Destruction order: the nested span closes first on each track.
    EXPECT_STREQ(ta->events[0].name, "nested");
    EXPECT_STREQ(ta->events[1].name, "span-a");
    EXPECT_STREQ(tb->events[0].name, "nested");
    EXPECT_STREQ(tb->events[1].name, "span-b");
}

TEST_F(TraceTest, ChromeExportIsValidJson)
{
    trace::setEnabled(true);
    trace::setThreadName("json \"track\"");
    {
        trace::Span span(trace::internString("needs \\escaping\t\"too\""),
                         "test");
        trace::counter("a.counter", 2.5);
        trace::instant("an.instant", "test");
    }
    trace::setEnabled(false);

    std::ostringstream os;
    trace::writeChromeTrace(os);

    std::string error;
    const json::Value doc = json::parse(os.str(), &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_TRUE(doc.isObject());
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    bool saw_span = false, saw_counter = false, saw_instant = false;
    bool saw_thread_name = false;
    for (const json::Value &ev : events->items()) {
        ASSERT_TRUE(ev.isObject());
        ASSERT_NE(ev.find("name"), nullptr);
        ASSERT_NE(ev.find("ph"), nullptr);
        ASSERT_NE(ev.find("pid"), nullptr);
        ASSERT_NE(ev.find("tid"), nullptr);
        const std::string ph = ev.find("ph")->asString();
        const std::string name = ev.find("name")->asString();
        if (ph == "X" && name == "needs \\escaping\t\"too\"") {
            saw_span = true;
            EXPECT_NE(ev.find("dur"), nullptr);
            EXPECT_NE(ev.find("ts"), nullptr);
        } else if (ph == "C" && name == "a.counter") {
            saw_counter = true;
            const json::Value *args = ev.find("args");
            ASSERT_NE(args, nullptr);
            ASSERT_NE(args->find("value"), nullptr);
            EXPECT_DOUBLE_EQ(args->find("value")->asNumber(), 2.5);
        } else if (ph == "i" && name == "an.instant") {
            saw_instant = true;
        } else if (ph == "M" && name == "thread_name") {
            const json::Value *args = ev.find("args");
            ASSERT_NE(args, nullptr);
            if (args->find("name") &&
                args->find("name")->asString() == "json \"track\"")
                saw_thread_name = true;
        }
    }
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_counter);
    EXPECT_TRUE(saw_instant);
    EXPECT_TRUE(saw_thread_name);
}

TEST_F(TraceTest, BufferCapDropsAndCounts)
{
    trace::setMaxEventsPerThread(4);
    trace::setEnabled(true);
    for (int i = 0; i < 10; ++i)
        trace::instant("capped");
    trace::setEnabled(false);
    EXPECT_EQ(trace::threadEventCount(), 4u);
    EXPECT_EQ(trace::droppedEventCount(), 6u);
    trace::clear();
    EXPECT_EQ(trace::droppedEventCount(), 0u);
}

TEST_F(TraceTest, InternStringDeduplicates)
{
    const char *a = trace::internString("job:b01");
    const char *b = trace::internString("job:b01");
    const char *c = trace::internString("job:b02");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_STREQ(a, "job:b01");
}

trace::Event
span(const char *name, std::uint64_t start, std::uint64_t dur)
{
    trace::Event ev;
    ev.name = name;
    ev.phase = 'X';
    ev.startUs = start;
    ev.durUs = dur;
    return ev;
}

TEST_F(TraceTest, FoldComputesSelfTime)
{
    trace::TrackEvents track;
    track.tid = 1;
    // A [0,100] containing B [10,40) and C [50,60): A self = 100-40 = 60.
    track.events = {span("A", 0, 100), span("B", 10, 30),
                    span("C", 50, 10)};
    const trace::FoldReport report = trace::foldTracks({track});

    ASSERT_EQ(report.spanCount, 3u);
    EXPECT_EQ(report.wallUs, 100u);
    EXPECT_EQ(report.tracks, 1);
    const trace::FoldRow *a = report.find("A");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->count, 1u);
    EXPECT_EQ(a->totalUs, 100u);
    EXPECT_EQ(a->selfUs, 60u);
    const trace::FoldRow *b = report.find("B");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->totalUs, 30u);
    EXPECT_EQ(b->selfUs, 30u);
    // Rows sort by total time, descending.
    EXPECT_EQ(report.rows.front().name, "A");
}

TEST_F(TraceTest, FoldAggregatesRecursiveSpans)
{
    trace::TrackEvents track;
    track.tid = 1;
    track.events = {span("f", 0, 100), span("f", 20, 30)};
    const trace::FoldReport report = trace::foldTracks({track});
    const trace::FoldRow *f = report.find("f");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->count, 2u);
    EXPECT_EQ(f->totalUs, 130u);
    // Outer self 70 (100 - the nested 30) + inner self 30.
    EXPECT_EQ(f->selfUs, 100u);
}

TEST_F(TraceTest, FoldKeepsTracksIndependent)
{
    trace::TrackEvents t1, t2;
    t1.tid = 1;
    t1.events = {span("work", 0, 50)};
    t2.tid = 2;
    // Overlaps t1's span in time, but on another track: no nesting.
    t2.events = {span("work", 10, 50)};
    const trace::FoldReport report = trace::foldTracks({t1, t2});
    const trace::FoldRow *w = report.find("work");
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->count, 2u);
    EXPECT_EQ(w->totalUs, 100u);
    EXPECT_EQ(w->selfUs, 100u);
    EXPECT_EQ(report.tracks, 2);
}

TEST_F(TraceTest, FoldCountsInstantsWithoutTime)
{
    trace::TrackEvents track;
    track.tid = 1;
    trace::Event refute, stitch, sample;
    refute.name = "bse.refute";
    refute.phase = 'i';
    refute.startUs = 20;
    stitch.name = "bse.stitch";
    stitch.phase = 'i';
    stitch.startUs = 120; // past every span: must not widen the extent
    sample.name = "queue";
    sample.phase = 'C';
    sample.startUs = 30;
    track.events = {span("A", 0, 100), refute, span("B", 10, 30), refute,
                    stitch, sample};
    const trace::FoldReport report = trace::foldTracks({track});

    const trace::FoldRow *r = report.find("bse.refute");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->count, 2u);
    EXPECT_EQ(r->totalUs, 0u);
    EXPECT_EQ(r->selfUs, 0u);
    ASSERT_NE(report.find("bse.stitch"), nullptr);
    EXPECT_EQ(report.find("bse.stitch")->count, 1u);
    EXPECT_EQ(report.find("queue"), nullptr); // counters stay out
    // Spans fold as before: instants take no time from them.
    EXPECT_EQ(report.spanCount, 2u);
    EXPECT_EQ(report.wallUs, 100u);
    EXPECT_EQ(report.find("A")->selfUs, 70u);
    EXPECT_EQ(report.rows.size(), 4u);
    EXPECT_EQ(report.rows.front().name, "A");
}

TEST_F(TraceTest, TraceFileRoundTripsThroughFold)
{
    trace::setEnabled(true);
    {
        trace::Span outer("roundtrip.outer", "test");
        trace::Span inner("roundtrip.inner", "test");
    }
    trace::setEnabled(false);
    const trace::FoldReport live = trace::foldLive();

    const std::string path =
        ::testing::TempDir() + "coppelia_test_trace.json";
    ASSERT_TRUE(trace::writeChromeTraceFile(path));

    std::vector<trace::TrackEvents> loaded;
    std::string error;
    ASSERT_TRUE(trace::loadChromeTraceFile(path, &loaded, &error)) << error;
    const trace::FoldReport folded = trace::foldTracks(loaded);

    ASSERT_EQ(folded.spanCount, live.spanCount);
    ASSERT_EQ(folded.rows.size(), live.rows.size());
    for (std::size_t i = 0; i < folded.rows.size(); ++i) {
        EXPECT_EQ(folded.rows[i].name, live.rows[i].name);
        EXPECT_EQ(folded.rows[i].totalUs, live.rows[i].totalUs);
        EXPECT_EQ(folded.rows[i].selfUs, live.rows[i].selfUs);
    }
    std::remove(path.c_str());
}

TEST_F(TraceTest, InstantsSurviveTheTraceFileRoundTrip)
{
    trace::setEnabled(true);
    {
        trace::Span search("roundtrip.search", "test");
        trace::instant("roundtrip.refute", "test");
        trace::instant("roundtrip.refute", "test");
    }
    trace::setEnabled(false);
    const trace::FoldReport live = trace::foldLive();

    const std::string path =
        ::testing::TempDir() + "coppelia_test_instants.json";
    ASSERT_TRUE(trace::writeChromeTraceFile(path));
    std::vector<trace::TrackEvents> loaded;
    std::string error;
    ASSERT_TRUE(trace::loadChromeTraceFile(path, &loaded, &error)) << error;
    std::remove(path.c_str());

    std::size_t instants = 0;
    for (const trace::TrackEvents &t : loaded) {
        for (const trace::Event &ev : t.events) {
            if (ev.phase == 'i') {
                ++instants;
                EXPECT_STREQ(ev.name, "roundtrip.refute");
                EXPECT_EQ(ev.durUs, 0u);
            }
        }
    }
    EXPECT_EQ(instants, 2u);

    const trace::FoldReport folded = trace::foldTracks(loaded);
    const trace::FoldRow *live_row = live.find("roundtrip.refute");
    const trace::FoldRow *row = folded.find("roundtrip.refute");
    ASSERT_NE(live_row, nullptr);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->count, 2u);
    EXPECT_EQ(live_row->count, 2u);
    EXPECT_EQ(row->totalUs, 0u);
    EXPECT_EQ(folded.spanCount, live.spanCount);
}

TEST_F(TraceTest, LoadReportsMissingAndMalformedFiles)
{
    std::vector<trace::TrackEvents> out;
    std::string error;
    EXPECT_FALSE(trace::loadChromeTraceFile(
        "/nonexistent/coppelia.trace.json", &out, &error));
    EXPECT_NE(error.find("/nonexistent/coppelia.trace.json"),
              std::string::npos);

    const std::string path =
        ::testing::TempDir() + "coppelia_bad_trace.json";
    {
        std::ofstream f(path);
        f << "{not json";
    }
    error.clear();
    EXPECT_FALSE(trace::loadChromeTraceFile(path, &out, &error));
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

} // namespace
