/**
 * @file
 * The per-query solver forensics log: context stamping, drain semantics
 * (order, accounting, reset), ring-overflow behavior (slowest queries
 * survive any number of overwrites; total_wall_us still covers dropped
 * records), the process-wide slowest view, and the allocation-free
 * guarantee of the record() hot path (counting operator new). The
 * search recorder's enable gate and drain share the file. The JSON
 * shape tests live in test_telemetry_schema.cc.
 */

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bse/recorder.hh"
#include "counting_alloc.hh"
#include "solver/querylog.hh"

using namespace coppelia;
namespace querylog = smt::querylog;

namespace
{

querylog::Record
rec(std::uint64_t wall_us)
{
    querylog::Record r;
    r.wallUs = wall_us;
    r.conflicts = wall_us / 10;
    return r;
}

class QuerylogTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Start from a clean thread buffer and global view whatever ran
        // before in this binary.
        querylog::drainThread();
        querylog::clearGlobalSlowest();
        querylog::context() = querylog::Context{};
    }
};

TEST_F(QuerylogTest, DrainReturnsRecordsInEmissionOrderAndResets)
{
    querylog::record(rec(10));
    querylog::record(rec(30));
    querylog::record(rec(20));

    querylog::Drained d = querylog::drainThread();
    ASSERT_EQ(d.records.size(), 3u);
    EXPECT_EQ(d.recorded, 3u);
    EXPECT_EQ(d.dropped, 0u);
    EXPECT_EQ(d.totalWallUs, 60u);
    EXPECT_LT(d.records[0].id, d.records[1].id);
    EXPECT_LT(d.records[1].id, d.records[2].id);
    EXPECT_EQ(d.records[0].wallUs, 10u);
    EXPECT_EQ(d.records[2].wallUs, 20u);

    querylog::Drained again = querylog::drainThread();
    EXPECT_TRUE(again.records.empty());
    EXPECT_EQ(again.recorded, 0u);
    EXPECT_EQ(again.totalWallUs, 0u);
}

TEST_F(QuerylogTest, ContextStampsEveryRecord)
{
    querylog::context().job = 7;
    querylog::context().iteration = 3;
    querylog::context().origin = "a01_test";
    querylog::context().retry = 1;
    querylog::record(rec(5));
    querylog::context() = querylog::Context{};
    querylog::record(rec(6));

    querylog::Drained d = querylog::drainThread();
    ASSERT_EQ(d.records.size(), 2u);
    EXPECT_EQ(d.records[0].job, 7);
    EXPECT_EQ(d.records[0].iteration, 3);
    EXPECT_STREQ(d.records[0].origin, "a01_test");
    EXPECT_EQ(d.records[0].retry, 1u);
    EXPECT_EQ(d.records[1].job, -1);
    EXPECT_EQ(d.records[1].iteration, -1);
}

TEST_F(QuerylogTest, RingOverflowKeepsTheSlowestAndTheAccounting)
{
    // One pathologically slow query early, then enough fast ones to
    // overwrite the ring many times over.
    querylog::record(rec(1000000));
    const std::size_t chatter = 9000;
    for (std::size_t i = 0; i < chatter; ++i)
        querylog::record(rec(1 + i % 7));

    querylog::Drained d = querylog::drainThread();
    EXPECT_EQ(d.recorded, chatter + 1);
    EXPECT_EQ(d.dropped, d.recorded - d.records.size());
    EXPECT_GT(d.dropped, 0u) << "test must overflow the ring";

    // total_wall_us covers the dropped records too.
    std::uint64_t expected = 1000000;
    for (std::size_t i = 0; i < chatter; ++i)
        expected += 1 + i % 7;
    EXPECT_EQ(d.totalWallUs, expected);

    // The slow query survived the overwrites via the top-K slots, and
    // the drain is still sorted by id.
    bool found_slow = false;
    for (std::size_t i = 0; i < d.records.size(); ++i) {
        found_slow = found_slow || d.records[i].wallUs == 1000000;
        if (i > 0) {
            EXPECT_LT(d.records[i - 1].id, d.records[i].id);
        }
    }
    EXPECT_TRUE(found_slow)
        << "ring overflow must not lose the slowest query";
}

TEST_F(QuerylogTest, GlobalSlowestRanksAcrossThreads)
{
    querylog::record(rec(50));
    std::thread other([] {
        querylog::record(rec(500));
        querylog::record(rec(5));
        querylog::drainThread();
    });
    other.join();

    std::vector<querylog::Record> slowest = querylog::globalSlowest();
    ASSERT_GE(slowest.size(), 2u);
    EXPECT_EQ(slowest[0].wallUs, 500u);
    EXPECT_EQ(slowest[1].wallUs, 50u);
    for (std::size_t i = 1; i < slowest.size(); ++i)
        EXPECT_GE(slowest[i - 1].wallUs, slowest[i].wallUs);

    querylog::clearGlobalSlowest();
    EXPECT_TRUE(querylog::globalSlowest().empty());
    querylog::drainThread();
}

TEST_F(QuerylogTest, RecordHotPathDoesNotAllocate)
{
    // Warm up: the first record on a thread registers its buffer (the
    // one-time allocation the discipline allows).
    querylog::record(rec(1));

    const std::uint64_t before = allocationCount();
    for (int i = 0; i < 2000; ++i)
        querylog::record(rec(static_cast<std::uint64_t>(1000000 + i)));
    EXPECT_EQ(allocationCount(), before)
        << "querylog::record must not allocate after registration — "
           "slow records included (global top-K insertion is slot reuse)";
    querylog::drainThread();
    querylog::clearGlobalSlowest();
}

TEST(SearchRecorder, DisabledEmitsNothingEnabledDrainsInOrder)
{
    bse::recorder::drainThread();
    bse::recorder::setEnabled(false);
    bse::recorder::event("candidate", "", 1, 2, 3);
    EXPECT_TRUE(bse::recorder::drainThread().events.empty());

    bse::recorder::setEnabled(true);
    bse::recorder::event("iteration", "", 1, 4, 0);
    bse::recorder::event("reject", "unsat_feedback", 1, 4, 0);
    bse::recorder::setEnabled(false);

    bse::recorder::Drained d = bse::recorder::drainThread();
    ASSERT_EQ(d.events.size(), 2u);
    EXPECT_EQ(d.dropped, 0u);
    EXPECT_STREQ(d.events[0].type, "iteration");
    EXPECT_STREQ(d.events[1].type, "reject");
    EXPECT_STREQ(d.events[1].detail, "unsat_feedback");
    EXPECT_LE(d.events[0].us, d.events[1].us);
}

} // namespace
