/**
 * @file
 * Tests for claim-based work stealing: atomic claim acquisition,
 * TTL expiry and theft, the ClaimedQueue pool semantics, and the
 * end-to-end guarantee that a --serve campaign (including one with
 * a dead peer's stale claims) exports byte-identically to a plain
 * run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/claims.hh"
#include "campaign/export.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"

using namespace mprobe;

namespace
{

namespace fs = std::filesystem;

/** Fresh per-test directory. */
std::string
freshDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "mprobe-claims-" + tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Backdate a claim file's heartbeat by @p seconds. */
void
backdateClaim(const std::string &path, double seconds)
{
    auto stamp = fs::file_time_type::clock::now() -
                 std::chrono::duration_cast<
                     fs::file_time_type::duration>(
                     std::chrono::duration<double>(seconds));
    fs::last_write_time(path, stamp);
}

TEST(Claims, AcquireReleaseReacquire)
{
    std::string dir = freshDir("acquire");
    ClaimDir claims(dir, "w1", 60.0);
    EXPECT_TRUE(claims.enabled());
    EXPECT_TRUE(claims.tryAcquire(42));
    EXPECT_TRUE(fs::exists(claims.pathOf(42)));
    // A fresh claim is not re-acquirable, not even by its holder
    // (pool entries are never handed out twice locally, so a
    // self-re-acquire attempt means a bug).
    EXPECT_FALSE(claims.tryAcquire(42));
    claims.release(42);
    EXPECT_FALSE(fs::exists(claims.pathOf(42)));
    EXPECT_TRUE(claims.tryAcquire(42));
    EXPECT_EQ(claims.acquired(), 2u);
    EXPECT_EQ(claims.stolen(), 0u);
}

TEST(Claims, ClaimFileCarriesWorkerId)
{
    std::string dir = freshDir("id");
    ClaimDir claims(dir, "host-a:123", 60.0);
    ASSERT_TRUE(claims.tryAcquire(7));
    ClaimInfo info;
    ASSERT_TRUE(claims.info(7, info));
    EXPECT_EQ(info.worker, "host-a:123");
    EXPECT_GE(info.ageSeconds, 0.0);
    EXPECT_LT(info.ageSeconds, 30.0);
}

TEST(Claims, RaceExactlyOneWinner)
{
    std::string dir = freshDir("race");
    const int n = 8;
    std::vector<std::unique_ptr<ClaimDir>> dirs;
    for (int i = 0; i < n; ++i)
        dirs.push_back(std::make_unique<ClaimDir>(
            dir, cat("w", i), 60.0));
    // All threads spin on a flag so the open(O_EXCL) calls land as
    // close together as the scheduler allows.
    std::atomic<bool> go{false};
    std::atomic<int> winners{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i)
        threads.emplace_back([&, i]() {
            while (!go.load())
                std::this_thread::yield();
            if (dirs[static_cast<size_t>(i)]->tryAcquire(99))
                ++winners;
        });
    go.store(true);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(winners.load(), 1);
}

TEST(Claims, FreshClaimNotStolen)
{
    std::string dir = freshDir("fresh");
    ClaimDir a(dir, "alive", 60.0);
    ClaimDir b(dir, "thief", 60.0);
    ASSERT_TRUE(a.tryAcquire(1));
    EXPECT_FALSE(b.tryAcquire(1));
    EXPECT_EQ(b.stolen(), 0u);
    // The holder's identity survived the failed theft.
    ClaimInfo info;
    ASSERT_TRUE(b.info(1, info));
    EXPECT_EQ(info.worker, "alive");
}

TEST(Claims, ExpiredClaimStolen)
{
    std::string dir = freshDir("steal");
    ClaimDir dead(dir, "dead", 60.0);
    ClaimDir thief(dir, "thief", 60.0);
    ASSERT_TRUE(dead.tryAcquire(5));
    backdateClaim(dead.pathOf(5), 120.0);
    EXPECT_TRUE(thief.tryAcquire(5));
    EXPECT_EQ(thief.stolen(), 1u);
    ClaimInfo info;
    ASSERT_TRUE(thief.info(5, info));
    EXPECT_EQ(info.worker, "thief");
}

TEST(Claims, HeartbeatPreventsTheft)
{
    std::string dir = freshDir("heartbeat");
    ClaimDir holder(dir, "holder", 60.0);
    ClaimDir thief(dir, "thief", 60.0);
    ASSERT_TRUE(holder.tryAcquire(3));
    backdateClaim(holder.pathOf(3), 120.0);
    // The heartbeat refreshes the mtime of every held claim, so
    // the backdated (otherwise stale) claim becomes fresh again.
    holder.heartbeatHeld();
    EXPECT_FALSE(thief.tryAcquire(3));
}

TEST(Claims, SweepRemovesOnlyStale)
{
    std::string dir = freshDir("sweep");
    ClaimDir claims(dir, "w", 60.0);
    ClaimDir other(dir, "o", 60.0);
    ASSERT_TRUE(claims.tryAcquire(1));
    EXPECT_FALSE(other.sweepIfStale(1));
    EXPECT_TRUE(fs::exists(claims.pathOf(1)));
    backdateClaim(claims.pathOf(1), 120.0);
    EXPECT_TRUE(other.sweepIfStale(1));
    EXPECT_FALSE(fs::exists(claims.pathOf(1)));
    // Sweeping a key with no claim is a no-op.
    EXPECT_FALSE(other.sweepIfStale(1));
}

TEST(Claims, DisabledDirAlwaysAcquires)
{
    ClaimDir claims("", "w", 60.0);
    EXPECT_FALSE(claims.enabled());
    EXPECT_TRUE(claims.tryAcquire(1));
    EXPECT_TRUE(claims.tryAcquire(1));
    claims.release(1);
}

/** A queue fixture: cache + claims over one fresh directory. */
struct QueueFixture
{
    std::string dir;
    ResultCache cache;
    ClaimDir claims;

    explicit QueueFixture(const std::string &tag,
                          double ttl = 60.0)
        : dir(freshDir(tag)), cache(dir), claims(dir, "me", ttl)
    {
    }

    Sample
    sample(uint64_t key) const
    {
        Sample s;
        s.workload = cat("wl-", key);
        s.config = {1, 1};
        s.powerWatts = static_cast<double>(key);
        return s;
    }
};

TEST(ClaimedQueue, DrainsInCostOrder)
{
    QueueFixture fx("order");
    ClaimedQueue queue(fx.cache, fx.claims,
                       {{1, 0, 1.0}, {2, 1, 8.0}, {3, 2, 4.0}});
    std::vector<size_t> order;
    size_t idx = 0;
    while (queue.next(idx) == ClaimedQueue::Pull::Job) {
        order.push_back(idx);
        fx.cache.store(static_cast<uint64_t>(idx) + 1,
                       fx.sample(static_cast<uint64_t>(idx) + 1));
        queue.complete(idx);
    }
    // Descending estimated cost: index 1 (cost 8), 2 (4), 0 (1).
    EXPECT_EQ(order, (std::vector<size_t>{1, 2, 0}));
    EXPECT_EQ(queue.pending(), 0u);
    EXPECT_EQ(queue.next(idx), ClaimedQueue::Pull::Drained);
}

TEST(ClaimedQueue, SkipsCachedJobs)
{
    QueueFixture fx("cached");
    fx.cache.store(10, fx.sample(10));
    fx.cache.store(11, fx.sample(11));
    ClaimedQueue queue(fx.cache, fx.claims,
                       {{10, 0, 1.0}, {11, 1, 1.0}});
    size_t idx = 0;
    EXPECT_EQ(queue.next(idx), ClaimedQueue::Pull::Drained);
    EXPECT_EQ(queue.completedByPeers(), 2u);
    // No claims were taken for pre-cached work.
    EXPECT_FALSE(fs::exists(fx.claims.pathOf(10)));
    EXPECT_FALSE(fs::exists(fx.claims.pathOf(11)));
}

TEST(ClaimedQueue, CompletedJobNeverRetaken)
{
    QueueFixture fx("done", 0.05);
    ClaimedQueue queue(fx.cache, fx.claims, {{20, 0, 1.0}});
    size_t idx = 0;
    ASSERT_EQ(queue.next(idx), ClaimedQueue::Pull::Job);
    fx.cache.store(20, fx.sample(20));
    queue.complete(idx);
    // Even after every TTL has long expired, a completed job's
    // result is in the cache and the pool never hands it out
    // again — to this queue or a fresh one.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_EQ(queue.next(idx), ClaimedQueue::Pull::Drained);
    ClaimedQueue fresh(fx.cache, fx.claims, {{20, 0, 1.0}});
    EXPECT_EQ(fresh.next(idx), ClaimedQueue::Pull::Drained);
}

TEST(ClaimedQueue, WaitsOnFreshPeerThenStealsStale)
{
    QueueFixture fx("peer", 0.05);
    // A "peer" (separate ClaimDir, same directory) holds the only
    // job.
    ClaimDir peer(fx.dir, "peer", 0.05);
    ASSERT_TRUE(peer.tryAcquire(30));
    ClaimedQueue queue(fx.cache, fx.claims, {{30, 0, 1.0}});
    size_t idx = 0;
    EXPECT_EQ(queue.next(idx), ClaimedQueue::Pull::Wait);
    // Once the peer's heartbeat goes stale, the same pull steals.
    backdateClaim(peer.pathOf(30), 1.0);
    ASSERT_EQ(queue.next(idx), ClaimedQueue::Pull::Job);
    EXPECT_EQ(idx, 0u);
    EXPECT_EQ(fx.claims.stolen(), 1u);
    fx.cache.store(30, fx.sample(30));
    queue.complete(idx);
    EXPECT_EQ(queue.next(idx), ClaimedQueue::Pull::Drained);
}

TEST(ClaimedQueue, SweepsOrphanClaimOnCachedJob)
{
    // A worker that died after caching its result but before
    // releasing leaves an orphan claim; the pool must not only
    // skip the job but also clean the stale orphan up.
    QueueFixture fx("orphan", 0.05);
    ClaimDir dead(fx.dir, "dead", 0.05);
    ASSERT_TRUE(dead.tryAcquire(40));
    fx.cache.store(40, fx.sample(40));
    backdateClaim(dead.pathOf(40), 1.0);
    ClaimedQueue queue(fx.cache, fx.claims, {{40, 0, 1.0}});
    size_t idx = 0;
    EXPECT_EQ(queue.next(idx), ClaimedQueue::Pull::Drained);
    EXPECT_FALSE(fs::exists(fx.claims.pathOf(40)));
}

TEST(ClaimedQueue, PushExtendsDrainedPool)
{
    QueueFixture fx("push");
    ClaimedQueue queue(fx.cache, fx.claims);
    size_t idx = 0;
    EXPECT_EQ(queue.next(idx), ClaimedQueue::Pull::Drained);
    queue.push({{50, 0, 1.0}});
    ASSERT_EQ(queue.next(idx), ClaimedQueue::Pull::Job);
    fx.cache.store(50, fx.sample(50));
    queue.complete(idx);
    EXPECT_EQ(queue.next(idx), ClaimedQueue::Pull::Drained);
}

TEST(ClaimedQueue, LocalSiblingJobIsNotAWait)
{
    // The only open job runs on a sibling thread of this process:
    // nothing is left to claim, and nothing a peer holds, so a
    // second puller is done rather than told to poll.
    QueueFixture fx("sibling");
    ClaimedQueue queue(fx.cache, fx.claims, {{60, 0, 1.0}});
    ClaimedQueue::Affinity first, second;
    size_t idx = 0;
    ASSERT_EQ(queue.next(idx, first), ClaimedQueue::Pull::Job);
    size_t other = 0;
    EXPECT_EQ(queue.next(other, second), ClaimedQueue::Pull::Drained);
    EXPECT_EQ(queue.next(other), ClaimedQueue::Pull::Drained);
    EXPECT_EQ(queue.pending(), 1u);
    fx.cache.store(60, fx.sample(60));
    queue.complete(idx);
    EXPECT_EQ(queue.next(idx, first), ClaimedQueue::Pull::Drained);
}

TEST(ClaimedQueue, AffinityKeepsAThreadOnItsGroup)
{
    // Two groups of three: group 7 (summed cost 6) pulls before
    // group 9 (4.5). Each leg lets one thread run through its own
    // group while the other holds its first job, so the fast
    // thread ends up helping in the slow thread's group.
    for (bool a_is_slow : {false, true}) {
        QueueFixture fx(a_is_slow ? "affinity-a" : "affinity-b");
        ClaimedQueue queue(fx.cache, fx.claims,
                           {{1, 0, 3.0, 7},
                            {2, 1, 2.0, 7},
                            {3, 2, 1.0, 7},
                            {4, 3, 1.5, 9},
                            {5, 4, 1.5, 9},
                            {6, 5, 1.5, 9}});
        ClaimedQueue::Affinity a, b;
        auto finish = [&](size_t idx) {
            fx.cache.store(static_cast<uint64_t>(idx) + 1,
                           fx.sample(static_cast<uint64_t>(idx) + 1));
            queue.complete(idx);
        };
        size_t ia = 0, ib = 0;
        // A starts the costlier group; B, pulling concurrently,
        // starts the untouched one instead of joining A.
        ASSERT_EQ(queue.next(ia, a), ClaimedQueue::Pull::Job);
        EXPECT_EQ(ia, 0u);
        ASSERT_EQ(queue.next(ib, b), ClaimedQueue::Pull::Job);
        EXPECT_EQ(ib, 3u);
        ClaimedQueue::Affinity &fast = a_is_slow ? b : a;
        size_t &slow_idx = a_is_slow ? ia : ib;
        size_t &fast_idx = a_is_slow ? ib : ia;
        // The fast thread keeps pulling its own group, costliest
        // first (ties by key), and then helps in the other group.
        std::vector<size_t> fast_order;
        for (;;) {
            finish(fast_idx);
            if (queue.next(fast_idx, fast) != ClaimedQueue::Pull::Job)
                break;
            fast_order.push_back(fast_idx);
        }
        std::vector<size_t> expect =
            a_is_slow ? std::vector<size_t>{4, 5, 1, 2}
                      : std::vector<size_t>{1, 2, 4, 5};
        EXPECT_EQ(fast_order, expect);
        // Only the slow thread's job is open: a local sibling's
        // job is never waited on.
        EXPECT_EQ(queue.pending(), 1u);
        finish(slow_idx);
        ClaimedQueue::Affinity &slow = a_is_slow ? a : b;
        EXPECT_EQ(queue.next(slow_idx, slow),
                  ClaimedQueue::Pull::Drained);
        EXPECT_EQ(queue.pending(), 0u);
    }
}

TEST(ClaimedQueue, PeerHeldGroupIsNotAFreshStart)
{
    // A peer process holds the first job of the costlier group:
    // a fresh thread here starts the other group rather than
    // queueing up behind the peer, and helps in the peer's group
    // once its own is done.
    QueueFixture fx("peer-group");
    ClaimDir peer(fx.dir, "peer", 60.0);
    ASSERT_TRUE(peer.tryAcquire(1));
    ClaimedQueue queue(fx.cache, fx.claims,
                       {{1, 0, 3.0, 7},
                        {2, 1, 2.0, 7},
                        {3, 2, 1.0, 9}});
    ClaimedQueue::Affinity a;
    size_t idx = 0;
    std::vector<size_t> order;
    while (queue.next(idx, a) == ClaimedQueue::Pull::Job) {
        order.push_back(idx);
        fx.cache.store(static_cast<uint64_t>(idx) + 1,
                       fx.sample(static_cast<uint64_t>(idx) + 1));
        queue.complete(idx);
    }
    EXPECT_EQ(order, (std::vector<size_t>{2, 1}));
    // The peer still holds job 0: that is a Wait.
    EXPECT_EQ(queue.next(idx, a), ClaimedQueue::Pull::Wait);
}

TEST(ClaimedQueue, PushJoinsExistingGroup)
{
    QueueFixture fx("push-group");
    ClaimedQueue queue(fx.cache, fx.claims, {{1, 0, 1.0, 3}});
    queue.push({{2, 1, 5.0, 3}, {3, 2, 4.0, 4}});
    // Group 3 (summed 6) before group 4 (4); inside group 3 the
    // pushed costlier job comes first.
    ClaimedQueue::Affinity a;
    std::vector<size_t> order;
    size_t idx = 0;
    while (queue.next(idx, a) == ClaimedQueue::Pull::Job) {
        order.push_back(idx);
        fx.cache.store(static_cast<uint64_t>(idx) + 1,
                       fx.sample(static_cast<uint64_t>(idx) + 1));
        queue.complete(idx);
    }
    EXPECT_EQ(order, (std::vector<size_t>{1, 0, 2}));
}

TEST(ClaimedQueue, DrainedThreadHeartbeatsSiblingsLastJob)
{
    // A sibling runs the pool's last job; this thread has nothing
    // left to claim. Until the job ends, awaitLocal keeps its
    // claim fresh: a backdated (stale) claim is refreshed and a
    // peer cannot steal the job.
    QueueFixture fx("tail-heartbeat");
    ClaimedQueue queue(fx.cache, fx.claims, {{70, 0, 1.0}});
    ClaimedQueue::Affinity running, idle;
    size_t idx = 0, none = 0;
    ASSERT_EQ(queue.next(idx, running), ClaimedQueue::Pull::Job);
    ASSERT_EQ(queue.next(none, idle), ClaimedQueue::Pull::Drained);
    backdateClaim(fx.claims.pathOf(70), 120.0);
    std::thread waiter([&]() { queue.awaitLocal(0.02); });
    ClaimInfo info;
    for (int tries = 0; tries < 500; ++tries) {
        ASSERT_TRUE(fx.claims.info(70, info));
        if (info.ageSeconds < 60.0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_LT(info.ageSeconds, 60.0);
    ClaimDir peer(fx.dir, "peer", 60.0);
    EXPECT_FALSE(peer.tryAcquire(70));
    fx.cache.store(70, fx.sample(70));
    queue.complete(idx);
    waiter.join();
    EXPECT_EQ(queue.pending(), 0u);
}

TEST(ClaimedQueue, AwaitLocalReturnsWhenLastJobCompletes)
{
    // The wait ends on the completion itself, not on the next
    // heartbeat tick: a Drained thread exits with its siblings.
    QueueFixture fx("tail-wake");
    ClaimedQueue queue(fx.cache, fx.claims, {{80, 0, 1.0}});
    size_t idx = 0;
    ASSERT_EQ(queue.next(idx), ClaimedQueue::Pull::Job);
    using clock = std::chrono::steady_clock;
    std::atomic<bool> returned{false};
    std::thread waiter([&]() {
        queue.awaitLocal(60.0);
        returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(returned.load());
    const auto t0 = clock::now();
    fx.cache.store(80, fx.sample(80));
    queue.complete(idx);
    waiter.join();
    EXPECT_LT(std::chrono::duration<double>(clock::now() - t0).count(),
              30.0);
    // Nothing running: returns at once.
    queue.awaitLocal(60.0);
}

/** A job of workload @p w on @p cfg with estimated @p cost. */
CampaignJob
jobOf(size_t w, ChipConfig cfg, double cost)
{
    CampaignJob j;
    j.workload = w;
    j.config = cfg;
    j.key = 1000 + w * 100 + static_cast<uint64_t>(cfg.cores * 10 +
                                                   cfg.smt);
    j.cost = cost;
    return j;
}

TEST(ClaimPool, GroupsByWorkloadAndSmtCostliestFirst)
{
    std::vector<CampaignJob> jobs = {
        jobOf(0, {1, 1}, 1.0), jobOf(0, {2, 2}, 2.0),
        jobOf(0, {4, 2}, 4.0), jobOf(1, {1, 1}, 1.0),
        jobOf(1, {2, 1}, 2.0), jobOf(1, {8, 4}, 9.0),
        jobOf(2, {1, 1}, 3.0)};
    std::vector<JobGroup> groups = jobGroups(jobs);
    // (1, smt 4) costs 9; (0, smt 2) 6; (1, smt 1) 3 ties with
    // (2, smt 1) 3 and comes first by first appearance; (0, smt 1)
    // last.
    ASSERT_EQ(groups.size(), 5u);
    EXPECT_EQ(groups[0].jobs, (std::vector<size_t>{5}));
    EXPECT_EQ(groups[1].jobs, (std::vector<size_t>{2, 1}));
    EXPECT_EQ(groups[2].jobs, (std::vector<size_t>{4, 3}));
    EXPECT_EQ(groups[3].jobs, (std::vector<size_t>{6}));
    EXPECT_EQ(groups[4].jobs, (std::vector<size_t>{0}));
    EXPECT_EQ(groups[2].first, 3u);
    EXPECT_DOUBLE_EQ(groups[1].cost, 6.0);

    // Pool entries stay in job order and carry the pool index of
    // their group's first job; a second campaign pooled behind the
    // first gets disjoint group ids even for the same workloads.
    std::vector<PoolJob> first = claimPool(jobs);
    std::vector<PoolJob> second = claimPool(jobs, jobs.size());
    ASSERT_EQ(first.size(), jobs.size());
    std::set<uint64_t> ids_first, ids_second;
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(first[i].key, jobs[i].key);
        EXPECT_EQ(first[i].index, i);
        EXPECT_EQ(second[i].index, jobs.size() + i);
        EXPECT_EQ(second[i].group, first[i].group + jobs.size());
        ids_first.insert(first[i].group);
        ids_second.insert(second[i].group);
    }
    EXPECT_EQ(first[2].group, 1u);
    EXPECT_EQ(first[4].group, 3u);
    EXPECT_EQ(ids_first.size(), 5u);
    for (uint64_t id : ids_second)
        EXPECT_EQ(ids_first.count(id), 0u) << id;
}

/** Tiny campaign spec (mirrors test_campaign.cc). */
CampaignSpec
tinySpec()
{
    CampaignSpec spec;
    spec.categories = {BenchCategory::Random};
    spec.suite.randomCount = 3;
    spec.suite.bodySize = 128;
    spec.bootstrap = false;
    spec.threads = 2;
    spec.configs = {{1, 1}, {2, 1}, {1, 2}};
    return spec;
}

std::string
csvOf(const std::vector<Sample> &samples)
{
    std::ostringstream os;
    exportSamplesCsv(os, samples);
    return os.str();
}

/** tinySpec swept over freqs x vdds (off-curve voltages at a
 * non-nominal and at the nominal frequency). */
CampaignSpec
sweepSpec()
{
    CampaignSpec spec = tinySpec();
    spec.configs = {{1, 1}, {2, 2}};
    spec.freqs = {2.5, 3.0};
    spec.vdds = {0.80, 0.95};
    return spec;
}

TEST(ServeCampaign, MatchesPlainRunByteForByte)
{
    Architecture arch = Architecture::get("POWER7");
    Machine machine(arch.isa(), arch.uarch().cacheGeometries(),
                    arch.uarch().clockGhz());

    for (const CampaignSpec &base : {tinySpec(), sweepSpec()}) {
        CampaignSpec plain = base;
        plain.cacheDir = freshDir("serve-plain");
        Campaign ref(machine, plain);
        Architecture arch1 = arch;
        CampaignResult refRes = ref.run(arch1);

        for (int threads : {2, 4}) {
            CampaignSpec serve = base;
            serve.serve = true;
            serve.threads = threads;
            serve.cacheDir = freshDir("serve-pool");
            serve.claimPollSeconds = 0.05;
            Campaign campaign(machine, serve);
            Architecture arch2 = arch;
            CampaignResult res = campaign.run(arch2);

            ASSERT_EQ(res.samples.size(), refRes.samples.size());
            EXPECT_EQ(csvOf(res.samples), csvOf(refRes.samples))
                << base.contentSummary() << " at " << threads
                << " threads";
        }
    }
}

TEST(ServeCampaign, SharesBatchMemoLikePlainRun)
{
    // A serve worker pulls a (workload, SMT) group back to back, so
    // its Batch runs exactly the core simulations a plain run
    // does: one per distinct (workload, SMT, memory latency).
    Architecture arch = Architecture::get("POWER7");
    Machine machine(arch.isa(), arch.uarch().cacheGeometries(),
                    arch.uarch().clockGhz());
    obs::Counter &core_sims = obs::counter("batch_core_sims");

    CampaignSpec plain = sweepSpec();
    plain.threads = 1;
    plain.cacheDir = freshDir("memo-plain");
    Campaign ref(machine, plain);
    Architecture arch1 = arch;
    uint64_t before = core_sims.value();
    CampaignResult refRes = ref.run(arch1);
    uint64_t plain_sims = core_sims.value() - before;

    CampaignSpec serve = plain;
    serve.serve = true;
    serve.cacheDir = freshDir("memo-serve");
    Campaign campaign(machine, serve);
    Architecture arch2 = arch;
    before = core_sims.value();
    CampaignResult res = campaign.run(arch2);
    uint64_t serve_sims = core_sims.value() - before;

    EXPECT_EQ(serve_sims, plain_sims);
    EXPECT_EQ(csvOf(res.samples), csvOf(refRes.samples));
}

TEST(ServeCampaign, StealsPlantedStaleClaimAndCompletes)
{
    Architecture arch = Architecture::get("POWER7");
    Machine machine(arch.isa(), arch.uarch().cacheGeometries(),
                    arch.uarch().clockGhz());

    CampaignSpec plain = tinySpec();
    plain.cacheDir = freshDir("steal-plain");
    Campaign ref(machine, plain);
    Architecture arch1 = arch;
    CampaignResult refRes = ref.run(arch1);

    // Simulate a dead worker: every job of the pool is "claimed"
    // by a worker whose heartbeats stopped long ago.
    CampaignSpec serve = tinySpec();
    serve.serve = true;
    serve.cacheDir = freshDir("steal-pool");
    serve.claimTtlSeconds = 0.05;
    serve.claimPollSeconds = 0.05;
    ClaimDir dead(serve.cacheDir, "dead-worker", 0.05);
    for (const CampaignJob &job : refRes.jobs) {
        ASSERT_TRUE(dead.tryAcquire(job.key));
        backdateClaim(dead.pathOf(job.key), 1.0);
    }

    Campaign campaign(machine, serve);
    Architecture arch2 = arch;
    CampaignResult res = campaign.run(arch2);
    ASSERT_EQ(res.samples.size(), refRes.samples.size());
    EXPECT_EQ(csvOf(res.samples), csvOf(refRes.samples));
}

} // namespace
