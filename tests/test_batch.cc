/**
 * @file
 * Tests for the decode-once batched execution engine: the arena
 * allocator, Machine::Batch / runBatch (memoized core simulations,
 * bit-identity to per-run evaluation) and campaigns routed through
 * the batched path. The engine's absolute output is pinned by
 * test_golden.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "campaign/campaign.hh"
#include "microprobe/cache_model.hh"
#include "power/sample.hh"
#include "sim/arena.hh"
#include "sim/machine.hh"
#include "uarch/uarch.hh"

using namespace mprobe;

namespace
{

const Isa &isa = builtinP7Isa();

Program
loopOf(const std::string &op, size_t n, int dep, int stream = -1)
{
    Program p;
    p.isa = &isa;
    p.name = "b-" + op;
    Isa::OpIndex o = isa.find(op);
    for (size_t i = 0; i + 1 < n; ++i)
        p.body.push_back({o, dep, stream, 1.0f, 1.0f});
    p.body.push_back({isa.find("bdnz"), 0, -1, 1.0f, 1.0f});
    return p;
}

Program
memLoop(HitLevel lvl)
{
    Program p = loopOf("ld", 512, 6, 0);
    UarchDef u = builtinP7Uarch();
    AnalyticalCacheModel m(u);
    p.streams.push_back(m.makeStream(lvl, 0).stream);
    p.name = "b-mem-loop";
    return p;
}

/** Every field of two RunResults must match to the bit. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.config.cores, b.config.cores);
    EXPECT_EQ(a.config.smt, b.config.smt);
    EXPECT_EQ(a.chip.cycles, b.chip.cycles);
    EXPECT_EQ(a.chip.instrs, b.chip.instrs);
    EXPECT_EQ(a.chip.fxuOps, b.chip.fxuOps);
    EXPECT_EQ(a.chip.lsuOps, b.chip.lsuOps);
    EXPECT_EQ(a.chip.vsuOps, b.chip.vsuOps);
    EXPECT_EQ(a.chip.bruOps, b.chip.bruOps);
    EXPECT_EQ(a.chip.cruOps, b.chip.cruOps);
    EXPECT_EQ(a.chip.loads, b.chip.loads);
    EXPECT_EQ(a.chip.stores, b.chip.stores);
    EXPECT_EQ(a.chip.l1Hits, b.chip.l1Hits);
    EXPECT_EQ(a.chip.l2Hits, b.chip.l2Hits);
    EXPECT_EQ(a.chip.l3Hits, b.chip.l3Hits);
    EXPECT_EQ(a.chip.memAcc, b.chip.memAcc);
    EXPECT_EQ(a.chip.energyNj, b.chip.energyNj);
    EXPECT_EQ(a.chip.overlapNj, b.chip.overlapNj);
    EXPECT_EQ(a.chip.transitionNj, b.chip.transitionNj);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.sensorWatts, b.sensorWatts);
    EXPECT_EQ(a.coreIpc, b.coreIpc);
    EXPECT_EQ(a.freqGhz, b.freqGhz);
    EXPECT_EQ(a.voltage, b.voltage);
    EXPECT_EQ(a.gtDynamicWatts, b.gtDynamicWatts);
    EXPECT_EQ(a.gtSmtWatts, b.gtSmtWatts);
    EXPECT_EQ(a.gtCmpWatts, b.gtCmpWatts);
    EXPECT_EQ(a.gtUncoreWatts, b.gtUncoreWatts);
    EXPECT_EQ(a.gtIdleWatts, b.gtIdleWatts);
}

bool
samplesEqual(const Sample &a, const Sample &b)
{
    return a.workload == b.workload &&
           a.config.cores == b.config.cores &&
           a.config.smt == b.config.smt && a.rates == b.rates &&
           a.powerWatts == b.powerWatts &&
           a.instrGips == b.instrGips && a.coreIpc == b.coreIpc &&
           a.freqGhz == b.freqGhz;
}

} // namespace

// ---------------------------------------------------------------
// Arena allocator

TEST(SimArena, ResetReusesMemory)
{
    SimArena arena;
    double *p1 = arena.alloc<double>(1000);
    p1[0] = 1.0;
    p1[999] = 2.0;
    size_t cap = arena.capacityBytes();
    EXPECT_GT(cap, 0u);
    arena.reset();
    // Same request after reset: same memory, no new chunk.
    double *p2 = arena.alloc<double>(1000);
    EXPECT_EQ(p1, p2);
    EXPECT_EQ(arena.capacityBytes(), cap);
}

TEST(SimArena, AlignsEveryAllocation)
{
    SimArena arena;
    arena.alloc<char>(3);
    double *d = arena.alloc<double>(4);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double),
              0u);
    arena.alloc<char>(1);
    uint32_t *u = arena.alloc<uint32_t>(2);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(u) % alignof(uint32_t),
              0u);
}

TEST(SimArena, GrowsAcrossChunksKeepingOldPointersValid)
{
    SimArena arena;
    char *small = arena.alloc<char>(16);
    small[0] = 'x';
    // Force a second chunk well past the first chunk's size.
    char *big = arena.alloc<char>(1 << 20);
    big[0] = 'y';
    EXPECT_EQ(small[0], 'x'); // growth never moved the old chunk
    size_t cap = arena.capacityBytes();
    arena.reset();
    arena.alloc<char>(16);
    arena.alloc<char>(1 << 20);
    EXPECT_EQ(arena.capacityBytes(), cap);
}

// ---------------------------------------------------------------
// Machine::Batch

TEST(Batch, OneCoreSimPerSmtModeWithoutMemoryTraffic)
{
    Machine m(isa);
    Program p = loopOf("add", 256, 0);
    for (double f : {0.0, 2.0, 3.5}) {
        OperatingPoint op = m.operatingPoint(f);
        Machine::Batch batch(m, p);
        for (const ChipConfig &cfg : ChipConfig::all())
            batch.run(cfg, op, 7);
        // 24 configs span only 3 SMT modes; without memory
        // accesses there is no contention rerun, so the memo
        // holds one core simulation per mode.
        EXPECT_EQ(batch.simCount(), 3u);
    }
}

TEST(Batch, RunBatchMatchesPerRun)
{
    Machine m(isa);
    Program p = memLoop(HitLevel::L3);
    std::vector<RunRequest> points;
    uint64_t salt = 100;
    for (const ChipConfig &cfg :
         {ChipConfig{1, 1}, ChipConfig{4, 2}, ChipConfig{8, 4}})
        for (double f : {0.0, 2.5})
            points.push_back({cfg, m.operatingPoint(f), salt++});

    std::vector<RunResult> batched = m.runBatch(p, points);
    ASSERT_EQ(batched.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameResult(batched[i],
                         m.run(p, points[i].config, points[i].op,
                               points[i].salt));
    }
}

TEST(Batch, ReuseAcrossRunsIsIdentical)
{
    Machine m(isa);
    Program p = memLoop(HitLevel::Mem);
    Machine::Batch batch(m, p);
    OperatingPoint op = m.operatingPoint(2.0);
    RunResult first = batch.run({4, 2}, op, 3);
    size_t sims = batch.simCount();
    // The repeat reuses the memoized core simulations and the
    // reset arena/cache scratch; bits must not drift.
    expectSameResult(batch.run({4, 2}, op, 3), first);
    EXPECT_EQ(batch.simCount(), sims);
}

TEST(Batch, RepointMatchesFreshBatch)
{
    // Re-pointing a used batch at another program (and back) must
    // drop the old memo: every result equals a fresh batch's.
    Machine m(isa);
    Program mem = memLoop(HitLevel::Mem);
    Program fma = loopOf("xvmaddadp", 256, 0);
    OperatingPoint op = m.operatingPoint(2.5);
    Machine::Batch batch(m, mem);
    RunResult first = batch.run({4, 2}, op, 7);
    EXPECT_TRUE(batch.pointsAt(m, mem));

    batch.point(m, fma);
    EXPECT_FALSE(batch.pointsAt(m, mem));
    EXPECT_EQ(batch.simCount(), 0u);
    Machine::Batch fresh(m, fma);
    expectSameResult(batch.run({4, 2}, op, 7),
                     fresh.run({4, 2}, op, 7));

    batch.point(m, mem);
    expectSameResult(batch.run({4, 2}, op, 7), first);
    // Machine::run is a batch of one over the same engine.
    expectSameResult(m.run(mem, {4, 2}, op, 7), first);
}

// ---------------------------------------------------------------
// Campaigns through the batched path

namespace
{

CampaignSpec
batchSpec()
{
    CampaignSpec spec;
    spec.categories = {BenchCategory::Random};
    spec.suite.randomCount = 2;
    spec.suite.bodySize = 128;
    spec.bootstrap = false;
    spec.threads = 1;
    spec.configs = {{1, 1}, {2, 2}, {8, 4}};
    return spec;
}

} // namespace

TEST(CampaignBatch, ThreadCountInvariantThroughBatchedPath)
{
    Machine m(isa);
    std::vector<Program> progs = {loopOf("subf", 128, 0),
                                  memLoop(HitLevel::Mem)};
    std::vector<ChipConfig> cfgs = {{1, 1}, {8, 4}, {2, 2}};

    CampaignSpec serial = batchSpec();
    serial.freqs = {2.0, 3.5};
    Campaign c1(m, serial);
    auto s1 = c1.measure(progs, cfgs);

    CampaignSpec wide = batchSpec();
    wide.freqs = {2.0, 3.5};
    wide.threads = 8;
    Campaign c8(m, wide);
    auto s8 = c8.measure(progs, cfgs);

    ASSERT_EQ(s1.size(),
              progs.size() * cfgs.size() * serial.freqs.size());
    ASSERT_EQ(s1.size(), s8.size());
    for (size_t i = 0; i < s1.size(); ++i)
        EXPECT_TRUE(samplesEqual(s1[i], s8[i])) << i;
}
