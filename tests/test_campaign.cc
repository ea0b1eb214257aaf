/**
 * @file
 * Tests for the campaign subsystem: spec parsing, job expansion,
 * cache hit/miss behaviour, thread-count invariance of results and
 * the structured exporters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "campaign/campaign.hh"
#include "campaign/export.hh"
#include "campaign/manifest.hh"
#include "campaign/queue.hh"
#include "microprobe/passes.hh"
#include "microprobe/synthesizer.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "workloads/pipeline.hh"

using namespace mprobe;

namespace
{

struct Fixture
{
    Architecture arch = Architecture::get("POWER7");
    Machine machine{arch.isa()};

    /** A few tiny distinct workloads for measurement tests. */
    std::vector<Program>
    programs(int n, size_t body = 128)
    {
        std::vector<Program> out;
        for (int i = 0; i < n; ++i) {
            Synthesizer synth(arch,
                              0xbeefull + static_cast<uint64_t>(i));
            synth.addPass<SkeletonPass>(body);
            synth.addPass<InstructionMixPass>(
                arch.isa().integerOps());
            synth.addPass<RegisterInitPass>(DataPattern::Random);
            out.push_back(synth.synthesize(cat("tiny-", i)));
        }
        return out;
    }
};

/** Fresh per-test cache directory. */
std::string
freshCacheDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "mprobe-cache-" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

/** Tiny spec measuring a handful of random workloads. */
CampaignSpec
tinySpec()
{
    CampaignSpec spec;
    // categories alone must be enough: the engine syncs it into
    // suite.categories itself.
    spec.categories = {BenchCategory::Random};
    spec.suite.randomCount = 3;
    spec.suite.bodySize = 128;
    spec.bootstrap = false;
    spec.threads = 2;
    spec.configs = {{1, 1}, {2, 1}, {1, 2}};
    return spec;
}

bool
samplesEqual(const Sample &a, const Sample &b)
{
    return a.workload == b.workload &&
           a.config.cores == b.config.cores &&
           a.config.smt == b.config.smt && a.rates == b.rates &&
           a.powerWatts == b.powerWatts &&
           a.instrGips == b.instrGips && a.coreIpc == b.coreIpc &&
           a.freqGhz == b.freqGhz && a.vddVolts == b.vddVolts &&
           a.reliable == b.reliable;
}

} // namespace

// ---------------------------------------------------------------
// parallelFor

TEST(ParallelFor, CoversEveryIndexOnce)
{
    for (int threads : {1, 2, 7}) {
        std::vector<std::atomic<int>> seen(100);
        parallelFor(threads, seen.size(),
                    [&](size_t i) { ++seen[i]; });
        for (const auto &s : seen)
            EXPECT_EQ(s.load(), 1) << threads;
    }
}

TEST(ParallelFor, MoreThreadsThanWork)
{
    std::atomic<int> count{0};
    parallelFor(16, 3, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 3);
}

TEST(ParallelFor, EmptyRange)
{
    parallelFor(4, 0, [](size_t) { FAIL(); });
}

// ---------------------------------------------------------------
// Spec parsing

TEST(CampaignSpec, ParsesFullExample)
{
    CampaignSpec spec = parseCampaignSpecText(
        "# training corpus\n"
        "categories = memory, random\n"
        "configs = 1-1, 2-2, 8-4\n"
        "random_count = 12\n"
        "per_memory_group = 2\n"
        "body_size = 1024\n"
        "threads = 4\n"
        "cache_dir = /tmp/c\n"
        "salt = 7\n"
        "bootstrap = 0\n"
        "seed = 0x123\n",
        "<test>");
    ASSERT_EQ(spec.categories.size(), 2u);
    EXPECT_EQ(spec.categories[0], BenchCategory::MemoryGroup);
    EXPECT_EQ(spec.categories[1], BenchCategory::Random);
    EXPECT_TRUE(spec.suiteEnabled);
    ASSERT_EQ(spec.configs.size(), 3u);
    EXPECT_EQ(spec.configs[2].cores, 8);
    EXPECT_EQ(spec.configs[2].smt, 4);
    EXPECT_EQ(spec.suite.randomCount, 12);
    EXPECT_EQ(spec.suite.perMemoryGroup, 2);
    EXPECT_EQ(spec.suite.bodySize, 1024u);
    EXPECT_EQ(spec.threads, 4);
    EXPECT_EQ(spec.cacheDir, "/tmp/c");
    EXPECT_EQ(spec.salt, 7u);
    EXPECT_FALSE(spec.bootstrap);
    EXPECT_EQ(spec.suite.seed, 0x123u);
    // The restriction reaches the suite generator when a Campaign
    // is constructed (covered by CampaignRun tests), not at parse
    // time.
}

TEST(CampaignSpec, EmptyTextIsFullDefaultCampaign)
{
    CampaignSpec spec = parseCampaignSpecText("", "<test>");
    EXPECT_TRUE(spec.suiteEnabled);
    EXPECT_TRUE(spec.categories.empty());
    EXPECT_EQ(spec.configs.size(), 24u);
    EXPECT_EQ(spec.threads, 0); // auto
}

TEST(CampaignSpec, ExtraSourcesParse)
{
    CampaignSpec spec = parseCampaignSpecText(
        "categories = none\n"
        "spec_proxies = 1\n"
        "daxpy = 1\n"
        "extremes = 1\n",
        "<test>");
    EXPECT_FALSE(spec.suiteEnabled);
    EXPECT_TRUE(spec.specProxies);
    EXPECT_TRUE(spec.daxpy);
    EXPECT_TRUE(spec.extremes);
}

TEST(CampaignSpec, ValueMayContainEquals)
{
    CampaignSpec spec = parseCampaignSpecText(
        "cache_dir = /scratch/run=3/cache\n", "<test>");
    EXPECT_EQ(spec.cacheDir, "/scratch/run=3/cache");
}

TEST(CampaignSpecDeath, UnknownKeyFatal)
{
    EXPECT_EXIT(parseCampaignSpecText("bogus = 1\n", "<test>"),
                testing::ExitedWithCode(1), "unknown campaign key");
}

TEST(CampaignSpecDeath, NoWorkloadsFatal)
{
    EXPECT_EXIT(
        parseCampaignSpecText("categories = none\n", "<test>"),
        testing::ExitedWithCode(1), "selects no workloads");
}

TEST(CampaignSpecDeath, BadConfigFatal)
{
    EXPECT_EXIT(
        parseCampaignSpecText("configs = 4x2\n", "<test>"),
        testing::ExitedWithCode(1), "bad config");
}

// ---------------------------------------------------------------
// Job keys

TEST(CampaignJobKey, DistinguishesContent)
{
    Fixture f;
    auto progs = f.programs(2);
    uint64_t fp = f.machine.fingerprint();
    uint64_t k0 = campaignJobKey(progs[0], {1, 1}, fp, 0);
    EXPECT_EQ(k0, campaignJobKey(progs[0], {1, 1}, fp, 0));
    EXPECT_NE(k0, campaignJobKey(progs[1], {1, 1}, fp, 0));
    EXPECT_NE(k0, campaignJobKey(progs[0], {2, 1}, fp, 0));
    EXPECT_NE(k0, campaignJobKey(progs[0], {1, 2}, fp, 0));
    EXPECT_NE(k0, campaignJobKey(progs[0], {1, 1}, fp ^ 1, 0));
    EXPECT_NE(k0, campaignJobKey(progs[0], {1, 1}, fp, 1));
}

TEST(MachineFingerprint, SensitiveToKnobs)
{
    Fixture f;
    GroundTruthParams p;
    p.idleWatts += 1.0;
    Machine other(f.arch.isa(), p);
    EXPECT_NE(f.machine.fingerprint(), other.fingerprint());
    Machine same(f.arch.isa());
    EXPECT_EQ(f.machine.fingerprint(), same.fingerprint());
}

// ---------------------------------------------------------------
// Sample serialization

TEST(SampleText, RoundTrips)
{
    Sample s;
    s.workload = "bench with spaces";
    s.config = {4, 2};
    s.rates = {1.5, 0, 2.25, 3, 4, 5e-3, 6.125};
    s.powerWatts = 91.625;
    s.instrGips = 12.5;
    s.coreIpc = 1.75;
    Sample t;
    ASSERT_TRUE(sampleFromText(sampleToText(s), t));
    EXPECT_TRUE(samplesEqual(s, t));
}

TEST(SampleText, RejectsGarbage)
{
    Sample t;
    EXPECT_FALSE(sampleFromText("", t));
    EXPECT_FALSE(sampleFromText("workload x\n", t));
    EXPECT_FALSE(sampleFromText("nonsense 1 2 3\n", t));
    EXPECT_FALSE(sampleFromText(
        "workload x\nconfig 1-1\nrates 1 2\npower 3\n", t));
}

TEST(SampleText, RejectsTruncatedEntry)
{
    // A file torn right after the power line must be a corrupt
    // entry (-> miss), not a hit with zeroed gips/ipc.
    Sample s;
    s.workload = "w";
    s.config = {1, 1};
    s.rates = {1, 2, 3, 4, 5, 6, 7};
    s.powerWatts = 70.0;
    std::string text = sampleToText(s);
    std::string torn = text.substr(0, text.find("gips"));
    Sample t;
    EXPECT_FALSE(sampleFromText(torn, t));
}

// ---------------------------------------------------------------
// Measurement: determinism and cache behaviour

TEST(CampaignMeasure, ThreadCountDoesNotChangeResults)
{
    Fixture f;
    auto progs = f.programs(4);
    std::vector<ChipConfig> cfgs = {{1, 1}, {2, 2}, {4, 1}};

    CampaignSpec serial = tinySpec();
    serial.threads = 1;
    Campaign c1(f.machine, serial);
    auto s1 = c1.measure(progs, cfgs);

    CampaignSpec parallel_spec = tinySpec();
    parallel_spec.threads = 4;
    Campaign cn(f.machine, parallel_spec);
    auto sn = cn.measure(progs, cfgs);

    ASSERT_EQ(s1.size(), progs.size() * cfgs.size());
    ASSERT_EQ(s1.size(), sn.size());
    for (size_t i = 0; i < s1.size(); ++i)
        EXPECT_TRUE(samplesEqual(s1[i], sn[i])) << i;
}

TEST(CampaignMeasure, WorkloadMajorOrder)
{
    Fixture f;
    auto progs = f.programs(2);
    std::vector<ChipConfig> cfgs = {{1, 1}, {2, 1}};
    Campaign c(f.machine, tinySpec());
    auto samples = c.measure(progs, cfgs);
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_EQ(samples[0].workload, "tiny-0");
    EXPECT_EQ(samples[0].config.cores, 1);
    EXPECT_EQ(samples[1].workload, "tiny-0");
    EXPECT_EQ(samples[1].config.cores, 2);
    EXPECT_EQ(samples[2].workload, "tiny-1");
    EXPECT_EQ(samples[3].workload, "tiny-1");
}

TEST(CampaignCache, SecondRunHitsEverything)
{
    Fixture f;
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("hits");
    spec.threads = 2;

    Campaign first(f.machine, spec);
    CampaignResult r1 = first.run(f.arch);
    EXPECT_EQ(r1.cacheHits, 0u);
    EXPECT_EQ(r1.cacheMisses, r1.samples.size());
    ASSERT_EQ(r1.samples.size(),
              r1.workloads.size() * spec.configs.size());

    Campaign second(f.machine, spec);
    CampaignResult r2 = second.run(f.arch);
    EXPECT_EQ(r2.cacheMisses, 0u);
    EXPECT_EQ(r2.cacheHits, r2.samples.size());

    ASSERT_EQ(r1.samples.size(), r2.samples.size());
    for (size_t i = 0; i < r1.samples.size(); ++i)
        EXPECT_TRUE(samplesEqual(r1.samples[i], r2.samples[i]))
            << i;
}

TEST(CampaignCache, SaltChangesKeysAndMisses)
{
    Fixture f;
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("salt");
    Campaign first(f.machine, spec);
    CampaignResult r1 = first.run(f.arch);
    EXPECT_EQ(r1.cacheHits, 0u);

    spec.salt = 99;
    Campaign salted(f.machine, spec);
    CampaignResult r2 = salted.run(f.arch);
    EXPECT_EQ(r2.cacheHits, 0u)
        << "a different salt must not reuse cached results";
}

TEST(CampaignCache, CorruptEntryIsAMiss)
{
    Fixture f;
    auto progs = f.programs(1);
    std::vector<ChipConfig> cfgs = {{1, 1}};
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("corrupt");

    Campaign c(f.machine, spec);
    auto s1 = c.measure(progs, cfgs);

    // Clobber the single cache entry.
    uint64_t key = campaignJobKey(progs[0], cfgs[0],
                                  f.machine.fingerprint(), 0);
    ResultCache cache(spec.cacheDir);
    {
        std::ofstream out(cache.pathOf(key));
        out << "not a sample\n";
    }
    Campaign c2(f.machine, spec);
    auto s2 = c2.measure(progs, cfgs);
    EXPECT_EQ(c2.cacheMisses(), 1u);
    ASSERT_EQ(s2.size(), 1u);
    EXPECT_TRUE(samplesEqual(s1[0], s2[0]));
}

TEST(CampaignCache, DisabledCacheStillWorks)
{
    Fixture f;
    Campaign c(f.machine, tinySpec());
    CampaignResult r = c.run(f.arch);
    EXPECT_EQ(r.cacheHits, 0u);
    EXPECT_EQ(r.samples.size(),
              r.workloads.size() * tinySpec().configs.size());
}

// ---------------------------------------------------------------
// Per-workload configuration plans

TEST(CampaignMeasure, PerWorkloadConfigLists)
{
    Fixture f;
    auto progs = f.programs(2);

    // Reference: the cross-product overload.
    Campaign ref(f.machine, tinySpec());
    auto cross =
        ref.measure(progs, {ChipConfig{1, 1}, ChipConfig{2, 1}});
    ASSERT_EQ(cross.size(), 4u);

    // Plan: program 0 at 1-1 only, program 1 at 1-1 and 2-1.
    Campaign c(f.machine, tinySpec());
    auto samples = c.measure(
        progs, std::vector<std::vector<ChipConfig>>{
                   {ChipConfig{1, 1}},
                   {ChipConfig{1, 1}, ChipConfig{2, 1}}});
    ASSERT_EQ(samples.size(), 3u);
    // Program-major, per-program config order — and each sample is
    // exactly the cross-product sample of the same pair (job keys
    // are content hashes, independent of the plan shape).
    EXPECT_TRUE(samplesEqual(samples[0], cross[0]));
    EXPECT_TRUE(samplesEqual(samples[1], cross[2]));
    EXPECT_TRUE(samplesEqual(samples[2], cross[3]));
}

TEST(CampaignMeasure, PerWorkloadConfigListsKeyAsCampaignJobKey)
{
    // Uneven per-workload plans on a swept frequency axis: 3, 15
    // and 3 jobs, so one workload's keying spans more than one
    // group of hash lanes, and 3.0 GHz collapses to the nominal
    // key. Every job must key exactly as campaignJobKey does.
    Fixture f;
    auto progs = f.programs(3);
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("configs-per-keys");
    spec.freqs = {2.5, 3.0, 3.5};
    spec.salt = 7;
    std::vector<std::vector<ChipConfig>> plan = {
        {ChipConfig{1, 1}},
        {ChipConfig{1, 1}, ChipConfig{2, 1}, ChipConfig{1, 2},
         ChipConfig{2, 2}, ChipConfig{4, 1}},
        {ChipConfig{1, 1}}};
    Campaign c(f.machine, spec);
    c.measure(progs, plan);

    CampaignManifest m;
    ASSERT_TRUE(loadManifest(manifestPath(spec.cacheDir), m));
    ASSERT_EQ(m.entries.size(), 21u);
    std::map<std::string, const Program *> by_name;
    for (const auto &p : progs)
        by_name[p.name] = &p;
    size_t nominal = 0;
    for (const auto &e : m.entries) {
        ASSERT_TRUE(by_name.count(e.workload)) << e.workload;
        EXPECT_EQ(e.key,
                  campaignJobKey(*by_name[e.workload], e.config,
                                 f.machine.fingerprint(), spec.salt,
                                 e.freqGhz, e.vdd))
            << e.workload << " " << e.config.cores << "-"
            << e.config.smt << "@" << e.freqGhz;
        if (e.freqGhz == 0.0)
            ++nominal;
    }
    EXPECT_EQ(nominal, 7u);
}

// ---------------------------------------------------------------
// Manifest and resume

TEST(CampaignManifest, RoundTrips)
{
    CampaignManifest m;
    m.spec = "campaign: full Table-2 suite x 24 configs";
    m.fingerprint = 0xfeedface12345678ull;
    m.entries.push_back(
        {0x0123456789abcdefull, {8, 4}, "Simple Integer",
         "simpleint-ipc0.5"});
    m.entries.push_back(
        {0xffffffffffffffffull, {1, 1}, "adhoc",
         "name with spaces"});
    CampaignManifest t;
    ASSERT_TRUE(manifestFromText(manifestToText(m), t));
    EXPECT_EQ(t.spec, m.spec);
    EXPECT_EQ(t.fingerprint, m.fingerprint);
    ASSERT_EQ(t.entries.size(), 2u);
    for (size_t i = 0; i < t.entries.size(); ++i) {
        EXPECT_EQ(t.entries[i].key, m.entries[i].key) << i;
        EXPECT_EQ(t.entries[i].config.cores,
                  m.entries[i].config.cores)
            << i;
        EXPECT_EQ(t.entries[i].config.smt, m.entries[i].config.smt)
            << i;
        EXPECT_EQ(t.entries[i].source, m.entries[i].source) << i;
        EXPECT_EQ(t.entries[i].workload, m.entries[i].workload)
            << i;
    }
}

TEST(CampaignManifest, RejectsGarbageAndTruncation)
{
    CampaignManifest t;
    EXPECT_FALSE(manifestFromText("", t));
    EXPECT_FALSE(manifestFromText("nonsense\n", t));
    // Declared job count mismatching the entries = torn manifest.
    CampaignManifest m;
    m.spec = "s";
    m.entries.push_back({1, {1, 1}, "adhoc", "w"});
    m.entries.push_back({2, {2, 1}, "adhoc", "w2"});
    std::string text = manifestToText(m);
    std::string torn = text.substr(0, text.rfind("job "));
    EXPECT_FALSE(manifestFromText(torn, t));
}

TEST(CampaignResume, CompletesOnlyRemainingJobs)
{
    Fixture f;
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("resume");

    // Uninterrupted reference run (fresh cache -> all misses).
    Campaign full(f.machine, spec);
    CampaignResult ref = full.run(f.arch);
    std::ostringstream ref_csv;
    exportSamplesCsv(ref_csv, ref.samples);

    // The manifest was persisted next to the cache and covers
    // every job.
    CampaignManifest m;
    ASSERT_TRUE(loadManifest(manifestPath(spec.cacheDir), m));
    EXPECT_EQ(m.spec, spec.contentSummary());
    // The fingerprint identifies job-key-relevant content: stable
    // across worker counts, different for a different salt.
    EXPECT_EQ(m.fingerprint,
              campaignFingerprint(spec, f.machine.fingerprint()));
    CampaignSpec salted = spec;
    salted.salt = 99;
    EXPECT_NE(m.fingerprint,
              campaignFingerprint(salted,
                                  f.machine.fingerprint()));
    CampaignSpec rethreaded = spec;
    rethreaded.threads = 7;
    EXPECT_EQ(m.fingerprint,
              campaignFingerprint(rethreaded,
                                  f.machine.fingerprint()));
    ASSERT_EQ(m.entries.size(), ref.jobs.size());
    for (size_t i = 0; i < m.entries.size(); ++i)
        EXPECT_EQ(m.entries[i].key, ref.jobs[i].key) << i;

    // Simulate an interrupt after N jobs: drop the cache entries
    // of everything after the first N.
    const size_t done = 3;
    ResultCache cache(spec.cacheDir);
    for (size_t i = done; i < ref.jobs.size(); ++i)
        std::filesystem::remove(cache.pathOf(ref.jobs[i].key));

    // Resume reporting sees exactly the dropped jobs.
    auto rem = remainingJobs(m, cache);
    ASSERT_EQ(rem.size(), ref.jobs.size() - done);
    for (size_t i = 0; i < rem.size(); ++i)
        EXPECT_EQ(rem[i].key, ref.jobs[done + i].key) << i;

    // The resumed run touches only the unfinished jobs...
    Campaign resumed(f.machine, spec);
    CampaignResult res = resumed.run(f.arch);
    EXPECT_EQ(res.cacheHits, done);
    EXPECT_EQ(res.cacheMisses, ref.jobs.size() - done);

    // ...and its export is identical to the uninterrupted run's.
    std::ostringstream res_csv;
    exportSamplesCsv(res_csv, res.samples);
    EXPECT_EQ(res_csv.str(), ref_csv.str());

    // Nothing is left afterwards.
    EXPECT_TRUE(remainingJobs(m, cache).empty());
}

// ---------------------------------------------------------------
// Campaign-powered model pipeline

TEST(CampaignPipeline, ThreadCountDoesNotChangeResults)
{
    // The pipeline routes all measurement through
    // Campaign::measure; a 2-thread and a 1-thread run must
    // produce identical samples everywhere (the acceptance bar for
    // the bench migrations).
    Fixture f;
    PipelineOptions po;
    // FloatVector supplies the compute-bound SMT-1 samples the
    // bottom-up training steps need; memory + random cover the
    // rest. Small budgets keep the corpus cheap.
    po.suite.categories = {BenchCategory::FloatVector,
                           BenchCategory::MemoryGroup,
                           BenchCategory::Random};
    po.suite.bodySize = 256;
    po.suite.perMemoryGroup = 1;
    po.suite.memoryCount = 1;
    po.suite.randomCount = 6;
    po.suite.ipcSearchBudget = 2;
    po.suite.threads = 1;
    po.configs = {{1, 1}, {2, 2}, {8, 4}};
    po.randomCrossConfig = 3;
    po.microConfigStride = 2;
    po.specCount = 4;
    po.bodySize = 256;

    po.threads = 1;
    ModelExperiment serial = runModelPipeline(f.arch, f.machine, po);
    po.threads = 2;
    ModelExperiment parallel_ex =
        runModelPipeline(f.arch, f.machine, po);

    auto expect_same = [](const std::vector<Sample> &a,
                          const std::vector<Sample> &b,
                          const char *what) {
        ASSERT_EQ(a.size(), b.size()) << what;
        for (size_t i = 0; i < a.size(); ++i)
            EXPECT_TRUE(samplesEqual(a[i], b[i]))
                << what << "[" << i << "]";
    };
    expect_same(serial.buSet.microSmt1,
                parallel_ex.buSet.microSmt1, "microSmt1");
    expect_same(serial.buSet.microSmtOn,
                parallel_ex.buSet.microSmtOn, "microSmtOn");
    expect_same(serial.buSet.randomSmt1,
                parallel_ex.buSet.randomSmt1, "randomSmt1");
    expect_same(serial.buSet.randomAllConfigs,
                parallel_ex.buSet.randomAllConfigs,
                "randomAllConfigs");
    expect_same(serial.microAllConfigs,
                parallel_ex.microAllConfigs, "microAllConfigs");
    expect_same(serial.randomAllConfigs,
                parallel_ex.randomAllConfigs, "randomAllConfigs");
    expect_same(serial.spec, parallel_ex.spec, "spec");
}

// ---------------------------------------------------------------
// Full-run expansion

TEST(CampaignRun, CategoryRestrictionHonoured)
{
    Fixture f;
    CampaignSpec spec = tinySpec();
    Campaign c(f.machine, spec);
    CampaignResult r = c.run(f.arch);
    ASSERT_EQ(r.workloads.size(), 3u);
    for (const auto &w : r.workloads)
        EXPECT_EQ(w.source, "Random");
    // Jobs cover every (workload, config) pair exactly once.
    std::set<std::pair<size_t, std::string>> pairs;
    for (const auto &j : r.jobs)
        pairs.insert({j.workload, j.config.label()});
    EXPECT_EQ(pairs.size(), r.jobs.size());
}

TEST(CampaignRun, SampleMatchesDirectMeasurement)
{
    // A campaign sample must be exactly what Machine::run yields
    // for the same job salt: the engine adds no distortion.
    Fixture f;
    CampaignSpec spec = tinySpec();
    Campaign c(f.machine, spec);
    CampaignResult r = c.run(f.arch);
    const CampaignJob &job = r.jobs[0];
    const Program &prog = r.workloads[job.workload].program;
    Sample direct = makeSample(
        prog.name,
        f.machine.run(prog, job.config,
                      hashCombine(job.key, 0x5a17ull)));
    EXPECT_TRUE(samplesEqual(direct, r.samples[0]));
}

// ---------------------------------------------------------------
// Exporters

TEST(Export, CsvShapeAndQuoting)
{
    Sample s;
    s.workload = "weird,\"name\"";
    s.config = {8, 4};
    s.rates = {1, 2, 3, 4, 5, 6, 7};
    s.powerWatts = 100.5;
    std::ostringstream os;
    exportSamplesCsv(os, {s});
    std::istringstream in(os.str());
    std::string header, row, extra;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row));
    EXPECT_FALSE(std::getline(in, extra));
    EXPECT_EQ(header,
              "workload,cores,smt,fxu_gevps,vsu_gevps,lsu_gevps,"
              "l1_gevps,l2_gevps,l3_gevps,mem_gevps,power_watts,"
              "instr_gips,core_ipc,freq_ghz,epi_j,edp,vdd_volts,"
              "reliable");
    EXPECT_NE(row.find("\"weird,\"\"name\"\"\""),
              std::string::npos);
    EXPECT_NE(row.find("100.5"), std::string::npos);
}

TEST(Export, JsonEscapingAndFields)
{
    Sample s;
    s.workload = "a\"b\\c\n";
    s.config = {2, 1};
    s.rates = {0, 0, 0, 0, 0, 0, 0};
    s.powerWatts = 60.0;
    std::ostringstream os;
    exportSamplesJson(os, {s});
    std::string j = os.str();
    EXPECT_NE(j.find("\"a\\\"b\\\\c\\n\""), std::string::npos);
    EXPECT_NE(j.find("\"cores\": 2"), std::string::npos);
    EXPECT_NE(j.find("\"FXU\": 0"), std::string::npos);
    EXPECT_NE(j.find("\"power_watts\": 60"), std::string::npos);
}

TEST(Export, FileExtensionSelectsFormat)
{
    Sample s;
    s.workload = "w";
    s.config = {1, 1};
    s.rates = {0, 0, 0, 0, 0, 0, 0};
    s.powerWatts = 1.0;
    std::string base = testing::TempDir() + "mprobe-export";
    exportSamples(base + ".json", {s});
    exportSamples(base + ".csv", {s});
    std::ifstream fj(base + ".json"), fc(base + ".csv");
    std::string first_json, first_csv;
    std::getline(fj, first_json);
    std::getline(fc, first_csv);
    EXPECT_EQ(first_json, "[");
    EXPECT_EQ(first_csv.rfind("workload,", 0), 0u);
}

// ---------------------------------------------------------------
// Worker failure paths

TEST(ParallelFor, WorkerExceptionRethrownOnCaller)
{
    // An uncaught exception inside std::thread would terminate the
    // process; parallelFor must surface it on the calling thread.
    for (int threads : {1, 4}) {
        try {
            parallelFor(threads, 100, [](size_t i) {
                if (i == 37)
                    throw std::runtime_error("job 37 failed");
            });
            FAIL() << "no exception at " << threads << " threads";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "job 37 failed") << threads;
        }
    }
}

TEST(ParallelFor, FirstExceptionWinsAndWorkersStop)
{
    // Every index throws; exactly one exception must surface, and
    // the pool must still join cleanly.
    std::atomic<int> ran{0};
    EXPECT_THROW(parallelFor(4, 1000,
                             [&](size_t) {
                                 ++ran;
                                 throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // Workers stop pulling indices once a failure is recorded.
    EXPECT_LT(ran.load(), 1000);
}

TEST(CampaignMeasure, WorkerExceptionDoesNotTerminate)
{
    // The acceptance bar: an exception thrown inside a campaign
    // job surfaces on the caller's thread. Simulate a job failure
    // via parallelFor with the campaign's own thread resolution.
    int threads = resolveThreads(0, "test");
    EXPECT_THROW(
        parallelFor(threads, 64,
                    [](size_t i) {
                        if (i % 7 == 3)
                            throw std::runtime_error("probe died");
                    }),
        std::runtime_error);
}

// ---------------------------------------------------------------
// Corrupt-entry rejection (non-positive configurations)

TEST(SampleText, RejectsNonPositiveConfig)
{
    Sample s;
    s.workload = "w";
    s.config = {1, 1};
    s.rates = {1, 2, 3, 4, 5, 6, 7};
    s.powerWatts = 70.0;
    s.instrGips = 1.0;
    s.coreIpc = 1.0;
    std::string good = sampleToText(s);
    Sample t;
    ASSERT_TRUE(sampleFromText(good, t));
    // A corrupt "config 0-0" (or any non-positive pair) must parse
    // as a miss, never feed ChipConfig{0,0} downstream.
    for (const char *bad : {"0-0", "0-1", "1-0", "-1-1", "1--2"}) {
        std::string text = good;
        auto at = text.find("config 1-1");
        ASSERT_NE(at, std::string::npos);
        text.replace(at, 10, cat("config ", bad));
        EXPECT_FALSE(sampleFromText(text, t)) << bad;
    }
}

TEST(CampaignManifest, RejectsNonPositiveConfig)
{
    CampaignManifest m;
    m.spec = "s";
    m.fingerprint = 1;
    m.entries.push_back({1, {1, 1}, "adhoc", "w"});
    std::string good = manifestToText(m);
    CampaignManifest t;
    ASSERT_TRUE(manifestFromText(good, t));
    for (const char *bad : {"0-0", "0-1", "1-0"}) {
        std::string text = good;
        auto at = text.find(" 1-1 ");
        ASSERT_NE(at, std::string::npos);
        text.replace(at, 5, cat(" ", bad, " "));
        CampaignManifest u;
        EXPECT_FALSE(manifestFromText(text, u)) << bad;
    }
}

// ---------------------------------------------------------------
// Progress key; the retired shard key

TEST(CampaignSpec, ProgressKeyParses)
{
    CampaignSpec spec = parseCampaignSpecText(
        "progress_seconds = 0.5\n", "<test>");
    EXPECT_EQ(spec.progressSeconds, 0.5);
}

TEST(CampaignSpecDeath, BadShardFatal)
{
    // Static sharding is gone: a spec that still asks for a slice
    // must fail loudly, never run the whole campaign.
    EXPECT_EXIT(parseCampaignSpecText("shard = 0/2\n", "<test>"),
                testing::ExitedWithCode(1),
                "unknown campaign key 'shard'");
}

// ---------------------------------------------------------------
// Merge of an incomplete cache

TEST(CampaignMerge, IncompleteMergeReportsMissing)
{
    Fixture f;
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("merge-partial");
    Campaign c(f.machine, spec);
    CampaignResult r = c.run(f.arch);
    ASSERT_GE(r.jobs.size(), 4u);

    // Drop every third cached result: exactly those jobs must come
    // back missing, and the rest as samples in manifest order.
    ResultCache cache(spec.cacheDir);
    std::set<uint64_t> removed;
    for (size_t i = 0; i < r.jobs.size(); i += 3) {
        ASSERT_TRUE(std::filesystem::remove(cache.pathOf(r.jobs[i].key)));
        removed.insert(r.jobs[i].key);
    }

    CampaignManifest m;
    ASSERT_TRUE(loadManifest(manifestPath(spec.cacheDir), m));
    ManifestCollection col = collectManifestSamples(m, cache);
    std::set<uint64_t> missing;
    for (const auto &e : col.missing)
        EXPECT_TRUE(missing.insert(e.key).second);
    EXPECT_EQ(missing, removed);
    EXPECT_EQ(col.samples.size(), r.jobs.size() - removed.size());
}

// ---------------------------------------------------------------
// Manifest coverage of measure()

TEST(CampaignMeasure, WritesAndAccumulatesManifest)
{
    Fixture f;
    auto progs = f.programs(3);
    std::vector<ChipConfig> cfgs = {{1, 1}, {2, 1}};
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("measure-manifest");

    Campaign c(f.machine, spec);
    auto s1 = c.measure(progs, cfgs);

    CampaignManifest m;
    ASSERT_TRUE(loadManifest(manifestPath(spec.cacheDir), m));
    EXPECT_EQ(m.entries.size(), progs.size() * cfgs.size());
    for (const auto &e : m.entries)
        EXPECT_EQ(e.source, "adhoc");
    // Everything measured: resume has nothing left.
    ResultCache cache(spec.cacheDir);
    EXPECT_TRUE(remainingJobs(m, cache).empty());

    // A second measure() call with new programs accumulates into
    // the same manifest (the model pipeline issues several calls).
    auto more = f.programs(2, 96);
    Campaign c2(f.machine, spec);
    c2.measure(more, cfgs);
    CampaignManifest m2;
    ASSERT_TRUE(loadManifest(manifestPath(spec.cacheDir), m2));
    EXPECT_EQ(m2.entries.size(),
              (progs.size() + more.size()) * cfgs.size());
    // Existing entries keep their order at the front.
    for (size_t i = 0; i < m.entries.size(); ++i)
        EXPECT_EQ(m2.entries[i].key, m.entries[i].key) << i;
}

// ---------------------------------------------------------------
// Progress reporting

TEST(CampaignProgress, DisabledEmitsNoProgressLines)
{
    Fixture f;
    auto progs = f.programs(2);
    CampaignSpec spec = tinySpec();
    spec.progressSeconds = 0;
    Campaign c(f.machine, spec);
    testing::internal::CaptureStderr();
    c.measure(progs, {ChipConfig{1, 1}, ChipConfig{2, 1}});
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("jobs done"), std::string::npos);
}

TEST(CampaignProgress, PeriodicLinesReportCounts)
{
    Fixture f;
    // Large-ish serial batch with a (practically) zero reporting
    // interval: every job past the first elapsed millisecond
    // reports, except the final one (the completion line covers
    // it).
    auto progs = f.programs(4, 768);
    CampaignSpec spec = tinySpec();
    spec.threads = 1;
    spec.progressSeconds = 0.001;
    Campaign c(f.machine, spec);
    testing::internal::CaptureStderr();
    c.measure(progs, {ChipConfig{1, 1}, ChipConfig{2, 2},
                      ChipConfig{4, 2}});
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("of 12 jobs done"), std::string::npos)
        << err;
}

// ---------------------------------------------------------------
// Job cost model and longest-first draining

TEST(JobCost, ScalesWithDeployedThreadsAndBody)
{
    JobCostModel m;
    // An 8-4 deployment simulates 32 hardware-thread contexts; the
    // estimate must dominate 1-1 accordingly, and grow with the
    // loop body.
    EXPECT_GT(m.estimate({8, 4}, 4096), m.estimate({1, 1}, 4096));
    EXPECT_GT(m.estimate({1, 1}, 4096), m.estimate({1, 1}, 128));
    EXPECT_GT(m.estimate({1, 1}, 1), 0.0);
    // Ratios reflect the thread count once the body dwarfs the
    // fixed per-job overhead.
    EXPECT_NEAR(m.estimate({8, 4}, 1 << 20) /
                    m.estimate({1, 1}, 1 << 20),
                32.0, 0.1);
}

TEST(CampaignMeasure, LongestFirstDrainKeepsExportBytes)
{
    // runJobs executes its local queue longest-job-first; the
    // export must not notice (samples are slot-indexed). Compare
    // export bytes of a serial run (in-order reference) against a
    // pooled run over a cost-skewed plan.
    Fixture f;
    auto progs = f.programs(3);
    std::vector<ChipConfig> cfgs = {{1, 1}, {8, 4}, {1, 2},
                                    {8, 2}};
    CampaignSpec serial = tinySpec();
    serial.threads = 1;
    Campaign c1(f.machine, serial);
    std::ostringstream a;
    exportSamplesCsv(a, c1.measure(progs, cfgs));

    CampaignSpec pooled = tinySpec();
    pooled.threads = 4;
    Campaign c4(f.machine, pooled);
    std::ostringstream b;
    exportSamplesCsv(b, c4.measure(progs, cfgs));
    EXPECT_EQ(a.str(), b.str());
}

// ---------------------------------------------------------------
// parallelFor abandonment reporting

TEST(ParallelFor, AbandonedIndicesAreLoggedWithLabel)
{
    // Construction callers pass a label; a worker failure must say
    // how much of the range was abandoned before the rethrow, so
    // partial synthesis never reads like a complete suite.
    for (int threads : {1, 4}) {
        testing::internal::CaptureStderr();
        EXPECT_THROW(
            parallelFor(
                threads, 64,
                [](size_t i) {
                    if (i == 10)
                        throw std::runtime_error("builder died");
                },
                "test synthesis"),
            std::runtime_error);
        std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("test synthesis"), std::string::npos)
            << threads << ": " << err;
        EXPECT_NE(err.find("abandoned"), std::string::npos)
            << threads << ": " << err;
    }
    // Without a label (pure measurement), nothing is logged.
    testing::internal::CaptureStderr();
    EXPECT_THROW(parallelFor(2, 8,
                             [](size_t) {
                                 throw std::runtime_error("x");
                             }),
                 std::runtime_error);
    EXPECT_EQ(testing::internal::GetCapturedStderr().find(
                  "abandoned"),
              std::string::npos);
}

// ---------------------------------------------------------------
// DVFS frequency axis

TEST(CampaignSpec, FreqsKeyParses)
{
    CampaignSpec spec = parseCampaignSpecText(
        "freqs = 2.0, 2.5,3.0,3.5\n", "<test>");
    ASSERT_EQ(spec.freqs.size(), 4u);
    EXPECT_EQ(spec.freqs[0], 2.0);
    EXPECT_EQ(spec.freqs[3], 3.5);
    // Default: no axis.
    EXPECT_TRUE(parseCampaignSpecText("", "<test>").freqs.empty());
}

TEST(CampaignSpecDeath, BadFreqsFatal)
{
    EXPECT_EXIT(parseCampaignSpecText("freqs = 0\n", "<test>"),
                testing::ExitedWithCode(1), "must be > 0");
    EXPECT_EXIT(parseCampaignSpecText("freqs = 2.0,-1\n", "<test>"),
                testing::ExitedWithCode(1), "must be > 0");
    EXPECT_EXIT(
        parseCampaignSpecText("freqs = 2.0,2.0\n", "<test>"),
        testing::ExitedWithCode(1), "duplicate frequency");
}

TEST(CampaignJobKey, FrequencyJoinsTheKeyOnlyWhenSwept)
{
    Fixture f;
    auto progs = f.programs(1);
    uint64_t fp = f.machine.fingerprint();
    uint64_t legacy = campaignJobKey(progs[0], {1, 1}, fp, 0);
    // The nominal sentinel (0) is the pre-DVFS key: a cache
    // written before the frequency axis existed keeps hitting.
    EXPECT_EQ(legacy, campaignJobKey(progs[0], {1, 1}, fp, 0, 0.0));
    // Swept points get their own keys, distinct per frequency.
    uint64_t k25 = campaignJobKey(progs[0], {1, 1}, fp, 0, 2.5);
    uint64_t k35 = campaignJobKey(progs[0], {1, 1}, fp, 0, 3.5);
    EXPECT_NE(legacy, k25);
    EXPECT_NE(legacy, k35);
    EXPECT_NE(k25, k35);
}

TEST(CampaignFreqs, ExpansionCrossProductsAndNominalCollapses)
{
    Fixture f;
    auto progs = f.programs(2);
    std::vector<ChipConfig> cfgs = {{1, 1}, {2, 1}};

    // Reference: the axis-free measurement.
    Campaign ref(f.machine, tinySpec());
    auto nominal = ref.measure(progs, cfgs);

    CampaignSpec spec = tinySpec();
    spec.freqs = {2.0, f.machine.clockGhz(), 3.5};
    Campaign c(f.machine, spec);
    auto swept = c.measure(progs, cfgs);

    // Workload-major, config then frequency innermost.
    ASSERT_EQ(swept.size(),
              progs.size() * cfgs.size() * spec.freqs.size());
    for (size_t w = 0; w < progs.size(); ++w) {
        for (size_t cfg = 0; cfg < cfgs.size(); ++cfg) {
            size_t base =
                (w * cfgs.size() + cfg) * spec.freqs.size();
            for (size_t fi = 0; fi < spec.freqs.size(); ++fi) {
                const Sample &s = swept[base + fi];
                EXPECT_EQ(s.workload, progs[w].name);
                EXPECT_EQ(s.config.cores, cfgs[cfg].cores);
                EXPECT_EQ(s.freqGhz, spec.freqs[fi]);
            }
            // The sweep point at the nominal clock is exactly the
            // axis-free measurement (same key, same salt, same
            // sensor noise).
            EXPECT_TRUE(samplesEqual(
                swept[base + 1], nominal[w * cfgs.size() + cfg]));
        }
    }

    // Physics across the samples: the sweep must not be a rename —
    // power moves with the operating point.
    EXPECT_NE(swept[0].powerWatts, swept[1].powerWatts);
    EXPECT_NE(swept[1].powerWatts, swept[2].powerWatts);
}

TEST(CampaignFreqs, SweptCampaignSharesNominalCacheEntries)
{
    // The miss-free upgrade: a cache populated by an axis-free
    // campaign serves the nominal slice of a later sweep.
    Fixture f;
    auto progs = f.programs(2);
    std::vector<ChipConfig> cfgs = {{1, 1}, {2, 1}};
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("freq-upgrade");

    Campaign legacy(f.machine, spec);
    legacy.measure(progs, cfgs);
    EXPECT_EQ(legacy.cacheMisses(), progs.size() * cfgs.size());

    CampaignSpec sweep_spec = spec;
    sweep_spec.freqs = {2.0, f.machine.clockGhz()};
    Campaign sweep(f.machine, sweep_spec);
    sweep.measure(progs, cfgs);
    // Half the sweep (the nominal points) hits the legacy entries.
    EXPECT_EQ(sweep.cacheHits(), progs.size() * cfgs.size());
    EXPECT_EQ(sweep.cacheMisses(), progs.size() * cfgs.size());
}

TEST(SampleText, MissingFreqLoadsAsNominalDefault)
{
    // Pre-DVFS cache entries carry no freq line: they must load as
    // the 3.0 GHz default (a hit, not a cold re-run).
    Sample s;
    s.workload = "w";
    s.config = {1, 1};
    s.rates = {1, 2, 3, 4, 5, 6, 7};
    s.powerWatts = 70.0;
    s.instrGips = 1.0;
    s.coreIpc = 1.0;
    s.freqGhz = 2.5;
    std::string text = sampleToText(s);
    auto at = text.find("freq ");
    ASSERT_NE(at, std::string::npos);
    // Erase the freq line (pre-DVFS writers never emitted one).
    std::string legacy =
        text.substr(0, at) + text.substr(text.find('\n', at) + 1);
    Sample t;
    t.freqGhz = 99.0; // stale state must not leak through
    ASSERT_TRUE(sampleFromText(legacy, t));
    EXPECT_EQ(t.freqGhz, kNominalFreqGhz);
    // While an explicit non-positive frequency is corrupt.
    for (const char *bad : {"freq 0\n", "freq -2.5\n", "freq x\n"}) {
        Sample u;
        EXPECT_FALSE(sampleFromText(legacy + bad, u)) << bad;
    }
    // And the full round-trip preserves a swept frequency.
    Sample v;
    ASSERT_TRUE(sampleFromText(text, v));
    EXPECT_EQ(v.freqGhz, 2.5);
}

TEST(CampaignCache, LegacyEntryWithoutFreqIsAHit)
{
    // End to end: strip the freq line off a real cache entry (as a
    // pre-DVFS run would have written it) and re-measure — the
    // entry must stay a hit.
    Fixture f;
    auto progs = f.programs(1);
    std::vector<ChipConfig> cfgs = {{1, 1}};
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("freq-legacy");

    Campaign c(f.machine, spec);
    auto s1 = c.measure(progs, cfgs);

    uint64_t key = campaignJobKey(progs[0], cfgs[0],
                                  f.machine.fingerprint(), 0);
    ResultCache cache(spec.cacheDir);
    std::string text;
    {
        std::ifstream in(cache.pathOf(key));
        std::ostringstream os;
        os << in.rdbuf();
        text = os.str();
    }
    auto at = text.find("freq ");
    ASSERT_NE(at, std::string::npos);
    {
        std::ofstream out(cache.pathOf(key));
        out << text.substr(0, at)
            << text.substr(text.find('\n', at) + 1);
    }
    Campaign c2(f.machine, spec);
    auto s2 = c2.measure(progs, cfgs);
    EXPECT_EQ(c2.cacheHits(), 1u);
    EXPECT_EQ(c2.cacheMisses(), 0u);
    EXPECT_TRUE(samplesEqual(s1[0], s2[0]));
}

TEST(CampaignManifest, FreqSuffixRoundTripsAndRejectsCorrupt)
{
    CampaignManifest m;
    m.spec = "s";
    m.fingerprint = 7;
    m.entries.push_back({1, {1, 1}, "adhoc", "nominal", 0.0});
    m.entries.push_back({2, {8, 4}, "adhoc", "swept", 2.5});
    std::string text = manifestToText(m);
    // Nominal entries keep the pre-DVFS token; swept ones gain @.
    EXPECT_NE(text.find(" 1-1 "), std::string::npos);
    EXPECT_NE(text.find(" 8-4@2.5 "), std::string::npos);
    CampaignManifest t;
    ASSERT_TRUE(manifestFromText(text, t));
    EXPECT_EQ(t.entries[0].freqGhz, 0.0);
    EXPECT_EQ(t.entries[1].freqGhz, 2.5);
    // A non-positive swept frequency is corrupt, like a
    // non-positive config.
    for (const char *bad : {"8-4@0", "8-4@-1", "8-4@"}) {
        std::string broken = text;
        auto at = broken.find("8-4@2.5");
        broken.replace(at, 7, bad);
        CampaignManifest u;
        EXPECT_FALSE(manifestFromText(broken, u)) << bad;
    }
}

// ---------------------------------------------------------------
// Undervolting (vdd) axis

TEST(CampaignSpec, VddsKeyParses)
{
    CampaignSpec spec = parseCampaignSpecText(
        "vdds = 0.85, 0.9,0.95,1.0\n", "<test>");
    ASSERT_EQ(spec.vdds.size(), 4u);
    EXPECT_EQ(spec.vdds[0], 0.85);
    EXPECT_EQ(spec.vdds[3], 1.0);
    // Default: no axis.
    EXPECT_TRUE(parseCampaignSpecText("", "<test>").vdds.empty());
}

TEST(CampaignSpecDeath, BadVddsFatal)
{
    EXPECT_EXIT(parseCampaignSpecText("vdds = 0\n", "<test>"),
                testing::ExitedWithCode(1), "must be > 0 V");
    EXPECT_EXIT(
        parseCampaignSpecText("vdds = 0.9,-1\n", "<test>"),
        testing::ExitedWithCode(1), "must be > 0 V");
    EXPECT_EXIT(
        parseCampaignSpecText("vdds = 0.9,0.9\n", "<test>"),
        testing::ExitedWithCode(1), "duplicate voltage");
}

TEST(CampaignJobKey, VddJoinsTheKeyOnlyWhenOffCurve)
{
    Fixture f;
    auto progs = f.programs(1);
    uint64_t fp = f.machine.fingerprint();
    uint64_t legacy = campaignJobKey(progs[0], {1, 1}, fp, 0);
    // The on-curve sentinel (0) is the pre-undervolting key.
    EXPECT_EQ(legacy,
              campaignJobKey(progs[0], {1, 1}, fp, 0, 0.0, 0.0));
    // Off-curve voltages get their own keys, distinct per volt.
    uint64_t k90 =
        campaignJobKey(progs[0], {1, 1}, fp, 0, 0.0, 0.90);
    uint64_t k95 =
        campaignJobKey(progs[0], {1, 1}, fp, 0, 0.0, 0.95);
    EXPECT_NE(legacy, k90);
    EXPECT_NE(legacy, k95);
    EXPECT_NE(k90, k95);
    // Domain separation: a vdd-only job must not collide with a
    // freq-only job sweeping the same numeric value.
    EXPECT_NE(campaignJobKey(progs[0], {1, 1}, fp, 0, 2.5, 0.0),
              campaignJobKey(progs[0], {1, 1}, fp, 0, 0.0, 2.5));
}

TEST(CampaignVdds, ExpansionCrossProductsAndOnCurveCollapses)
{
    Fixture f;
    auto progs = f.programs(2);
    std::vector<ChipConfig> cfgs = {{1, 1}, {2, 1}};

    // Reference: the axis-free (on-curve nominal) measurement.
    Campaign ref(f.machine, tinySpec());
    auto nominal = ref.measure(progs, cfgs);

    double curve_v = f.machine.voltageAt(f.machine.clockGhz());
    CampaignSpec spec = tinySpec();
    spec.vdds = {0.90, curve_v};
    Campaign c(f.machine, spec);
    auto swept = c.measure(progs, cfgs);

    // Workload-major, config then frequency then vdd innermost.
    ASSERT_EQ(swept.size(),
              progs.size() * cfgs.size() * spec.vdds.size());
    for (size_t w = 0; w < progs.size(); ++w)
        for (size_t cfg = 0; cfg < cfgs.size(); ++cfg) {
            size_t base =
                (w * cfgs.size() + cfg) * spec.vdds.size();
            EXPECT_EQ(swept[base].vddVolts, 0.90);
            // The on-curve sweep point is exactly the axis-free
            // measurement (collapsed key, same sensor noise).
            EXPECT_TRUE(samplesEqual(
                swept[base + 1], nominal[w * cfgs.size() + cfg]));
            // Undervolting at fixed frequency saves power.
            EXPECT_LT(swept[base].powerWatts,
                      swept[base + 1].powerWatts);
        }
}

TEST(CampaignVdds, BelowVminComesBackFlaggedUnreliable)
{
    Fixture f;
    auto progs = f.programs(1);
    std::vector<ChipConfig> cfgs = {{1, 1}};
    CampaignSpec spec = tinySpec();
    // At 3 GHz the hidden Vmin is at least 0.60 + 0.04*3 = 0.72 V
    // (plus the IPC term): 0.70 V is always below it, 1.0 V (the
    // nominal curve point) always above.
    spec.vdds = {0.70, 1.0};
    Campaign c(f.machine, spec);
    auto swept = c.measure(progs, cfgs);
    ASSERT_EQ(swept.size(), 2u);
    EXPECT_FALSE(swept[0].reliable);
    EXPECT_TRUE(swept[1].reliable);
    // The unreliable point still carries its measured numbers.
    EXPECT_GT(swept[0].powerWatts, 0.0);
}

TEST(SampleText, MissingVddLoadsAsCurveDefault)
{
    // Pre-undervolting cache entries carry no vdd/reliable lines:
    // they must load as the on-curve voltage at their frequency,
    // reliable.
    Sample s;
    s.workload = "w";
    s.config = {1, 1};
    s.rates = {1, 2, 3, 4, 5, 6, 7};
    s.powerWatts = 70.0;
    s.instrGips = 1.0;
    s.coreIpc = 1.0;
    s.freqGhz = 2.5;
    s.vddVolts = 0.9;
    s.reliable = false;
    std::string text = sampleToText(s);
    // Erase the vdd and reliable lines (pre-undervolting writers
    // never emitted them).
    std::string legacy = text;
    for (const char *key : {"vdd ", "reliable "}) {
        auto at = legacy.find(key);
        ASSERT_NE(at, std::string::npos) << key;
        legacy = legacy.substr(0, at) +
                 legacy.substr(legacy.find('\n', at) + 1);
    }
    Sample t;
    t.vddVolts = 99.0; // stale state must not leak through
    t.reliable = false;
    ASSERT_TRUE(sampleFromText(legacy, t));
    EXPECT_EQ(t.vddVolts, nominalCurveVoltage(2.5));
    EXPECT_TRUE(t.reliable);
    // While explicit corrupt lines must fail the parse.
    for (const char *bad : {"vdd 0\n", "vdd -1\n", "vdd x\n",
                            "reliable 2\n", "reliable x\n",
                            "reliable \n"}) {
        Sample u;
        EXPECT_FALSE(sampleFromText(legacy + bad, u)) << bad;
    }
    // And the full round-trip preserves voltage and flag.
    Sample v;
    ASSERT_TRUE(sampleFromText(text, v));
    EXPECT_EQ(v.vddVolts, 0.9);
    EXPECT_FALSE(v.reliable);
}

TEST(CampaignCache, LegacyEntryWithoutVddIsAHit)
{
    // End to end: strip the vdd and reliable lines off a real
    // cache entry (as a pre-undervolting run would have written
    // it) and re-measure — the entry must stay a hit with the
    // exact on-curve voltage.
    Fixture f;
    auto progs = f.programs(1);
    std::vector<ChipConfig> cfgs = {{1, 1}};
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("vdd-legacy");

    Campaign c(f.machine, spec);
    auto s1 = c.measure(progs, cfgs);

    uint64_t key = campaignJobKey(progs[0], cfgs[0],
                                  f.machine.fingerprint(), 0);
    ResultCache cache(spec.cacheDir);
    std::string text;
    {
        std::ifstream in(cache.pathOf(key));
        std::ostringstream os;
        os << in.rdbuf();
        text = os.str();
    }
    for (const char *k : {"vdd ", "reliable "}) {
        auto at = text.find(k);
        ASSERT_NE(at, std::string::npos) << k;
        text = text.substr(0, at) +
               text.substr(text.find('\n', at) + 1);
    }
    {
        std::ofstream out(cache.pathOf(key));
        out << text;
    }
    Campaign c2(f.machine, spec);
    auto s2 = c2.measure(progs, cfgs);
    EXPECT_EQ(c2.cacheHits(), 1u);
    EXPECT_EQ(c2.cacheMisses(), 0u);
    EXPECT_TRUE(samplesEqual(s1[0], s2[0]));
}

TEST(CampaignCache, PoisonedEntryIsReMeasuredOnce)
{
    // An on-curve sample stored under an off-curve key (what a path
    // that drops the job's vdd would store) parses fine but names
    // the wrong operating point: a run treats it as corrupt,
    // re-measures and overwrites it, and the next run hits.
    Fixture f;
    auto progs = f.programs(2);
    std::vector<ChipConfig> cfgs = {{1, 1}, {2, 2}};
    CampaignSpec spec = tinySpec();
    spec.vdds = {0.80};
    spec.cacheDir = freshCacheDir("poison");
    auto csvOf = [](const std::vector<Sample> &samples) {
        std::ostringstream os;
        exportSamplesCsv(os, samples);
        return os.str();
    };

    Campaign clean(f.machine, spec);
    std::string ref = csvOf(clean.measure(progs, cfgs));

    uint64_t key = campaignJobKey(progs[0], cfgs[0],
                                  f.machine.fingerprint(), 0, 0.0,
                                  0.80);
    Sample on_curve = makeSample(
        progs[0].name,
        f.machine.run(progs[0], cfgs[0], f.machine.operatingPoint(),
                      hashCombine(key, 0x5a17ull)));
    ASSERT_NE(on_curve.vddVolts, 0.80);
    ASSERT_TRUE(ResultCache(spec.cacheDir).store(key, on_curve));

    Campaign healing(f.machine, spec);
    EXPECT_EQ(csvOf(healing.measure(progs, cfgs)), ref);
    EXPECT_EQ(healing.cacheMisses(), 1u);
    EXPECT_EQ(healing.cacheCorrupt(), 1u);

    Campaign healed(f.machine, spec);
    EXPECT_EQ(csvOf(healed.measure(progs, cfgs)), ref);
    EXPECT_EQ(healed.cacheHits(), progs.size() * cfgs.size());
    EXPECT_EQ(healed.cacheMisses(), 0u);
}

TEST(CampaignManifest, VddSuffixRoundTripsAndRejectsCorrupt)
{
    CampaignManifest m;
    m.spec = "s";
    m.fingerprint = 7;
    m.entries.push_back({1, {1, 1}, "adhoc", "nominal", 0.0, 0.0});
    m.entries.push_back({2, {8, 4}, "adhoc", "uv", 0.0, 0.875});
    m.entries.push_back({3, {8, 4}, "adhoc", "both", 2.5, 0.875});
    std::string text = manifestToText(m);
    // On-curve entries keep the bare token; off-curve ones gain a
    // V-terminated @vdd segment, after the @freq one when both.
    EXPECT_NE(text.find(" 1-1 "), std::string::npos);
    EXPECT_NE(text.find(" 8-4@0.875V "), std::string::npos);
    EXPECT_NE(text.find(" 8-4@2.5@0.875V "), std::string::npos);
    CampaignManifest t;
    ASSERT_TRUE(manifestFromText(text, t));
    EXPECT_EQ(t.entries[0].vdd, 0.0);
    EXPECT_EQ(t.entries[1].freqGhz, 0.0);
    EXPECT_EQ(t.entries[1].vdd, 0.875);
    EXPECT_EQ(t.entries[2].freqGhz, 2.5);
    EXPECT_EQ(t.entries[2].vdd, 0.875);
    // Non-positive voltages, a missing trailing V on the second
    // segment and torn suffixes are corrupt.
    for (const char *bad :
         {"8-4@0V", "8-4@-1V", "8-4@2.5@0.92", "8-4@2.5@V",
          "8-4@2.5@0.92V@1V"}) {
        std::string broken = text;
        auto at = broken.find("8-4@0.875V");
        broken.replace(at, 10, bad);
        CampaignManifest u;
        EXPECT_FALSE(manifestFromText(broken, u)) << bad;
    }
}

// ---------------------------------------------------------------
// Progress ETA and cost-model calibration

TEST(CampaignProgress, LinesIncludeCostWeightedEta)
{
    Fixture f;
    auto progs = f.programs(4, 768);
    CampaignSpec spec = tinySpec();
    spec.threads = 1;
    spec.progressSeconds = 0.001;
    Campaign c(f.machine, spec);
    testing::internal::CaptureStderr();
    c.measure(progs, {ChipConfig{1, 1}, ChipConfig{2, 2},
                      ChipConfig{4, 2}});
    std::string err = testing::internal::GetCapturedStderr();
    ASSERT_NE(err.find("jobs done"), std::string::npos) << err;
    EXPECT_NE(err.find("s left"), std::string::npos) << err;
}

TEST(CampaignRun, RecordsPerJobWallSeconds)
{
    Fixture f;
    CampaignSpec spec = tinySpec();
    Campaign c(f.machine, spec);
    CampaignResult r = c.run(f.arch);
    ASSERT_EQ(r.jobSeconds.size(), r.jobs.size());
    ASSERT_EQ(r.jobCached.size(), r.jobs.size());
    for (size_t i = 0; i < r.jobs.size(); ++i) {
        EXPECT_GT(r.jobSeconds[i], 0.0) << i;
        EXPECT_EQ(r.jobCached[i], 0) << i; // no cache dir: all cold
    }
}

TEST(JobCost, CalibrationRecoversKnownConstants)
{
    // Synthetic timings from known constants: seconds =
    // a + b * threads * body. The fit must recover them and the
    // normalized model must land at perJob = a/b.
    const double a = 3e-4, b = 2e-8;
    std::vector<JobTiming> timings;
    for (int cores : {1, 2, 4, 8})
        for (int smt : {1, 2, 4})
            for (size_t body : {256u, 1024u, 4096u})
                timings.push_back(
                    {{cores, smt}, body,
                     a + b * cores * smt *
                             static_cast<double>(body),
                     false});
    // Cache hits must be ignored, not fitted.
    timings.push_back({{8, 4}, 4096, 1e-6, true});

    CostCalibration cal = calibrateJobCostModel(timings);
    ASSERT_TRUE(cal.ok);
    EXPECT_EQ(cal.used, timings.size() - 1);
    EXPECT_NEAR(cal.perJobSeconds, a, a * 1e-6);
    EXPECT_NEAR(cal.perSlotThreadSeconds, b, b * 1e-6);
    EXPECT_NEAR(cal.fitted.perJob, a / b, a / b * 1e-6);
    EXPECT_EQ(cal.fitted.perSlotThread, 1.0);
    EXPECT_GT(cal.r2, 0.999);
}

TEST(JobCost, CalibrationRefusesDegenerateInput)
{
    // All-cached, empty, or single-size inputs cannot support a
    // fit.
    EXPECT_FALSE(calibrateJobCostModel({}).ok);
    std::vector<JobTiming> cached = {{{1, 1}, 256, 0.1, true},
                                     {{8, 4}, 4096, 0.9, true}};
    EXPECT_FALSE(calibrateJobCostModel(cached).ok);
    std::vector<JobTiming> flat = {{{1, 1}, 256, 0.1, false},
                                   {{1, 1}, 256, 0.2, false}};
    EXPECT_FALSE(calibrateJobCostModel(flat).ok);
}

TEST(JobCost, CalibrationVerdictAgainstShippedDefault)
{
    // Tiny jobs dominated by noise: the fitted intercept is
    // negative, perJob clamps to 0, and a fit that calls every
    // job's overhead free must not read as confirming the shipped
    // default.
    std::vector<JobTiming> noisy;
    for (size_t body : {2048u, 4096u, 8192u})
        noisy.push_back({{1, 1}, body,
                         -1e-5 + 1e-8 * static_cast<double>(body), false});
    CostCalibration cal = calibrateJobCostModel(noisy);
    ASSERT_TRUE(cal.ok);
    EXPECT_LT(cal.perJobSeconds, 0.0);
    EXPECT_EQ(cal.fitted.perJob, 0.0);
    EXPECT_FALSE(perJobWithinDefault(cal.fitted)) << "differs";

    // Timings whose normalized intercept lands at the shipped 64:
    // within.
    const double b = 1e-8, a = 64.0 * b;
    std::vector<JobTiming> match;
    for (int smt : {1, 2, 4})
        for (size_t body : {256u, 1024u, 4096u})
            match.push_back({{1, smt}, body,
                             a + b * smt * static_cast<double>(body), false});
    cal = calibrateJobCostModel(match);
    ASSERT_TRUE(cal.ok);
    EXPECT_NEAR(cal.fitted.perJob, 64.0, 1e-3);
    EXPECT_TRUE(perJobWithinDefault(cal.fitted)) << "within";

    // The 2x band is inclusive at both ends, exclusive past them.
    JobCostModel m;
    for (double pj : {32.0, 128.0}) {
        m.perJob = pj;
        EXPECT_TRUE(perJobWithinDefault(m)) << pj;
    }
    for (double pj : {31.0, 129.0}) {
        m.perJob = pj;
        EXPECT_FALSE(perJobWithinDefault(m)) << pj;
    }
}

TEST(CampaignFingerprint, CorpusTagSeparatesManifests)
{
    // measure()-provided corpora are invisible to the fingerprint;
    // the corpus tag stands in for them, so differently-shaped
    // corpora (fast vs. full bench modes) sharing one cache
    // directory keep separate manifests. Job keys never include
    // it: cache entries are shared freely.
    Fixture f;
    CampaignSpec a = tinySpec();
    CampaignSpec b = tinySpec();
    b.corpusTag = 0xfa57ull;
    uint64_t fp = f.machine.fingerprint();
    EXPECT_NE(campaignFingerprint(a, fp),
              campaignFingerprint(b, fp));
    auto progs = f.programs(1);
    EXPECT_EQ(campaignJobKey(progs[0], {1, 1}, fp, 0),
              campaignJobKey(progs[0], {1, 1}, fp, 0));
}
