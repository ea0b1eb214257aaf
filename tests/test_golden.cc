/**
 * @file
 * Golden digests: committed fingerprints of what the simulator
 * produces on fixed inputs, so results are pinned rather than only
 * self-consistent.
 *
 * Pinned: the CSV exports of three campaign specs (the CI perf
 * spec, the DVFS sweep spec and the vdds x freqs undervolt spec),
 * the sorted cache-key listings of the perf and undervolt specs
 * (the perf one at one and two threads), the core-sim
 * counter vectors of the test_core_sim corpus at SMT 1/2/4 and two
 * memory latencies, and the heterogeneous SMT co-runs of
 * test_extensions and bench_fig9.
 *
 * A change that moves any of these fails here and prints the
 * actual digest as a line to paste over the committed one. That is
 * the only way to regenerate them: there is no flag or environment
 * variable that rewrites goldens. A deliberate move must be named
 * in CHANGES.md and bump the machine fingerprint (docs/MODEL.md,
 * "Compatibility rules").
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>

#include "campaign/campaign.hh"
#include "campaign/export.hh"
#include "microprobe/bootstrap.hh"
#include "microprobe/cache_model.hh"
#include "microprobe/passes.hh"
#include "microprobe/synthesizer.hh"
#include "sim/core.hh"
#include "uarch/uarch.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "workloads/stressmarks.hh"

using namespace mprobe;

namespace
{

/** The committed digests, by name. */
const std::map<std::string, uint64_t> kGolden = {
    {"campaign.perf.csv", 0x6a9ccb0118572c98ull},
    {"campaign.perf.keys", 0x25a7485dd0d99791ull},
    {"campaign.sweep.csv", 0xf8b99b0e86359654ull},
    {"campaign.uv.csv", 0x5b62334373c4ec05ull},
    {"campaign.uv.keys", 0x0e9dc7bbfafe7e6full},
    {"core_sim.lat220.smt1", 0xc9f5fe1a97dac8daull},
    {"core_sim.lat220.smt2", 0x5cc0a2a14d758d47ull},
    {"core_sim.lat220.smt4", 0x9b22f7c9739a128aull},
    {"core_sim.lat400.smt1", 0xd9aa1623d6ca5134ull},
    {"core_sim.lat400.smt2", 0x31a942260e6a4c03ull},
    {"core_sim.lat400.smt4", 0x6a9eea7e619b8fe9ull},
    {"hetero.extensions", 0xa5a6c753fe1a5aa3ull},
    {"hetero.streams", 0xe055bb0ea57aa45bull},
    {"hetero.fig9", 0x1852647e1d02d7cfull},
};

/** Compare @p actual with the committed digest @p name. */
void
expectGolden(const std::string &name, uint64_t actual)
{
    auto it = kGolden.find(name);
    uint64_t expected = it == kGolden.end() ? 0 : it->second;
    char line[96];
    std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxull},",
                  name.c_str(),
                  static_cast<unsigned long long>(actual));
    EXPECT_EQ(actual, expected)
        << "golden '" << name << "' moved; actual:\n"
        << line;
}

// ---------------------------------------------------------------
// Campaign exports

/** The CI perf spec: every config, memory + random. */
const char *const kPerfSpec = "categories = memory, random\n"
                              "configs = all\n"
                              "random_count = 8\n"
                              "per_memory_group = 1\n"
                              "memory_count = 2\n"
                              "body_size = 1024\n"
                              "bootstrap = 0\n"
                              "threads = 1\n";

/** The CI DVFS sweep spec: four frequencies per config. */
const char *const kSweepSpec = "categories = memory, random\n"
                               "configs = 1-1,2-2,4-2,8-4\n"
                               "freqs = 2.0,2.5,3.0,3.5\n"
                               "random_count = 8\n"
                               "per_memory_group = 1\n"
                               "memory_count = 2\n"
                               "body_size = 1024\n"
                               "bootstrap = 0\n"
                               "threads = 1\n";

/** The CI undervolt spec: vdds x freqs, reliable and not. */
const char *const kUndervoltSpec = "categories = memory, random\n"
                                   "configs = 1-1,2-2\n"
                                   "freqs = 2.5,3.0\n"
                                   "vdds = 0.70,0.92,1.0\n"
                                   "random_count = 4\n"
                                   "per_memory_group = 1\n"
                                   "memory_count = 1\n"
                                   "body_size = 512\n"
                                   "bootstrap = 0\n"
                                   "threads = 1\n";

/** Run @p spec_text as mprobe_campaign does, on @p threads workers
 * (0 keeps the spec's own count); return its CSV. */
std::string
campaignCsv(const char *spec_text, const std::string &cache_dir = "",
            int threads = 0)
{
    CampaignSpec spec = parseCampaignSpecText(spec_text, "golden");
    spec.cacheDir = cache_dir;
    if (threads > 0)
        spec.threads = threads;
    Architecture arch = Architecture::get("POWER7");
    Machine machine(arch.isa(), arch.uarch().cacheGeometries(),
                    arch.uarch().clockGhz());
    Campaign campaign(machine, spec);
    CampaignResult res = campaign.run(arch);
    std::ostringstream os;
    exportSamplesCsv(os, res.samples);
    return os.str();
}

/** The sorted file listing of cache directory @p dir, one name a
 * line: every job key plus the manifest. */
std::string
cacheListing(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    std::string listing;
    for (const auto &n : names)
        listing += n + "\n";
    EXPECT_GT(names.size(), 0u);
    return listing;
}

} // namespace

TEST(Golden, PerfSpecExportAndCacheKeys)
{
    setLogLevel(LogLevel::Quiet);
    std::string dir = testing::TempDir() + "mprobe-golden-perf";
    std::filesystem::remove_all(dir);
    expectGolden("campaign.perf.csv", hashStr(campaignCsv(kPerfSpec, dir)));
    expectGolden("campaign.perf.keys", hashStr(cacheListing(dir)));
    std::filesystem::remove_all(dir);

    // Keying is spread over the campaign's workers: two of them
    // must write exactly the same keys as one.
    campaignCsv(kPerfSpec, dir, 2);
    expectGolden("campaign.perf.keys", hashStr(cacheListing(dir)));
    std::filesystem::remove_all(dir);
}

TEST(Golden, SweepSpecExport)
{
    setLogLevel(LogLevel::Quiet);
    expectGolden("campaign.sweep.csv", hashStr(campaignCsv(kSweepSpec)));
}

TEST(Golden, UndervoltSpecExportAndCacheKeys)
{
    setLogLevel(LogLevel::Quiet);
    std::string dir = testing::TempDir() + "mprobe-golden-uv";
    std::filesystem::remove_all(dir);
    std::string csv = campaignCsv(kUndervoltSpec, dir);
    // The spec reaches below Vmin: both flags are exported.
    EXPECT_NE(csv.find(",0\n"), std::string::npos);
    EXPECT_NE(csv.find(",1\n"), std::string::npos);
    expectGolden("campaign.uv.csv", hashStr(csv));
    // The keys of the freq axis, the tagged vdd axis and the
    // on-curve collapse (1.0 V at 3.0 GHz keys as vdd-free).
    expectGolden("campaign.uv.keys", hashStr(cacheListing(dir)));
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------
// Core-sim counter vectors

namespace
{

const Isa &isa = builtinP7Isa();

/** Every counter, the iteration count and the thread count. */
void
addResult(Hasher &h, const CoreResult &r)
{
    const RunCounters &w = r.window;
    for (double v :
         {w.cycles, w.instrs, w.fxuOps, w.lsuOps, w.vsuOps, w.bruOps,
          w.cruOps, w.loads, w.stores, w.l1Hits, w.l2Hits, w.l3Hits,
          w.memAcc, w.energyNj, w.overlapNj, w.transitionNj})
        h.add(v);
    h.add(r.iterations).add(r.threads);
}

/** test_core_sim's loop: @p n copies of one opcode plus bdnz. */
Program
loopOf(const std::string &op, size_t n, int dep, int stream = -1)
{
    Program p;
    p.isa = &isa;
    p.name = "test-" + op;
    Isa::OpIndex o = isa.find(op);
    for (size_t i = 0; i + 1 < n; ++i)
        p.body.push_back({o, dep, stream, 1.0f, 1.0f});
    p.body.push_back({isa.find("bdnz"), 0, -1, 1.0f, 1.0f});
    return p;
}

Program
withStream(Program p, HitLevel lvl)
{
    UarchDef u = builtinP7Uarch();
    AnalyticalCacheModel m(u);
    p.streams.push_back(m.makeStream(lvl, 0).stream);
    return p;
}

/** The programs test_core_sim.cc simulates. */
std::vector<Program>
coreSimCorpus()
{
    std::vector<Program> c;
    c.push_back(loopOf("add", 1024, 0));
    c.push_back(loopOf("subf", 1024, 0));
    c.push_back(loopOf("add", 1024, 1));
    c.push_back(loopOf("mulldo", 1024, 1));
    for (int d : {1, 2, 4, 8})
        c.push_back(loopOf("xvmaddadp", 1024, d));
    c.push_back(loopOf("mulldo", 1024, 0));
    c.push_back(loopOf("vand", 1024, 0));
    c.push_back(withStream(loopOf("lbz", 1024, 0, 0), HitLevel::L1));
    c.push_back(withStream(loopOf("ldux", 1024, 0, 0), HitLevel::L1));
    c.push_back(
        withStream(loopOf("stxvw4x", 1024, 0, 0), HitLevel::L1));
    c.push_back(withStream(loopOf("lbz", 1024, 1, 0), HitLevel::L1));
    c.push_back(withStream(loopOf("lbz", 256, 4, 0), HitLevel::Mem));
    c.push_back(withStream(loopOf("lhaux", 512, 0, 0), HitLevel::L1));
    c.push_back(
        withStream(loopOf("stxvw4x", 512, 0, 0), HitLevel::L1));
    c.push_back(withStream(loopOf("lbz", 512, 0, 0), HitLevel::L1));

    Program mix;
    mix.isa = &isa;
    mix.name = "mix";
    for (int i = 0; i < 511; ++i)
        mix.body.push_back({i % 2 ? isa.find("subf")
                                  : isa.find("xvmaddadp"),
                            0, -1, 1.0f, 1.0f});
    mix.body.push_back({isa.find("bdnz"), 0, -1, 1.0f, 1.0f});
    c.push_back(mix);

    Program cold = loopOf("xvmaddadp", 1024, 0);
    for (auto &pi : cold.body)
        pi.toggle = 0.0f;
    c.push_back(cold);

    // Grouped vs interleaved unit order (overlap energy).
    Isa::OpIndex m = isa.find("mulldo");
    Isa::OpIndex v = isa.find("xvmaddadp");
    Isa::OpIndex l = isa.find("lbz");
    for (bool interleaved : {true, false}) {
        Program p = withStream(Program(), HitLevel::L1);
        p.isa = &isa;
        p.name = interleaved ? "inter" : "grouped";
        const int n = 900;
        for (int i = 0; i < n; ++i) {
            Isa::OpIndex op;
            if (interleaved)
                op = i % 3 == 0 ? m : (i % 3 == 1 ? v : l);
            else
                op = i < n / 3 ? m : (i < 2 * n / 3 ? v : l);
            p.body.push_back({op, 0, isa.at(op).isMemory() ? 0 : -1,
                              1.0f, 1.0f});
        }
        p.body.push_back({isa.find("bdnz"), 0, -1, 1.0f, 1.0f});
        c.push_back(p);
    }

    // Conditional branches, predictable and random.
    for (float taken : {1.0f, 0.5f}) {
        Program p;
        p.isa = &isa;
        p.name = "br";
        for (int i = 0; i < 511; ++i) {
            if (i % 8 == 7)
                p.body.push_back({isa.find("bc"), 0, -1, 1.0f, taken});
            else
                p.body.push_back({isa.find("add"), 0, -1, 1.0f, 1.0f});
        }
        p.body.push_back({isa.find("bdnz"), 0, -1, 1.0f, 1.0f});
        c.push_back(p);
    }

    // The dependency-distance property sweep.
    for (const char *op : {"add", "subf", "mulldo", "fadd", "xvmaddadp",
                           "vand", "popcntd"})
        for (int d : {1, 2, 3, 5, 8, 13, 21})
            c.push_back(loopOf(op, 512, d));
    return c;
}

/** The two memory latencies the corpora run at. */
const int kLatencies[] = {ExecModel::memLatencyBase, 400};

} // namespace

TEST(Golden, CoreSimCorpus)
{
    ExecModel exec(isa);
    std::vector<Program> corpus = coreSimCorpus();
    for (int lat : kLatencies)
        for (int smt : {1, 2, 4}) {
            CoreSimOptions opts;
            opts.memLatency = lat;
            Hasher h;
            for (const Program &p : corpus)
                addResult(h, simulateCore(exec, p, smt, opts));
            expectGolden(cat("core_sim.lat", lat, ".smt", smt),
                         h.digest());
        }
}

// ---------------------------------------------------------------
// Heterogeneous SMT co-runs

namespace
{

/** test_extensions' synthesized single-opcode loop. */
Program
synthLoop(Architecture &arch, const std::string &op)
{
    Synthesizer s(arch, 99);
    s.addPass<SkeletonPass>(512);
    s.addPass<SequencePass>(
        std::vector<Isa::OpIndex>{arch.isa().find(op)});
    s.add(std::make_unique<DependencyDistancePass>(
        DependencyDistancePass::none()));
    return s.synthesize(op + "-loop");
}

/** Hash each co-run at both latencies into one digest. */
uint64_t
coRunDigest(const ExecModel &exec,
            const std::vector<std::vector<const Program *>> &runs,
            const CoreSimOptions &base = CoreSimOptions())
{
    Hasher h;
    for (int lat : kLatencies) {
        CoreSimOptions opts = base;
        opts.memLatency = lat;
        for (const auto &run : runs)
            addResult(h, simulateCoreHetero(exec, run, opts));
    }
    return h.digest();
}

} // namespace

TEST(Golden, HeteroCoRuns)
{
    Architecture arch = Architecture::get("POWER7");
    Program fxu = synthLoop(arch, "subf");
    Program vsu = synthLoop(arch, "xvmaddadp");
    Program lsu = synthLoop(arch, "lbz");
    UarchDef u = builtinP7Uarch();
    AnalyticalCacheModel cm(u);
    lsu.streams.push_back(cm.makeStream(HitLevel::L1, 0).stream);
    for (auto &pi : lsu.body)
        if (arch.isa().at(pi.op).isMemory())
            pi.stream = 0;
    Program add = synthLoop(arch, "add");
    // Two programs that both own streams, so a co-run must keep
    // each thread on its own program's streams.
    Program mem = withStream(loopOf("lbz", 256, 4, 0), HitLevel::Mem);
    Program l2 = withStream(loopOf("ld", 384, 6, 0), HitLevel::L2);

    ExecModel exec(arch.isa());
    expectGolden("hetero.extensions",
                 coRunDigest(exec, {{&fxu, &vsu},
                                    {&fxu, &vsu, &lsu, &add}}));
    expectGolden("hetero.streams",
                 coRunDigest(exec, {{&lsu, &mem},
                                    {&mem, &l2},
                                    {&mem, &lsu, &l2, &mem},
                                    {&add, &add, &mem, &mem}}));
}

TEST(Golden, Fig9HeteroCoRuns)
{
    // bench_fig9's heterogeneous-SMT extension at its MPROBE_FAST
    // scale: bootstrapped MicroProbe picks, 1024-slot stressmarks.
    setLogLevel(LogLevel::Quiet);
    Architecture arch = Architecture::get("POWER7");
    Machine machine(arch.isa());
    BootstrapOptions bo;
    bo.bodySize = 512;
    bootstrapArchitecture(arch, machine, bo);
    auto picks = microprobePicks(arch);
    const size_t body = 1024;
    Program fxu = buildStressmark(arch, {picks[0]}, "het-fxu", body);
    Program lsu = buildStressmark(arch, {picks[1]}, "het-lsu", body);
    Program vsu = buildStressmark(arch, {picks[2]}, "het-vsu", body);
    Program best = buildStressmark(arch, picks, "hom-best", body);

    ExecModel exec(arch.isa());
    expectGolden("hetero.fig9",
                 coRunDigest(exec,
                             {{&best, &best, &best, &best},
                              {&fxu, &lsu, &vsu, &best},
                              {&fxu, &vsu}},
                             machine.simOptions()));
}
