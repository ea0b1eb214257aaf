/**
 * @file
 * mprobe_perf: runs one benchmark workload and prints its metrics.
 *
 *   mprobe_perf --workload <name> --seed <n> --seconds <s>
 *               --trace <0|1> [--out <dir>] [--commit <id>]
 *
 * --trace 0 times the workload's whole user-visible operation in a
 * closed loop for --seconds and reports the end-to-end metrics.
 * --trace 1 times it traced and untraced, replays its inputs layer
 * by layer and reports the per-layer metrics. Either way every
 * export is checked against an untimed reference, and the last
 * stdout line is one JSON object: correct, attempted, failed,
 * metrics.
 */

#include <sys/resource.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "campaign/export.hh"
#include "obs/trace.hh"
#include "perfbench.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "workloads/spec_proxies.hh"

namespace perfbench
{
namespace
{

using namespace mprobe;
namespace fs = std::filesystem;

struct Options
{
    Kind kind = Kind::PlainCold;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string out = ".perfbench-out";
    std::string commit = "unknown";
};

/**
 * model_pipeline results pinned at the recorded seeds (0 = default,
 * 1 = held out): util/hash digest of the exported CSV and the paper's
 * PAAE on the SPEC proxies. Other seeds are checked against an
 * untimed reference run only.
 */
struct Pinned
{
    uint64_t seed;
    uint64_t digest;
    double paaeBuPct;
    double paaeTdSpecPct;
};
const Pinned kPinned[] = {
    {0, 0x1cbe088c513327c7ull, 2.7212904119706121,
     0.61372417898416132},
    {1, 0x4385e1f925a3739eull, 2.3639968077435642,
     0.56844622758193297},
};

uint64_t
digestOf(const std::string &text)
{
    Hasher h;
    h.add(text);
    return h.digest();
}

/** One execution of the workload's timed operation. */
struct OpRun
{
    double wall = 0.0;
    size_t jobs = 0;
    std::string csv;
    /** Campaign workloads. */
    CampaignResult res;
    /** model_pipeline: the bootstrapped architecture, the
     * experiment and its exported samples. */
    std::unique_ptr<Architecture> arch;
    std::unique_ptr<ModelExperiment> ex;
    std::vector<Sample> samples;
    double paaeBuPct = 0.0;
    double paaeTdSpecPct = 0.0;
};

/** A workload: set-up, the timed operation and its output check. */
class Workload
{
  public:
    Workload(Kind k, uint64_t seed, std::string dir)
        : kind(k), seed(seed), dir(std::move(dir))
    {
    }

    /**
     * Construct the architecture and the machine, then run the
     * workload's first execution: on plain_warm the cold fill of a
     * fresh cache, elsewhere one untimed warm-up execution. Returns
     * host seconds. Cache directories are never deleted between
     * executions (the deletion's file-system work would land in the
     * next one); the caller removes the whole work directory at the
     * end.
     */
    double
    setUp()
    {
        auto t0 = Clock::now();
        st = makeSetup(kind);
        if (kind == Kind::PlainWarm) {
            warmDir = freshDir();
            CampaignSpec spec = campaignSpec(kind, seed);
            spec.cacheDir = warmDir;
            Campaign(*st.machine, spec).run(*st.arch);
        } else {
            run();
        }
        return secondsSince(t0);
    }

    /** The untimed reference export. */
    void
    makeReference()
    {
        if (kind == Kind::ModelPipeline) {
            OpRun r = runPipeline();
            reference = r.csv;
            refPaaeBu = r.paaeBuPct;
            refPaaeTdSpec = r.paaeTdSpecPct;
            return;
        }
        // A cache-free plain run of the same spec: the reference for
        // the cold and warm exports alike, and for the claim-based
        // serve path. It keeps the workload's two threads: a serial
        // reference would take about as long as two executions in
        // every run, time the timed loop needs more.
        CampaignSpec spec = campaignSpec(kind, seed);
        spec.serve = false;
        Architecture arch = *st.arch;
        reference = csvOf(Campaign(*st.machine, spec).run(arch).samples);
    }

    /** The timed operation. */
    OpRun
    run()
    {
        if (kind == Kind::ModelPipeline)
            return runPipeline();
        OpRun r;
        CampaignSpec spec = campaignSpec(kind, seed);
        spec.cacheDir = kind == Kind::PlainWarm ? warmDir : freshDir();
        std::string csv_path = dir + "/export.csv";
        auto t0 = Clock::now();
        {
            Campaign campaign(*st.machine, spec);
            r.res = campaign.run(*st.arch);
            exportSamples(csv_path, r.res.samples, SampleFormat::Csv);
        }
        r.wall = secondsSince(t0);
        r.jobs = r.res.samples.size();
        std::ifstream is(csv_path);
        std::stringstream ss;
        ss << is.rdbuf();
        r.csv = ss.str();
        return r;
    }

    /** Jobs of @p r whose exported row differs from the reference
     * (all of them when pinned results do not match). */
    size_t
    failedJobs(const OpRun &r) const
    {
        size_t bad = rowsDiffering(r.csv, reference);
        if (kind != Kind::ModelPipeline)
            return bad;
        bool paae_ok = r.paaeBuPct == refPaaeBu &&
                       r.paaeTdSpecPct == refPaaeTdSpec;
        for (const Pinned &p : kPinned)
            if (p.seed == seed &&
                (digestOf(r.csv) != p.digest ||
                 r.paaeBuPct != p.paaeBuPct ||
                 r.paaeTdSpecPct != p.paaeTdSpecPct))
                paae_ok = false;
        return paae_ok ? bad : r.jobs;
    }

    /** The replay inputs of @p r (which must outlive them). */
    ReplayInput
    replayInput(const OpRun &r, std::vector<Program> &proxies) const
    {
        ReplayInput in;
        in.kind = kind;
        in.seed = seed;
        in.workDir = dir;
        if (kind != Kind::ModelPipeline) {
            CampaignSpec spec = campaignSpec(kind, seed);
            in.suite = spec.suite;
            in.suite.categories = spec.categories;
            in.bootstrap.bodySize = spec.suite.bodySize;
            in.bootstrap.seed = spec.suite.seed ^ 0xb007ull;
            in.salt = spec.salt;
            for (size_t i = 0; i < r.res.jobs.size(); ++i) {
                const CampaignJob &job = r.res.jobs[i];
                in.jobs.push_back(
                    {&r.res.workloads[job.workload].program,
                     job.config, job.freqGhz, job.vdd, job.key,
                     &r.res.samples[i]});
            }
            return in;
        }
        PipelineOptions po = pipelineOptions(seed);
        in.suite = po.suite;
        in.specCount = po.specCount;
        in.specBodySize = po.bodySize;
        in.specSeed = po.seed;
        in.bootstrap = pipelineBootstrap(seed);
        in.salt = po.salt;
        in.experiment = r.ex.get();
        proxies = generateSpecProxies(*r.arch, po.bodySize, po.seed);
        proxies.resize(std::min(proxies.size(),
                                static_cast<size_t>(po.specCount)));
        std::map<std::string, const Program *> by_name;
        for (const auto &gb : r.ex->suite)
            by_name[gb.program.name] = &gb.program;
        for (const auto &p : proxies)
            by_name[p.name] = &p;
        if (by_name.size() != r.ex->suite.size() + proxies.size())
            fatal("perfbench: model_pipeline program names collide");
        const uint64_t fp = st.machine->fingerprint();
        for (const Sample &s : r.samples) {
            auto it = by_name.find(s.workload);
            if (it == by_name.end())
                fatal("perfbench: sample of unknown program '" +
                      s.workload + "'");
            in.jobs.push_back(
                {it->second, s.config, 0.0, 0.0,
                 campaignJobKey(*it->second, s.config, fp, po.salt),
                 &s});
        }
        return in;
    }

    const Setup &setup() const { return st; }

  private:
    Kind kind;
    uint64_t seed;
    std::string dir;
    Setup st;
    std::string warmDir;
    std::string reference;
    double refPaaeBu = 0.0;
    double refPaaeTdSpec = 0.0;
    int dirs = 0;

    std::string
    freshDir()
    {
        std::string d = cat(dir, "/cache-", dirs++);
        fs::remove_all(d);
        return d;
    }

    /** Bootstrap + serial pipeline on a fresh copy of the plain
     * architecture (bootstrap rewrites it). */
    OpRun
    runPipeline()
    {
        OpRun r;
        r.arch = std::make_unique<Architecture>(*st.arch);
        PipelineOptions po = pipelineOptions(seed);
        BootstrapOptions bo = pipelineBootstrap(seed);
        auto t0 = Clock::now();
        bootstrapArchitecture(*r.arch, *st.machine, bo);
        r.ex = std::make_unique<ModelExperiment>(
            runModelPipeline(*r.arch, *st.machine, po));
        r.wall = secondsSince(t0);
        r.samples = pipelineSamples(*r.ex);
        r.jobs = r.samples.size();
        r.csv = csvOf(r.samples);
        r.paaeBuPct = r.ex->paaeOf(r.ex->bu, r.ex->spec);
        r.paaeTdSpecPct = r.ex->paaeOf(r.ex->tdSpec, r.ex->spec);
        return r;
    }
};

/** Why this build may not report end-to-end numbers ("" = fine). */
std::string
buildRefusal()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitized build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return "sanitized build";
#endif
#endif
#ifndef NDEBUG
    return "assertions enabled (not an optimized build)";
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
        return cat("build type '", PERFBENCH_BUILD_TYPE,
                   "' is not Release");
    return "";
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Report
{
    bool correct = true;
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<Metric> metrics;
};

/** Host seconds of set-up: the median of @p reps set-ups. */
double
timeSetUp(Workload &w, int reps)
{
    std::vector<double> secs;
    for (int i = 0; i < reps; ++i)
        secs.push_back(w.setUp());
    return median(secs);
}

Report
runEndToEnd(const Options &o, Workload &w)
{
    Report rep;
    // Constructing the architecture and the machine alone takes
    // tens of microseconds, and which of two levels it reads at
    // depends on the process, so a set-up includes the first
    // execution, which also warms the process up for the timed ones.
    double setup_s = timeSetUp(w, 3);
    w.makeReference();

    std::vector<double> walls, rates;
    auto t0 = Clock::now();
    while (walls.size() < 3 || secondsSince(t0) < o.seconds) {
        OpRun r = w.run();
        rep.attempted += r.jobs;
        rep.failed += w.failedJobs(r);
        walls.push_back(r.wall);
        rates.push_back(static_cast<double>(r.jobs) / r.wall);
        if (o.kind == Kind::ModelPipeline && walls.size() == 1)
            std::cout << "perfbench: paae_bu_pct " << r.paaeBuPct
                      << " %, paae_td_spec_pct " << r.paaeTdSpecPct
                      << " %, digest " << std::hex
                      << digestOf(r.csv) << std::dec << "\n";
    }
    std::cout << "perfbench: " << walls.size() << " timed runs of "
              << rep.attempted / walls.size()
              << " jobs; wall_s quartiles " << quantile(walls, 0.25)
              << " " << median(walls) << " " << quantile(walls, 0.75)
              << "\n";
    rep.metrics = {
        {"jobs_per_s", median(rates), "1/s"},
        {"wall_s", median(walls), "s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    return rep;
}

Report
runTraced(const Options &o, Workload &w)
{
    Report rep;
    w.setUp();
    w.makeReference();

    // Alternate untraced and traced executions: the traced one runs
    // under the benchmark's span and the library's own recorder.
    std::vector<double> plain_walls, traced_walls;
    OpRun last;
    auto t0 = Clock::now();
    while (traced_walls.size() < 2 || secondsSince(t0) < o.seconds / 2) {
        OpRun u = w.run();
        rep.attempted += u.jobs;
        rep.failed += w.failedJobs(u);
        plain_walls.push_back(u.wall);

        spanLog().setEnabled(true);
        // The library's trace keeps only the last traced execution,
        // the one the replay below takes its inputs from.
        obs::traceReset();
        obs::traceEnable();
        {
            Span s(kindName(o.kind));
            last = w.run();
            s.note("jobs", static_cast<double>(last.jobs));
        }
        obs::traceDisable();
        rep.attempted += last.jobs;
        rep.failed += w.failedJobs(last);
        traced_walls.push_back(last.wall);
    }
    double untraced = median(plain_walls);
    double overhead = (median(traced_walls) - untraced) / untraced;

    std::vector<Program> proxies;
    ReplayInput in = w.replayInput(last, proxies);
    ReplayOutcome ro = replayLayers(w.setup(), in);
    spanLog().setEnabled(false);
    rep.attempted += in.jobs.size();
    rep.failed += ro.fidelityFailures;
    std::cout << "perfbench: replay fidelity: " << ro.fidelityFailures
              << " of " << in.jobs.size() << " jobs differ\n";

    // Job-level figures: the engine's own per-job record on the
    // campaign workloads; the replay's on model_pipeline, whose
    // Campaign::measure calls expose no per-job seconds.
    std::vector<double> job_s = ro.jobSeconds;
    double busy = 0.0, hit_ratio = 0.0, claims = 0.0;
    if (o.kind == Kind::ModelPipeline) {
        double sum = 0.0;
        for (double s : job_s)
            sum += s;
        busy = sum / ro.jobsWallSeconds;
    } else {
        const CampaignResult &res = last.res;
        job_s = res.jobSeconds;
        double sum = 0.0;
        for (double s : job_s)
            sum += s;
        busy = sum / (kindThreads(o.kind) * res.measureSeconds);
        size_t looked = res.cacheHits + res.cacheMisses;
        hit_ratio = looked ? static_cast<double>(res.cacheHits) /
                                 static_cast<double>(looked)
                           : 0.0;
        claims = static_cast<double>(res.claimsAcquired);
    }
    rep.metrics = ro.metrics;
    rep.metrics.push_back({"campaign.cache_hit_ratio", hit_ratio,
                           "ratio"});
    rep.metrics.push_back({"campaign.claims_acquired", claims,
                           "count"});
    rep.metrics.push_back({"campaign.pool_busy_frac", busy, "frac"});
    rep.metrics.push_back(
        {"campaign.job_ms_p50", quantile(job_s, 0.50) * 1e3, "ms"});
    rep.metrics.push_back(
        {"campaign.job_ms_p99", quantile(job_s, 0.99) * 1e3, "ms"});
    rep.metrics.push_back({"campaign.job_count",
                           static_cast<double>(job_s.size()),
                           "count"});
    rep.metrics.push_back({"obs.trace_overhead_frac", overhead,
                           "frac"});
    return rep;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        try {
            if (k == "--workload") {
                if (!parseKind(v, o.kind))
                    return false;
            } else if (k == "--seed") {
                if (v.empty() || v[0] == '-')
                    return false;
                o.seed = std::stoull(v);
            } else if (k == "--seconds") {
                o.seconds = std::stod(v);
            } else if (k == "--trace") {
                if (v != "0" && v != "1")
                    return false;
                o.trace = v == "1";
            } else if (k == "--out") {
                o.out = v;
            } else if (k == "--commit") {
                o.commit = v;
            } else {
                return false;
            }
        } catch (const std::exception &) {
            return false;
        }
    }
    return argc % 2 == 1 && o.seconds > 0.0;
}

void
printReport(const Report &rep)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (rep.correct ? "true" : "false")
       << ", \"attempted\": " << rep.attempted
       << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << m.value << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options o;
    if (!parseArgs(argc, argv, o)) {
        std::cerr << "usage: mprobe_perf --workload plain_cold|"
                     "plain_warm|serve_sweep_cold|model_pipeline "
                     "--seed <n> --seconds <s> --trace <0|1> "
                     "[--out <dir>] [--commit <id>]\n";
        return 2;
    }
    mprobe::setLogLevel(mprobe::LogLevel::Quiet);
    std::cout.precision(17);

    std::string refusal = buildRefusal();
    std::cout << "perfbench: workload " << kindName(o.kind) << ", seed "
              << o.seed << ", " << o.seconds << " s, trace "
              << o.trace << "; nproc "
              << std::thread::hardware_concurrency() << ", compiler "
#if defined(__clang__)
              << "clang "
#else
              << "gcc "
#endif
              << __VERSION__ << ", build " << PERFBENCH_BUILD_TYPE
              << ", commit " << o.commit << "\n";
    if (!o.trace && !refusal.empty()) {
        std::cerr << "perfbench: refusing to report end-to-end "
                     "numbers: "
                  << refusal << "\n";
        return 3;
    }

    std::string dir = mprobe::cat(o.out, "/", kindName(o.kind), "-",
                                  o.seed, o.trace ? "-trace" : "");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Report rep;
    {
        Workload w(o.kind, o.seed, dir);
        rep = o.trace ? runTraced(o, w) : runEndToEnd(o, w);
    }
    std::filesystem::remove_all(dir);

    if (!o.trace && mprobe::obs::traceEverEnabled()) {
        std::cerr << "perfbench: refusing to report end-to-end "
                     "numbers: tracing was enabled in this process\n";
        return 3;
    }
    if (o.trace) {
        std::string base = mprobe::cat(o.out, "/traces/",
                                       kindName(o.kind), "-seed",
                                       o.seed);
        std::filesystem::create_directories(o.out + "/traces");
        if (!spanLog().writeJson(base + ".json") ||
            !mprobe::obs::traceFlush(base + ".program.json"))
            rep.correct = false;
        std::cout << "perfbench: wrote " << base << ".json ("
                  << spanLog().size() << " spans) and " << base
                  << ".program.json\n";
    }
    rep.correct = rep.correct && rep.failed == 0;
    std::cout << "perfbench: failed_frac "
              << static_cast<double>(rep.failed) /
                     static_cast<double>(rep.attempted)
              << " (" << rep.failed << " of " << rep.attempted
              << " jobs)\n";
    printReport(rep);
    return 0;
}
