/**
 * @file
 * Workload definitions, seed mapping, output comparison and the
 * benchmark's own span recorder.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "campaign/export.hh"
#include "perfbench.hh"
#include "util/hash.hh"
#include "workloads/suite.hh"

namespace perfbench
{

using namespace mprobe;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = std::ceil(q * static_cast<double>(v.size()));
    size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

SpanLog &
spanLog()
{
    static SpanLog log;
    return log;
}

Span::Span(const char *name) : t0(Clock::now())
{
    SpanLog &log = spanLog();
    if (!log.enabled)
        return;
    SpanEvent e;
    e.name = name;
    e.startUs = std::chrono::duration<double, std::micro>(
                    t0 - log.origin)
                    .count();
    e.parent = log.open.empty() ? -1 : log.open.back();
    index = static_cast<int>(log.events.size());
    log.events.push_back(std::move(e));
    log.open.push_back(index);
}

Span::~Span() { stop(); }

void
Span::note(const char *key, double value)
{
    if (index >= 0)
        spanLog().events[static_cast<size_t>(index)].args.emplace_back(
            key, value);
}

double
Span::stop()
{
    if (secs >= 0.0)
        return secs;
    secs = secondsSince(t0);
    if (index >= 0) {
        SpanLog &log = spanLog();
        log.events[static_cast<size_t>(index)].durUs = secs * 1e6;
        log.open.pop_back();
    }
    return secs;
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os.precision(15);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (size_t i = 0; i < events.size(); ++i) {
        const SpanEvent &e = events[i];
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << e.name
           << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
           << "\"tid\": 1, \"ts\": " << e.startUs
           << ", \"dur\": " << e.durUs << ", \"args\": {\"span\": "
           << i << ", \"parent\": " << e.parent;
        for (const auto &[k, v] : e.args)
            os << ", \"" << k << "\": " << v;
        os << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

bool
parseKind(const std::string &name, Kind &out)
{
    for (Kind k : {Kind::PlainCold, Kind::PlainWarm,
                   Kind::ServeSweepCold, Kind::ModelPipeline})
        if (name == kindName(k)) {
            out = k;
            return true;
        }
    return false;
}

const char *
kindName(Kind k)
{
    switch (k) {
    case Kind::PlainCold:
        return "plain_cold";
    case Kind::PlainWarm:
        return "plain_warm";
    case Kind::ServeSweepCold:
        return "serve_sweep_cold";
    case Kind::ModelPipeline:
        return "model_pipeline";
    }
    return "?";
}

int
kindThreads(Kind k)
{
    // model_pipeline is the paper's serial query; the campaign
    // workloads run the two-thread closed loop.
    return k == Kind::ModelPipeline ? 1 : 2;
}

Setup
makeSetup(Kind k)
{
    Setup s;
    s.arch = std::make_unique<Architecture>(Architecture::get("POWER7"));
    // The campaign workloads build the machine as mprobe_campaign
    // does; model_pipeline as the figure benches and the integration
    // test do (default cache geometry).
    if (k == Kind::ModelPipeline)
        s.machine = std::make_unique<Machine>(s.arch->isa());
    else
        s.machine = std::make_unique<Machine>(
            s.arch->isa(), s.arch->uarch().cacheGeometries(),
            s.arch->uarch().clockGhz());
    return s;
}

uint64_t
seedMix(uint64_t seed)
{
    // Seed 0 keeps the library's default generation seeds and salt.
    return seed == 0 ? 0 : hashCombine(seed, 0x9e3779b97f4a7c15ull);
}

CampaignSpec
campaignSpec(Kind k, uint64_t seed)
{
    CampaignSpec spec;
    spec.categories = {BenchCategory::MemoryGroup,
                       BenchCategory::Random};
    // The seed changes the random programs' cost, so more of them
    // average it out: plain_* use 32, serve_sweep_cold (32 sweep
    // points per program) 16. plain_* also use 2048-instruction
    // bodies, so the host's noisy file-system time stays a small
    // share of a cold execution; serve_sweep_cold keeps 1024 so that
    // one execution stays a few seconds long.
    bool plain = k != Kind::ServeSweepCold;
    spec.suite.randomCount = plain ? 32 : 16;
    spec.suite.perMemoryGroup = 1;
    spec.suite.memoryCount = 2;
    spec.suite.bodySize = plain ? 2048 : 1024;
    spec.suite.seed ^= seedMix(seed);
    spec.suite.threads = kindThreads(k);
    spec.bootstrap = false;
    spec.salt = seed;
    spec.threads = kindThreads(k);
    spec.progressSeconds = 0.0;
    if (k == Kind::ServeSweepCold) {
        spec.configs = {{1, 1}, {2, 2}, {4, 2}, {8, 4}};
        spec.freqs = {2.0, 2.5, 3.0, 3.5};
        spec.vdds = {0.85, 0.95};
        spec.serve = true;
        spec.workerId = "perfbench";
    }
    return spec;
}

PipelineOptions
pipelineOptions(uint64_t seed)
{
    // Sized like the integration test's reduced Section-4 corpus.
    PipelineOptions po;
    po.suite.bodySize = 1024;
    po.suite.perMemoryGroup = 2;
    po.suite.memoryCount = 4;
    po.suite.randomCount = 40;
    po.suite.ipcSearchBudget = 3;
    po.suite.gaPopulation = 4;
    po.suite.gaGenerations = 1;
    po.suite.threads = 1;
    po.suite.seed ^= seedMix(seed);
    po.configs = {{1, 1}, {1, 2}, {1, 4}, {2, 1}, {4, 2},
                  {4, 4}, {6, 2}, {8, 1}, {8, 4}};
    po.randomCrossConfig = 24;
    po.specCount = 10;
    po.bodySize = 1024;
    po.seed ^= seedMix(seed);
    po.salt = seed;
    po.threads = 1;
    return po;
}

BootstrapOptions
pipelineBootstrap(uint64_t seed)
{
    BootstrapOptions bo;
    bo.bodySize = 512;
    bo.seed ^= seedMix(seed);
    return bo;
}

std::vector<Sample>
pipelineSamples(const ModelExperiment &ex)
{
    // Each measured job appears exactly once across these three:
    // random benchmarks measured only at 1-1 sit in randomAllConfigs
    // once, cross-configuration ones once per configuration.
    std::vector<Sample> out = ex.microAllConfigs;
    out.insert(out.end(), ex.randomAllConfigs.begin(),
               ex.randomAllConfigs.end());
    out.insert(out.end(), ex.spec.begin(), ex.spec.end());
    return out;
}

std::string
csvOf(const std::vector<Sample> &samples)
{
    std::ostringstream os;
    exportSamplesCsv(os, samples);
    return os.str();
}

namespace
{

std::vector<std::string>
linesOf(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        out.push_back(line);
    return out;
}

} // namespace

size_t
rowsDiffering(const std::string &got, const std::string &ref)
{
    std::vector<std::string> g = linesOf(got), r = linesOf(ref);
    if (g.empty() || r.empty() || g[0] != r[0])
        return std::max(g.size(), r.size());
    size_t bad = 0;
    for (size_t i = 1; i < std::max(g.size(), r.size()); ++i)
        if (i >= g.size() || i >= r.size() || g[i] != r[i])
            ++bad;
    return bad;
}

} // namespace perfbench
