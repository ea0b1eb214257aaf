/**
 * @file
 * Shared declarations of the repo benchmark program, mprobe_perf.
 *
 * mprobe_perf runs one named workload per process. With tracing off
 * it times the whole operation a user waits for and reports the
 * end-to-end metrics; with tracing on it times the same operation
 * traced and untraced, then replays the workload's own inputs
 * through the public functions of each library module and reports
 * per-layer metrics. All spans are recorded here, from outside the
 * library, and written as trace-event JSON when the process ends.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hh"
#include "microprobe/arch.hh"
#include "microprobe/bootstrap.hh"
#include "power/sample.hh"
#include "workloads/pipeline.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** The @p q quantile (0..1) of @p v, nearest rank. */
double quantile(std::vector<double> v, double q);

/** One completed benchmark span. */
struct SpanEvent
{
    std::string name;
    double startUs = 0.0;
    double durUs = 0.0;
    /** Index of the enclosing span, or -1 for a root span. */
    int parent = -1;
    std::vector<std::pair<std::string, double>> args;
};

/**
 * In-memory recorder of the benchmark's own spans. Only the
 * program's main thread records (spans wrap calls into the library,
 * never code on its worker threads), so no locking is needed.
 */
class SpanLog
{
  public:
    /** Record spans only while enabled; timing works either way. */
    void setEnabled(bool on) { enabled = on; }

    /** Write every recorded span as Chrome trace-event JSON. */
    bool writeJson(const std::string &path) const;

    size_t size() const { return events.size(); }

  private:
    friend class Span;
    bool enabled = false;
    Clock::time_point origin = Clock::now();
    std::vector<SpanEvent> events;
    std::vector<int> open;
};

/** The process-wide span log. */
SpanLog &spanLog();

/**
 * A timed region, ended by stop() or destruction; stop() returns its
 * host seconds. The span is recorded in spanLog() when the log is
 * enabled.
 */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach a numeric argument to the recorded event. */
    void note(const char *key, double value);

    /** End the span now and return its host seconds. */
    double stop();

  private:
    int index = -1;
    Clock::time_point t0;
    double secs = -1.0;
};

/** A reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The named workloads. */
enum class Kind
{
    PlainCold,
    PlainWarm,
    ServeSweepCold,
    ModelPipeline,
};

/** Parse a workload name; false when unknown. */
bool parseKind(const std::string &name, Kind &out);

const char *kindName(Kind k);

/** Worker threads of the closed loop each workload runs. */
int kindThreads(Kind k);

/** Architecture and machine, built by set-up. */
struct Setup
{
    std::unique_ptr<mprobe::Architecture> arch;
    std::unique_ptr<mprobe::Machine> machine;
};

/** Construct the architecture and the machine of workload @p k. */
Setup makeSetup(Kind k);

/** Workload seed -> the generated specs. */
uint64_t seedMix(uint64_t seed);

/**
 * Campaign spec of a campaign workload at @p seed (memory + random
 * suite, bootstrap off, progress lines off). The cache directory is
 * left empty; the caller points it at a fresh directory.
 */
mprobe::CampaignSpec campaignSpec(Kind k, uint64_t seed);

/** Pipeline options of model_pipeline at @p seed. */
mprobe::PipelineOptions pipelineOptions(uint64_t seed);

/** Bootstrap options of model_pipeline at @p seed. */
mprobe::BootstrapOptions pipelineBootstrap(uint64_t seed);

/** The samples a model_pipeline run exports, in a fixed order:
 * micro-benchmarks, random set, SPEC proxies. */
std::vector<mprobe::Sample>
pipelineSamples(const mprobe::ModelExperiment &ex);

/** CSV text of @p samples (the export format). */
std::string csvOf(const std::vector<mprobe::Sample> &samples);

/**
 * Rows of @p got that differ from @p ref, by position; a missing or
 * extra row counts once each and a header mismatch fails every row.
 */
size_t rowsDiffering(const std::string &got, const std::string &ref);

/** What the layer replay needs about one executed job. */
struct ReplayJob
{
    const mprobe::Program *program = nullptr;
    mprobe::ChipConfig config;
    double freqGhz = 0.0;
    double vdd = 0.0;
    uint64_t key = 0;
    /** The exported sample the replay must reproduce. */
    const mprobe::Sample *sample = nullptr;
};

/** Inputs of the per-layer replay of one workload. */
struct ReplayInput
{
    Kind kind = Kind::PlainCold;
    uint64_t seed = 0;
    std::string workDir;
    /** The workload's executed jobs, in export order. */
    std::vector<ReplayJob> jobs;
    /** Suite options the workload generates with. */
    mprobe::SuiteOptions suite;
    /** SPEC proxies the workload generates (model_pipeline). */
    int specCount = 0;
    size_t specBodySize = 0;
    uint64_t specSeed = 0;
    /** Bootstrap the workload runs, or would run if it had one. */
    mprobe::BootstrapOptions bootstrap;
    /** Campaign salt the job keys were built with. */
    uint64_t salt = 0;
    /** Training sets of the workload's power models. */
    const mprobe::ModelExperiment *experiment = nullptr;
};

/** Result of the replay: per-layer metrics plus the self-test. */
struct ReplayOutcome
{
    std::vector<Metric> metrics;
    /** Jobs whose replayed coreIpc/instrGips differ from the
     * exported sample. */
    size_t fidelityFailures = 0;
    /** Per-job host seconds of the replay, in job order. */
    std::vector<double> jobSeconds;
    double jobsWallSeconds = 0.0;
};

/** Replay every layer on @p in's inputs. */
ReplayOutcome replayLayers(const Setup &setup, const ReplayInput &in);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
