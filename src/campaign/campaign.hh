/**
 * @file
 * Parallel experiment-campaign engine.
 *
 * The paper's methodology is a campaign: generate a micro-benchmark
 * corpus, deploy every benchmark on every CMP/SMT configuration,
 * collect (activity rates, power) samples, feed them to the models.
 * This module runs that campaign as a unit of its own: a
 * CampaignSpec expands into independent (workload, configuration)
 * jobs which execute on a work-queue thread pool, with every
 * completed measurement stored in a content-hash-keyed on-disk
 * cache so re-runs and resumed campaigns skip already-measured
 * points.
 *
 * Determinism: each job derives its measurement salt from its own
 * content hash, never from execution order, so a campaign produces
 * bit-identical samples at any worker count — and a cached sample
 * is exactly what re-simulation would yield.
 */

#ifndef CAMPAIGN_CAMPAIGN_HH
#define CAMPAIGN_CAMPAIGN_HH

#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/claims.hh"
#include "campaign/cost.hh"
#include "campaign/spec.hh"
#include "microprobe/arch.hh"
#include "power/sample.hh"

namespace mprobe
{

/** One expanded measurement point. */
struct CampaignJob
{
    /** Index into the campaign's workload list. */
    size_t workload = 0;
    ChipConfig config;
    /** Content hash: program + config + operating point + machine
     * + salt. */
    uint64_t key = 0;
    /** Estimated relative cost (JobCostModel), for longest-first
     * draining and the ETA. Execution detail: never part of the key
     * or the manifest. */
    double cost = 0.0;
    /**
     * Swept core frequency in GHz; 0 selects the machine's nominal
     * operating point *and* the legacy (frequency-free) job key, so
     * campaigns without a `freqs` axis — and sweep points that
     * coincide with the nominal clock — replay pre-DVFS cache
     * entries.
     */
    double freqGhz = 0.0;
    /**
     * Swept supply voltage in volts; 0 selects the on-curve voltage
     * at the job's frequency *and* the vdd-free job key, so
     * campaigns without a `vdds` axis — and sweep voltages that
     * coincide with the V/f curve — replay pre-undervolting cache
     * entries.
     */
    double vdd = 0.0;
};

/** A generated workload with its provenance. */
struct CampaignWorkload
{
    Program program;
    /** Source label: a Table-2 category name, "SPEC", "DAXPY" or
     * "Extreme". */
    std::string source;
    /** Sub-group within the source (e.g. "L1L2a"), if any. */
    std::string group;
};

/** Everything a campaign run produces. */
struct CampaignResult
{
    /** One sample per job, in job order (workload-major). */
    std::vector<Sample> samples;
    /** The generated corpus the samples cover. */
    std::vector<CampaignWorkload> workloads;
    /** The campaign's jobs (parallel to samples). */
    std::vector<CampaignJob> jobs;
    /** Cache statistics of this run. */
    size_t cacheHits = 0;
    size_t cacheMisses = 0;
    /** Cache entries that existed but failed to parse (each also a
     * miss) — the post-hoc fleet-incident signal --metrics-json
     * reports. */
    size_t cacheCorrupt = 0;
    /** Claim-pool statistics of this run (zero outside --serve). */
    size_t claimsAcquired = 0;
    size_t claimsStolen = 0;
    /** Measured wall seconds per executed job (parallel to jobs;
     * near-zero for cache hits) and whether each was a hit — the
     * raw material `mprobe_campaign --calibrate` refits the
     * JobCostModel from. */
    std::vector<double> jobSeconds;
    std::vector<char> jobCached;
    /** @name Phase wall times (perf trajectory tracking) */
    /**@{*/
    double generationSeconds = 0.0;
    /** Everything after generation: expand plus measurement. */
    double measureSeconds = 0.0;
    /** The expand stage alone (keying, cost estimates, manifest),
     * the first part of measureSeconds. */
    double expandSeconds = 0.0;
    /**@}*/
};

/**
 * Content hash of one measurement point. Covers every Program field
 * the simulator reads plus the configuration, the machine
 * fingerprint and the campaign salt. @p freq_ghz joins the hash
 * only when positive (a swept non-nominal operating point): the
 * nominal point keeps the exact pre-DVFS key, so existing cache
 * directories upgrade miss-free. @p vdd_volts likewise joins only
 * when positive (an off-curve voltage), under a domain-separation
 * tag so a vdd-only sweep can never collide with a freq-only one.
 *
 * The key is a job prefix (schema, machine, salt, config,
 * operating point) followed by the program's byte image; this is
 * the one-job case of the keying the campaign runs per workload,
 * which feeds one image to all of a program's job prefixes at once
 * (docs/MODEL.md, "Cache keys").
 */
uint64_t campaignJobKey(const Program &prog, const ChipConfig &cfg,
                        uint64_t machine_fingerprint,
                        uint64_t salt, double freq_ghz = 0.0,
                        double vdd_volts = 0.0);

/**
 * Fingerprint of everything in (@p spec, machine) that determines a
 * campaign's job keys: workload sources and generation knobs,
 * configurations, salt and the machine fingerprint — but not
 * execution detail (threads, cache directory). The manifest stores
 * it so --resume can tell "same campaign, different worker count"
 * from "stale manifest of a different campaign".
 */
uint64_t campaignFingerprint(const CampaignSpec &spec,
                             uint64_t machine_fingerprint);

/**
 * Jobs that share a workload and an SMT mode: the unit one worker
 * runs back to back, so its executor's Batch memo serves the
 * group's core counts and operating points (the core simulation
 * depends only on the SMT mode and the effective memory latency;
 * core count enters through counter scaling and the contention
 * latency). Groups never span SMT modes because the memo cannot
 * share across them.
 */
struct JobGroup
{
    /** Index of the group's first job in job order. */
    size_t first = 0;
    /** Member job indices, costliest first (ties in job order). */
    std::vector<size_t> jobs;
    /** Summed estimated cost of the members. */
    double cost = 0.0;
};

/**
 * Group @p jobs by (workload, SMT mode), costliest group first
 * (ties in order of first appearance). Plain runs pull whole
 * groups in this order; claimPool() hands the same grouping to the
 * claim queue.
 */
std::vector<JobGroup> jobGroups(const std::vector<CampaignJob> &jobs);

/**
 * The claim-pool entries of @p jobs, in job order: job i becomes
 * pool index @p base + i, and its group id is the pool index of
 * its group's first job. A service that pools several campaigns
 * gives each a disjoint index range, so group ids never merge jobs
 * of different campaigns.
 */
std::vector<PoolJob> claimPool(const std::vector<CampaignJob> &jobs,
                               size_t base = 0);

/** A campaign expanded but not yet measured: what the service's
 * ingest step produces and its shared pool consumes. */
struct CampaignExpansion
{
    std::vector<CampaignWorkload> workloads;
    std::vector<CampaignJob> jobs;
};

/**
 * The one way a campaign job executes — plain runs, --serve workers
 * and the service alike: look it up in the result cache, otherwise
 * measure it at its operating point with a salt derived from its
 * key, and store the sample. Measures through one long-lived Batch,
 * re-pointed only when a miss needs another (machine, program), so
 * consecutive jobs of one workload share decode and memo. Not
 * thread-safe: one executor per worker thread.
 */
class JobExecutor
{
  public:
    explicit JobExecutor(ResultCache &c) : cache(c) {}

    struct Outcome
    {
        Sample sample;
        bool cached = false; ///< the sample came from the cache
        double seconds = 0.0;
    };

    /** Execute @p job (a workload of @p prog on @p machine),
     * recording the campaign.job span and the cache counters. */
    Outcome run(const Machine &machine, const Program &prog,
                const CampaignJob &job);

    /** Collect @p job after its pool drained: the matching cached
     * sample, else a fresh measurement. No statistics, no span. */
    Outcome collect(const Machine &machine, const Program &prog,
                    const CampaignJob &job);

  private:
    ResultCache &cache;
    Machine::Batch batch;

    /** What a sample of @p job must say it is: workload, config and
     * the operating point it measures at, measurements zeroed. */
    static Sample identity(const Machine &machine,
                           const Program &prog,
                           const CampaignJob &job);

    /** Measure @p job at @p id's operating point; store it. */
    Sample measure(const Machine &machine, const Program &prog,
                   const CampaignJob &job, const Sample &id);
};

/** The engine: expansion, scheduling, caching, collection. */
class Campaign
{
  public:
    /**
     * Bind the engine to a machine and a spec. The machine must
     * outlive the campaign; its simOptions() must not be mutated
     * while run()/measure() execute (worker threads read them).
     */
    Campaign(const Machine &machine, CampaignSpec spec);

    /**
     * Run the full campaign: generate the spec's workloads (suite
     * generation bootstraps @p arch first when the spec says so),
     * expand jobs, measure them on the pool, export-ready samples
     * out. Generation is serial and deterministic; only the
     * embarrassingly parallel measurement phase fans out.
     *
     * The full job list is persisted to the manifest before any
     * measurement. Under a serve spec this process drains the
     * campaign's claim pool with its peers and still returns every
     * job's sample; `mprobe_campaign --merge` assembles the same
     * export from the manifest and the cache.
     */
    CampaignResult run(Architecture &arch);

    /**
     * Generation + expansion only: produce the campaign's
     * workloads and full job list and persist the manifest, without
     * measuring anything. The drop-directory service ingests new
     * campaigns through this entry and feeds the jobs into its
     * shared claim pool; run() is exactly expand() + the
     * measurement phase.
     */
    CampaignExpansion expand(Architecture &arch);

    /**
     * Lower-level entry: measure an explicit workload list across
     * @p configs with the engine's pool and cache, in deterministic
     * (workload-major) order. Figure/table benches and the model
     * pipeline route all of their measurement through here.
     */
    std::vector<Sample>
    measure(const std::vector<Program> &programs,
            const std::vector<ChipConfig> &configs);

    /**
     * Like measure() but with one config list per program
     * (configs_per[i] deploys programs[i]): the shape of the model
     * pipeline's corpus, where micro-benchmarks and random/SPEC
     * workloads are measured on different configuration subsets.
     * Samples come back program-major, each program's configs in
     * the order listed.
     *
     * Both overloads persist (merge-accumulate) their expanded job
     * list into the cache directory's manifest, so --resume and
     * --merge cover bench/pipeline measurements too.
     */
    std::vector<Sample>
    measure(const std::vector<Program> &programs,
            const std::vector<std::vector<ChipConfig>> &configs_per);

    /** Cache statistics accumulated across run()/measure() calls. */
    size_t cacheHits() const { return cache.hits(); }
    size_t cacheMisses() const { return cache.misses(); }
    size_t cacheCorrupt() const { return cache.corrupt(); }

    const CampaignSpec &specRef() const { return spec; }

  private:
    const Machine &machine;
    CampaignSpec spec;
    ResultCache cache;
    uint64_t machineFp;
    /** Relative-cost estimator behind longest-first ordering and
     * the ETA. */
    JobCostModel costModel;

    /** Expand spec workloads (generation phase). */
    std::vector<CampaignWorkload> expandWorkloads(Architecture &arch);

    /** Build one job per (workload, config, operating point),
     * workload-major; each workload's jobs are keyed as one task
     * on spec.threads workers. */
    std::vector<CampaignJob>
    expandJobs(const std::vector<CampaignWorkload> &workloads,
               const std::vector<std::vector<ChipConfig>> &configs_per)
        const;

    /** What one runJobs call produced (samples plus the per-job
     * timing/caching record --calibrate consumes). */
    struct JobRunOutcome
    {
        std::vector<Sample> samples;
        std::vector<double> seconds;
        std::vector<char> cached;
        /** Claim-pool statistics (runClaimed only). */
        size_t claimsAcquired = 0;
        size_t claimsStolen = 0;
    };

    /** Execute pre-expanded jobs on the pool; the parallel phase. */
    JobRunOutcome
    runJobs(const std::vector<CampaignWorkload> &workloads,
            const std::vector<CampaignJob> &jobs);

    /**
     * Claim-based execution (--serve): this worker's threads pull
     * jobs from the full campaign pool through per-job claim files
     * in the shared cache directory, stealing from dead peers once
     * their claims pass the TTL. Returns only when every job of
     * the campaign is in the cache — the outcome covers all @p
     * jobs (peer-measured ones loaded from the cache), so a serve
     * worker's export is byte-identical to a plain run's.
     */
    JobRunOutcome
    runClaimed(const std::vector<CampaignWorkload> &workloads,
               const std::vector<CampaignJob> &jobs);

    /** Persist the job manifest next to the cache (resume). */
    void
    writeManifest(const std::vector<CampaignWorkload> &workloads,
                  const std::vector<CampaignJob> &jobs) const;
};

/**
 * A measurement-only spec (no suite generation, no bootstrap) with
 * the given execution knobs — what figure benches and the model
 * pipeline construct internally before calling Campaign::measure.
 */
CampaignSpec measurementSpec(int threads = 0,
                             std::string cache_dir = "",
                             uint64_t salt = 0);

} // namespace mprobe

#endif // CAMPAIGN_CAMPAIGN_HH
