/**
 * @file
 * Long-lived campaign service: async spec ingestion over a shared
 * claim pool.
 *
 * The fleet shape the north star names — N clients submitting
 * characterization sweeps against one warm worker fleet — needs
 * more than one-shot `mprobe_campaign` invocations: campaigns must
 * be *submitted* while others run, and their jobs must share one
 * worker pool and one result cache. This subsystem provides that as
 * a drop-directory service:
 *
 *   - clients submit a campaign by dropping a `<name>.spec` file
 *     (the campaign/spec.hh format) into the watched drop
 *     directory;
 *   - the service ingests each new spec while its workers run:
 *     generates the workloads, expands the job list, persists a
 *     per-campaign manifest under `<results>/<name>/`, and feeds
 *     the jobs into one shared claim pool (campaign/claims.hh),
 *     cost-ordered across *all* active campaigns via the
 *     JobCostModel estimates the jobs carry, in per-campaign
 *     (workload, SMT) groups that a worker thread drains back to
 *     back (claimPool in campaign/campaign.hh);
 *   - worker threads drain the pool through per-job claim files in
 *     the shared cache directory, so any number of service
 *     processes (and plain `mprobe_campaign --serve` workers on
 *     the same spec) cooperate, steal from dead peers, and never
 *     duplicate results;
 *   - results stream incrementally: every status period each
 *     active campaign gets a fresh `status.json` plus partial
 *     CSV/JSON exports of the samples measured so far, and on
 *     completion the final `samples.csv`/`samples.json` — byte
 *     identical to the export of a standalone run of the same
 *     spec, because exports are manifest-ordered cached samples
 *     either way.
 */

#ifndef SERVICE_SERVICE_HH
#define SERVICE_SERVICE_HH

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/claims.hh"
#include "obs/telemetry.hh"
#include "util/thread_annotations.hh"

namespace mprobe
{

/** Service configuration (the mprobe_service CLI mirrors this). */
struct ServiceOptions
{
    /** Directory watched for dropped `<name>.spec` files. */
    std::string dropDir;
    /** Shared sample cache + claim directory (the fleet's pool). */
    std::string cacheDir;
    /** Per-campaign output root: `<resultsDir>/<name>/` holds the
     * manifest, status.json and the sample exports. */
    std::string resultsDir;
    /** Worker threads draining the pool (0 = one per hardware
     * thread). */
    int threads = 0;
    /** Seconds between drop-directory scans, and a worker's sleep
     * when it finds nothing to claim. */
    double pollSeconds = 1.0;
    /** Seconds between status.json/partial-export refreshes. */
    double statusSeconds = 5.0;
    /** Stale-claim TTL (campaign/claims.hh semantics). */
    double claimTtlSeconds = kDefaultClaimTtlSeconds;
    /** Claim-file worker identity; empty = "host:pid". */
    std::string workerId;
    /** Architecture the campaigns run on. */
    std::string archName = "POWER7";
    /**
     * Exit once every ingested campaign is complete and a
     * drop-directory scan finds nothing new (CI/tests). False runs
     * until requestStop().
     */
    bool exitWhenIdle = false;
};

/** One ingested campaign's public progress snapshot. */
struct ServiceCampaignStatus
{
    std::string name;
    size_t totalJobs = 0;
    size_t doneJobs = 0;
    /** Undone jobs currently claimed (by any worker process). */
    size_t claimedJobs = 0;
    bool complete = false;
};

/** The drop-directory campaign service. */
class CampaignService
{
  public:
    explicit CampaignService(ServiceOptions opts);
    ~CampaignService();

    /**
     * Run the service: spawn the worker pool, then loop scanning
     * the drop directory, ingesting new specs and streaming
     * per-campaign status/partial results, until idle
     * (opts.exitWhenIdle) or requestStop(). Returns the number of
     * campaigns that reached completion.
     */
    size_t run();

    /** Ask a running run() to wind down (thread-safe; returns
     * immediately). */
    void requestStop() { stopRequested.store(true); }

    /** Snapshot of every ingested campaign's progress. */
    std::vector<ServiceCampaignStatus> statuses() const;

  private:
    /** One ingested campaign: its own architecture/machine (the
     * bootstrap mutates the arch) plus expansion and progress. */
    struct ActiveCampaign
    {
        std::string name;
        CampaignSpec spec;
        Architecture arch;
        Machine machine;
        std::vector<CampaignWorkload> workloads;
        std::vector<CampaignJob> jobs;
        /** Per-job completion (run locally or observed cached). */
        std::vector<char> done;
        size_t doneCount = 0;
        bool complete = false;
        /** Done count at the last partial export (skip rewriting
         * identical partials). */
        size_t exportedDone = static_cast<size_t>(-1);

        ActiveCampaign(std::string name_, CampaignSpec spec_,
                       Architecture arch_);
    };

    /** Pool-index -> (campaign, job) mapping for worker pulls. */
    struct PoolRef
    {
        ActiveCampaign *campaign = nullptr;
        size_t job = 0;
    };

    ServiceOptions opts;
    ResultCache cache;
    ClaimDir claims;
    ClaimedQueue queue;
    /** Guards campaigns and pool: the watcher thread appends
     * while workers resolve pool indices and the status writer
     * reads progress. ActiveCampaign fields count as guarded too —
     * every access path goes through these containers. */
    mutable Mutex mutex;
    std::vector<std::unique_ptr<ActiveCampaign>> campaigns
        GUARDED_BY(mutex);
    std::vector<PoolRef> pool GUARDED_BY(mutex);
    /** Touched only by the run() watcher thread (ingestScan);
     * needs no lock. */
    std::set<std::string> ingestedFiles;
    std::atomic<bool> stopRequested{false};
    std::vector<std::thread> workers;
    /** Jobs this process measured (worker-telemetry throughput). */
    std::atomic<uint64_t> jobsRun{0};

    /** Scan the drop directory; ingest every new spec. Returns the
     * number of campaigns ingested this scan. */
    size_t ingestScan();
    /** Ingest one dropped spec file; false (with a warning) when
     * it cannot be parsed or expanded. */
    bool ingestSpec(const std::string &path);
    /** Refresh done counts from the cache, write status.json and
     * partial/final exports for campaigns that progressed. */
    void updateStatus();
    /** Worker-thread body: drain the shared pool until stop. */
    void drainLoop();
    /** Directory of one campaign's outputs. */
    std::string campaignDir(const std::string &name) const;
    /** Write one campaign's status.json; @p fleet is the worker
     * telemetry read from the shared cache directory (one read per
     * updateStatus pass, shared by every campaign's file). */
    void writeStatusJson(
        const ActiveCampaign &c, size_t claimed,
        const std::vector<obs::WorkerTelemetry> &fleet) const
        REQUIRES(mutex);
};

} // namespace mprobe

#endif // SERVICE_SERVICE_HH
