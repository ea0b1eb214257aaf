/**
 * @file
 * Atomic per-job claim files: work stealing over a shared cache
 * directory.
 *
 * This is the one way to split a campaign across processes or
 * hosts. A fleet of heterogeneous, killable workers needs dynamic
 * balance: every worker pulls the next unfinished job from one
 * shared pool, and a job whose worker died is eventually re-run by
 * a survivor.
 *
 * The coordination primitive is a claim file per job key inside the
 * shared cache directory: `<key>.claim`, created with O_CREAT|O_EXCL
 * (atomic on every filesystem the cache already relies on) and
 * carrying the claiming worker's id. The file's mtime is the
 * claim's heartbeat; a claim whose mtime is older than the
 * configured TTL is *stale* — its worker is presumed dead and any
 * other worker may steal the job (unlink + re-create). Because job
 * execution is deterministic and cache stores are atomic
 * last-rename-wins with identical content, the worst case of the
 * unlink/re-create race window (two workers briefly running the
 * same job) wastes cycles but can never corrupt or duplicate
 * results: the cache ends up with the one sample either would have
 * written, and exports are manifest-ordered.
 *
 * ClaimedQueue layers pool semantics on top: any number of
 * `mprobe_campaign --serve` workers (and the drop-directory service
 * of src/service/) pull jobs from the manifest-defined pool
 * group-major in cost order, skip jobs whose results are already
 * cached, wait on jobs freshly claimed by live peers, and steal
 * them once the claim expires. A pool is drained exactly when
 * every job's result is in the cache — at which point any worker
 * can assemble the complete, byte-identical export.
 */

#ifndef CAMPAIGN_CLAIMS_HH
#define CAMPAIGN_CLAIMS_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "util/thread_annotations.hh"

namespace mprobe
{

/**
 * Default stale-claim TTL. A claim is heartbeaten every time its
 * worker pulls from the queue (between jobs) and whenever a worker
 * thread waits on peers or on its siblings' last jobs
 * (ClaimedQueue::awaitLocal), so in a live worker the mtime stays
 * far younger than this. Raise it when individual jobs can run longer
 * than this on the slowest fleet host (a claim is only refreshed
 * between jobs), or when cache-directory clocks (e.g. NFS server
 * vs client) may disagree by a sizable fraction of it.
 */
constexpr double kDefaultClaimTtlSeconds = 60.0;

/** What an existing claim file says about its holder. */
struct ClaimInfo
{
    /** Claiming worker's id ("host:pid" by default). */
    std::string worker;
    /** Seconds since the claim's last heartbeat (mtime). */
    double ageSeconds = 0.0;
};

/** "host:pid" identity of this worker process. */
std::string defaultWorkerId();

/**
 * The claim-file registry of one shared cache directory. Safe for
 * concurrent use by many threads of one worker process and by any
 * number of worker processes on the directory.
 */
class ClaimDir
{
  public:
    /**
     * Bind to @p dir (the campaign's shared cache directory; empty
     * disables claiming — tryAcquire always succeeds without
     * touching disk, for cache-less single-process runs). An empty
     * @p worker_id resolves to defaultWorkerId().
     */
    explicit ClaimDir(std::string dir, std::string worker_id = "",
                      double ttl_seconds = kDefaultClaimTtlSeconds);

    bool enabled() const { return !dir.empty(); }
    const std::string &workerId() const { return worker; }
    double ttlSeconds() const { return ttl; }

    /** Path of a key's claim file (`<dir>/<key>.claim`). */
    std::string pathOf(uint64_t key) const;

    /**
     * Try to take the claim on @p key: O_EXCL-create the claim file
     * carrying this worker's id. When the file already exists but
     * its heartbeat is older than the TTL, the claim is stolen
     * (unlink, then one O_EXCL retry — losing the retry to another
     * stealer returns false). Returns true iff this worker now
     * holds the claim.
     */
    bool tryAcquire(uint64_t key);

    /**
     * Drop a claim this worker holds. Call after the job's result
     * is safely in the cache (store-then-release order is what
     * makes a completed job's claim irrelevant: the pool skips
     * cached jobs before ever looking at claims).
     */
    void release(uint64_t key);

    /**
     * Refresh the heartbeat (mtime) of every claim this worker
     * currently holds. Pulling threads call this on each queue
     * scan, so one live thread keeps the whole process's in-flight
     * claims fresh while siblings run long jobs.
     */
    void heartbeatHeld();

    /**
     * Read the claim on @p key, if any. Returns false when no
     * claim file exists (or it vanishes mid-read — releases race
     * with observers by design).
     */
    bool info(uint64_t key, ClaimInfo &out) const;

    /**
     * Remove a *stale* claim on @p key without taking it — cleanup
     * for claims orphaned by a worker that died after caching its
     * result but before releasing (the pool never re-runs such a
     * job, so nobody would ever steal-and-release it). Fresh
     * claims are left alone. Returns true when a stale claim was
     * removed.
     */
    bool sweepIfStale(uint64_t key);

    /** @name Statistics (since construction) */
    /**@{*/
    size_t acquired() const { return nAcquired.load(); }
    size_t stolen() const { return nStolen.load(); }
    /**@}*/

    /** Publish this worker's telemetry (obs/telemetry.hh) next to
     * its claims: @p jobs run in @p seconds, claim and @p cache
     * statistics. Observability only; nothing reads it back. */
    void publishTelemetry(const ResultCache &cache, size_t jobs,
                          double seconds) const;

  private:
    std::string dir;
    std::string worker;
    double ttl;
    std::atomic<size_t> nAcquired{0};
    std::atomic<size_t> nStolen{0};
    mutable Mutex heldMutex;
    /** Keys this worker currently holds (heartbeat targets). */
    std::set<uint64_t> held GUARDED_BY(heldMutex);

    /** Age in seconds of the claim file at @p path; negative when
     * the file does not exist. */
    double claimAge(const std::string &path) const;
    /** Plain O_EXCL create attempt (no steal logic). */
    bool createClaim(const std::string &path) const;
};

/** One pool entry a ClaimedQueue schedules. */
struct PoolJob
{
    /** Cache/claim key of the job. */
    uint64_t key = 0;
    /** Caller's index for the job (position in its own job list);
     * unique within one queue. */
    size_t index = 0;
    /** Estimated relative cost (JobCostModel units): costlier
     * groups start first and each group retires its costliest jobs
     * first, so the fleet drains without a long-tail straggler. */
    double cost = 0.0;
    /**
     * Batch-sharing group: jobs of one workload and SMT mode (see
     * claimPool in campaign/campaign.hh). A thread that runs a
     * group back to back reuses its Batch's decode and memo, so
     * the queue hands a pulling thread more of its own group
     * before anything else. The default puts every job in one
     * group, which pulls in plain cost order.
     */
    uint64_t group = 0;
};

/**
 * The shared-pool scheduler of a worker process: pulls the next
 * runnable job of the pool, coordinating with peer processes
 * through the cache (completed jobs) and the ClaimDir (in-flight
 * jobs). Thread-safe; all worker threads of one process share one
 * queue.
 *
 * Pull order is group-major: groups by descending summed cost
 * (ties by group id), and within a group jobs by descending cost
 * (ties by key). A thread that pulls with an Affinity stays on its
 * group until the group has nothing claimable left; it then starts
 * the costliest group nobody has touched yet, and only when none
 * is left helps out in a group already in progress (the tail).
 */
class ClaimedQueue
{
  public:
    /** What a pull produced. */
    enum class Pull
    {
        Job,     //!< @p index is yours to run: claim held
        Wait,    //!< live peers hold every remaining claimable
                 //!< job; retry after a poll interval
        Drained, //!< nothing left to claim: every pool job is in
                 //!< the cache or running on a thread of this
                 //!< process
    };

    /**
     * A pulling thread's place in the pool: the group it works
     * through. One per thread, passed to every next() that thread
     * makes; it starts unset and is cleared again when the thread
     * gets Wait or Drained.
     */
    class Affinity
    {
      private:
        friend class ClaimedQueue;
        bool set = false;
        /** The group's slot in ClaimedQueue::groups. */
        size_t slot = 0;
    };

    /**
     * Build over @p cache and @p claims (both outlive the queue).
     * @p jobs is the pool; it is scheduled group-major in cost
     * order regardless of input order.
     */
    ClaimedQueue(const ResultCache &cache, ClaimDir &claims,
                 std::vector<PoolJob> jobs = {});

    /** Append more pool jobs (the service ingests new campaigns
     * while workers pull; the pull order is maintained). A job
     * whose group id is already in the pool joins that group. */
    void push(const std::vector<PoolJob> &jobs);

    /**
     * Pull the next runnable job for the thread owning
     * @p affinity. On Pull::Job, @p out_index is the caller-side
     * index of a job this worker now holds the claim for: run it,
     * store the result in the cache, then call complete(). On
     * Pull::Wait, sleep briefly and pull again — a peer death
     * turns Wait into Job once its claim passes the TTL. Jobs
     * running on sibling threads of this process never cause a
     * Wait: once only they are open, the pull is Drained, and the
     * thread calls awaitLocal() before it exits. Heartbeats all
     * claims held by this process; allocates nothing itself.
     */
    Pull next(size_t &out_index, Affinity &affinity);

    /** Pull with a fresh Affinity: a one-off pull, bound to no
     * group. On a single-group pool this is plain cost order. */
    Pull next(size_t &out_index);

    /**
     * Mark the job pulled as @p index done: releases its claim.
     * The result must already be in the cache (store first,
     * release second).
     */
    void complete(size_t index);

    /**
     * Block until no job pulled from this queue is running on a
     * thread of this process, heartbeating every held claim each
     * @p heartbeat_seconds meanwhile. A thread that got Drained
     * calls it before it exits: its siblings' last jobs otherwise
     * have nobody refreshing their claims, and a job outlasting
     * the TTL would be stolen. Returns as soon as the last local
     * job completes. (Exempt from the thread-safety analysis: it
     * waits through std::unique_lock, which the analysis cannot
     * follow, and reads nRunning only with the lock held.)
     */
    void awaitLocal(double heartbeat_seconds) NO_THREAD_SAFETY_ANALYSIS;

    /** Pool jobs not yet observed cached by this queue (includes
     * jobs currently running anywhere). */
    size_t pending() const;

    /** Jobs this queue observed leaving the pool because a peer
     * cached their result (vs ran locally). */
    size_t completedByPeers() const { return nPeer.load(); }

  private:
    const ResultCache &cache;
    ClaimDir &claims;
    /** One pool job with its bookkeeping. */
    struct Entry
    {
        PoolJob job;
        /** Result observed in the cache (done, whoever ran it). */
        bool done = false;
        /** Pulled by a thread of this process and not completed
         * yet (never handed out twice locally). */
        bool running = false;
    };
    /** The jobs of one group id. */
    struct Group
    {
        uint64_t id = 0;
        /** Summed cost of the entries. */
        double cost = 0.0;
        /** Descending cost, ties by ascending key. */
        std::vector<Entry> entries;
        /** Entries before it are all done. */
        size_t first = 0;
        /** Entries neither done nor running: the only ones a pull
         * can claim (or find held by a peer). */
        size_t idle = 0;
        /** A job of the group was handed out here, or one was
         * found claimed by a peer: no longer a fresh start. */
        bool touched = false;
    };
    mutable Mutex mutex;
    /** Groups in arrival order; a slot never moves, so an
     * Affinity stays valid across push(). */
    std::vector<Group> groups GUARDED_BY(mutex);
    /** Group slots in pull order (descending cost, then id). */
    std::vector<size_t> order GUARDED_BY(mutex);
    /** Entries with running set, across all groups. */
    size_t nRunning GUARDED_BY(mutex) = 0;
    /** Signalled by complete(), for awaitLocal(). */
    std::condition_variable_any localDone;
    std::atomic<size_t> nPeer{0};

    /**
     * Claim the first claimable entry of @p g, marking cached
     * ones done. A peer-held entry sets @p peer_open; with
     * @p fresh_only the scan gives up on the group there (a peer
     * works in it). Returns the claimed entry or nullptr.
     */
    Entry *pullFrom(Group &g, bool fresh_only, bool &peer_open)
        REQUIRES(mutex);
};

} // namespace mprobe

#endif // CAMPAIGN_CLAIMS_HH
