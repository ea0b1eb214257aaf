/**
 * @file
 * Claim-file registry and shared-pool queue implementation.
 */

#include "campaign/claims.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace mprobe
{

namespace fs = std::filesystem;

std::string
defaultWorkerId()
{
    char host[256] = "unknown";
    // gethostname may leave the buffer unterminated on truncation.
    if (::gethostname(host, sizeof host - 1) != 0)
        std::snprintf(host, sizeof host, "unknown");
    host[sizeof host - 1] = '\0';
    return cat(host, ":", ::getpid());
}

ClaimDir::ClaimDir(std::string d, std::string worker_id,
                   double ttl_seconds)
    : dir(std::move(d)), worker(std::move(worker_id)),
      ttl(ttl_seconds)
{
    if (worker.empty())
        worker = defaultWorkerId();
    if (ttl <= 0.0)
        fatal(cat("claims: TTL must be > 0 seconds, got ", ttl));
    if (dir.empty())
        return;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        fatal(cat("claims: cannot create claim directory '", dir,
                  "': ", ec.message()));
}

std::string
ClaimDir::pathOf(uint64_t key) const
{
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.claim",
                  static_cast<unsigned long long>(key));
    return dir + "/" + name;
}

double
ClaimDir::claimAge(const std::string &path) const
{
    std::error_code ec;
    auto mtime = fs::last_write_time(path, ec);
    if (ec)
        return -1.0;
    auto now = fs::file_time_type::clock::now();
    return std::chrono::duration<double>(now - mtime).count();
}

bool
ClaimDir::createClaim(const std::string &path) const
{
    // O_EXCL is the atom: exactly one creator wins, on local
    // filesystems and (unlike lockfiles relying on advisory locks)
    // on the network filesystems a fleet shares.
    int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY,
                    0644);
    if (fd < 0)
        return false;
    std::string content = cat("claim v1\nworker ", worker, "\n");
    // A short write leaves a claim whose worker line is truncated;
    // observers only print that id, so it degrades a log line, not
    // correctness (the mtime heartbeat is metadata, not content).
    ssize_t n =
        ::write(fd, content.data(), content.size());
    (void)n;
    ::close(fd);
    return true;
}

bool
ClaimDir::tryAcquire(uint64_t key)
{
    if (!enabled())
        return true;
    std::string path = pathOf(key);
    bool stole = false;
    if (!createClaim(path)) {
        double age = claimAge(path);
        // age < 0: the claim vanished between create and stat (its
        // holder released); retry once like a steal, without
        // unlinking anything.
        if (age >= 0.0 && age <= ttl)
            return false; // fresh claim: a live peer owns the job
        if (age > ttl) {
            // Stale: the holder is presumed dead. Unlink-then-
            // create races with other stealers; exactly one wins
            // the O_EXCL retry. (A loser observing this *new*
            // claim sees a fresh mtime and backs off.)
            std::error_code ec;
            fs::remove(path, ec);
            stole = true;
        }
        if (!createClaim(path))
            return false;
    }
    static obs::Counter &acquired_ctr = obs::counter("claims_acquired");
    static obs::Counter &stolen_ctr = obs::counter("claims_stolen");
    ++nAcquired;
    acquired_ctr.add();
    obs::traceInstant(stole ? "claim.steal" : "claim.acquire");
    if (stole) {
        ++nStolen;
        stolen_ctr.add();
    }
    {
        MutexLock lock(heldMutex);
        held.insert(key);
    }
    return true;
}

void
ClaimDir::release(uint64_t key)
{
    if (!enabled())
        return;
    {
        MutexLock lock(heldMutex);
        held.erase(key);
    }
    std::error_code ec;
    fs::remove(pathOf(key), ec);
    if (ec)
        warn(cat("claims: cannot release ", pathOf(key), ": ",
                 ec.message(),
                 " — peers will treat the job as in-flight until "
                 "the claim expires"));
}

void
ClaimDir::heartbeatHeld()
{
    if (!enabled())
        return;
    std::vector<uint64_t> keys;
    {
        MutexLock lock(heldMutex);
        keys.assign(held.begin(), held.end());
    }
    if (!keys.empty())
        obs::traceInstant("claim.heartbeat", "held",
                          static_cast<double>(keys.size()));
    for (uint64_t key : keys) {
        std::error_code ec;
        fs::last_write_time(pathOf(key),
                            fs::file_time_type::clock::now(), ec);
        // A failed heartbeat (claim stolen after a long stall, or
        // dir trouble) is not fatal here: the job's eventual cache
        // store is still valid, identical to the thief's.
    }
}

bool
ClaimDir::info(uint64_t key, ClaimInfo &out) const
{
    if (!enabled())
        return false;
    std::string path = pathOf(key);
    double age = claimAge(path);
    if (age < 0.0)
        return false;
    out.ageSeconds = age;
    out.worker.clear();
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line)) {
        std::string s = trim(line);
        if (s.rfind("worker ", 0) == 0) {
            out.worker = trim(s.substr(7));
            break;
        }
    }
    return true;
}

bool
ClaimDir::sweepIfStale(uint64_t key)
{
    if (!enabled())
        return false;
    std::string path = pathOf(key);
    double age = claimAge(path);
    if (age <= ttl)
        return false;
    std::error_code ec;
    return fs::remove(path, ec) && !ec;
}

void
ClaimDir::publishTelemetry(const ResultCache &cache, size_t jobs,
                           double seconds) const
{
    obs::WorkerTelemetry t;
    t.worker = worker;
    t.jobs = jobs;
    t.hits = cache.hits();
    t.acquired = acquired();
    t.stolen = stolen();
    t.seconds = seconds;
    t.jobsPerSecond =
        seconds > 0.0 ? static_cast<double>(jobs) / seconds : 0.0;
    size_t looked = cache.hits() + cache.misses();
    t.hitRate = looked > 0 ? static_cast<double>(cache.hits()) /
                                 static_cast<double>(looked)
                           : 0.0;
    obs::writeWorkerTelemetry(dir, t);
}

// ----------------------------------------------------------------
// ClaimedQueue

ClaimedQueue::ClaimedQueue(const ResultCache &c, ClaimDir &cl,
                           std::vector<PoolJob> jobs)
    : cache(c), claims(cl)
{
    push(jobs);
}

void
ClaimedQueue::push(const std::vector<PoolJob> &jobs)
{
    MutexLock lock(mutex);
    std::map<uint64_t, size_t> slot_of;
    for (size_t s = 0; s < groups.size(); ++s)
        slot_of.emplace(groups[s].id, s);
    std::set<size_t> grown;
    for (const PoolJob &j : jobs) {
        auto it = slot_of.find(j.group);
        if (it == slot_of.end()) {
            it = slot_of.emplace(j.group, groups.size()).first;
            groups.emplace_back();
            groups.back().id = j.group;
        }
        Group &g = groups[it->second];
        g.entries.push_back({j, false, false});
        ++g.idle;
        grown.insert(it->second);
    }
    for (size_t s : grown) {
        Group &g = groups[s];
        // Descending cost, ties by ascending key: a stable pull
        // order no matter how campaigns were ingested interleaved.
        std::stable_sort(g.entries.begin(), g.entries.end(),
                         [](const Entry &a, const Entry &b) {
                             if (a.job.cost != b.job.cost)
                                 return a.job.cost > b.job.cost;
                             return a.job.key < b.job.key;
                         });
        g.first = 0;
        g.cost = 0.0;
        for (const Entry &e : g.entries)
            g.cost += e.job.cost;
    }
    order.resize(groups.size());
    for (size_t s = 0; s < order.size(); ++s)
        order[s] = s;
    // Descending summed cost, ties by ascending group id. (The
    // comparator reads through a plain reference: the lock held
    // here is invisible to the thread-safety analysis inside it.)
    const std::vector<Group> &gs = groups;
    std::sort(order.begin(), order.end(), [&gs](size_t a, size_t b) {
        if (gs[a].cost != gs[b].cost)
            return gs[a].cost > gs[b].cost;
        return gs[a].id < gs[b].id;
    });
}

ClaimedQueue::Entry *
ClaimedQueue::pullFrom(Group &g, bool fresh_only, bool &peer_open)
{
    while (g.first < g.entries.size() && g.entries[g.first].done)
        ++g.first;
    for (size_t k = g.first; g.idle > 0 && k < g.entries.size(); ++k) {
        Entry &e = g.entries[k];
        if (e.done || e.running)
            continue;
        if (cache.contains(e.job.key)) {
            // A peer finished this job. A stale claim left on a
            // cached job (its worker died between store and
            // release) would otherwise linger forever: nothing
            // re-runs a cached job, so nothing would release it.
            e.done = true;
            --g.idle;
            ++nPeer;
            claims.sweepIfStale(e.job.key);
            continue;
        }
        if (claims.tryAcquire(e.job.key)) {
            e.running = true;
            --g.idle;
            ++nRunning;
            g.touched = true;
            return &e;
        }
        // Claimed by a live peer; revisit later.
        peer_open = true;
        g.touched = true;
        if (fresh_only)
            return nullptr;
    }
    return nullptr;
}

ClaimedQueue::Pull
ClaimedQueue::next(size_t &out_index, Affinity &affinity)
{
    // One live pulling thread keeps every in-flight claim of this
    // process fresh, so siblings running jobs longer than the scan
    // interval are not stolen from.
    claims.heartbeatHeld();
    MutexLock lock(mutex);
    bool peer_open = false;
    // Stay on the thread's own group: its Batch already holds the
    // group's decode and memo.
    size_t slot = affinity.slot;
    Entry *e = affinity.set ? pullFrom(groups[slot], false, peer_open)
                            : nullptr;
    // Then start the costliest group nobody has touched yet.
    for (size_t k = 0; !e && k < order.size(); ++k) {
        slot = order[k];
        if (!groups[slot].touched && groups[slot].idle > 0)
            e = pullFrom(groups[slot], true, peer_open);
    }
    // The tail: help out in groups already in progress.
    for (size_t k = 0; !e && k < order.size(); ++k) {
        slot = order[k];
        if (groups[slot].touched && groups[slot].idle > 0 &&
            !(affinity.set && slot == affinity.slot))
            e = pullFrom(groups[slot], false, peer_open);
    }
    affinity.set = e != nullptr;
    if (!e)
        // Jobs running on sibling threads are not waited on: they
        // end with their thread, which completes them itself.
        return peer_open ? Pull::Wait : Pull::Drained;
    affinity.slot = slot;
    out_index = e->job.index;
    return Pull::Job;
}

ClaimedQueue::Pull
ClaimedQueue::next(size_t &out_index)
{
    Affinity fresh;
    return next(out_index, fresh);
}

void
ClaimedQueue::complete(size_t index)
{
    {
        MutexLock lock(mutex);
        Entry *e = nullptr;
        for (Group &g : groups)
            for (Entry &c : g.entries)
                if (c.job.index == index && c.running)
                    e = &c;
        if (!e)
            panic(cat("claims: complete(", index,
                      ") without a matching running pool job"));
        e->running = false;
        e->done = true;
        --nRunning;
        claims.release(e->job.key);
    }
    localDone.notify_all();
}

void
ClaimedQueue::awaitLocal(double heartbeat_seconds)
{
    const std::chrono::duration<double> period(heartbeat_seconds);
    std::unique_lock<Mutex> lock(mutex);
    while (nRunning > 0) {
        localDone.wait_for(lock, period);
        if (nRunning == 0)
            break;
        // Heartbeat outside the lock: it touches every held claim
        // file, and complete() must not queue up behind that.
        lock.unlock();
        claims.heartbeatHeld();
        lock.lock();
    }
}

size_t
ClaimedQueue::pending() const
{
    MutexLock lock(mutex);
    size_t n = 0;
    for (const Group &g : groups)
        for (const Entry &e : g.entries)
            if (!e.done)
                ++n;
    return n;
}

} // namespace mprobe
