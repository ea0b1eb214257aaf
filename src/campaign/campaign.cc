/**
 * @file
 * Campaign engine implementation.
 */

#include "campaign/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>

#include "campaign/claims.hh"
#include "campaign/manifest.hh"
#include "campaign/queue.hh"
#include "microprobe/bootstrap.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "workloads/daxpy.hh"
#include "workloads/extremes.hh"
#include "workloads/spec_proxies.hh"

namespace mprobe
{

namespace
{

/**
 * The key prefix of one job: FNV-1a over everything that tells one
 * job of a program from another. The key continues this state
 * over the program's byte image (keyImage).
 */
uint64_t
keyPrefix(const ChipConfig &cfg, uint64_t machine_fingerprint,
          uint64_t salt, double freq_ghz, double vdd_volts)
{
    Hasher h;
    h.add(kCacheSchemaVersion);
    h.add(machine_fingerprint).add(salt);
    h.add(cfg.cores).add(cfg.smt);
    // The nominal operating point (freq_ghz == 0) hashes exactly
    // like a pre-DVFS job, so old cache entries keep hitting.
    if (freq_ghz > 0.0)
        h.add(freq_ghz);
    // An on-curve voltage (vdd_volts == 0) hashes exactly like a
    // pre-undervolting job. The tag domain-separates the axes:
    // without it, (freq X, on-curve) and (nominal, vdd X) would
    // collide.
    if (vdd_volts > 0.0) {
        h.add(static_cast<uint64_t>(0x7dd0));
        h.add(vdd_volts);
    }
    return h.digest();
}

/**
 * The key suffix of every job of @p prog: the canonical bytes a
 * Hasher would be fed for every Program field the simulator reads
 * (integers as 64-bit words, floats as canonical double bits,
 * sizes before sequences).
 */
std::vector<unsigned char>
keyImage(const Program &prog)
{
    size_t words = 2 + 5 * prog.body.size() + 1;
    for (const auto &st : prog.streams)
        words += 1 + st.lines.size();
    std::vector<unsigned char> img(8 * words + prog.name.size());
    unsigned char *p = img.data();
    auto word = [&p](uint64_t v) {
        std::memcpy(p, &v, sizeof v);
        p += sizeof v;
    };
    auto real = [&word](double v) {
        if (v == 0.0)
            v = 0.0; // collapse -0.0 and +0.0, as Hasher does
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        word(bits);
    };
    auto integer = [&word](int v) {
        word(static_cast<uint64_t>(static_cast<int64_t>(v)));
    };
    // The sensor-noise seed hashes the program name, so the name is
    // result-relevant and must be part of the key.
    word(prog.name.size());
    std::memcpy(p, prog.name.data(), prog.name.size());
    p += prog.name.size();
    word(prog.body.size());
    for (const auto &pi : prog.body) {
        integer(pi.op);
        integer(pi.depDist);
        integer(pi.stream);
        real(pi.toggle);
        real(pi.takenRate);
    }
    word(prog.streams.size());
    for (const auto &st : prog.streams) {
        word(st.lines.size());
        for (uint64_t line : st.lines)
            word(line);
    }
    return img;
}

/** Turn @p n prefix states of jobs of @p prog into their keys, in
 * one pass over the program's byte image. */
void
finishKeys(const Program &prog, uint64_t *states, size_t n)
{
    std::vector<unsigned char> img = keyImage(prog);
    hashBytesLanes(img.data(), img.size(), states, n);
}

} // namespace

uint64_t
campaignJobKey(const Program &prog, const ChipConfig &cfg,
               uint64_t machine_fingerprint, uint64_t salt,
               double freq_ghz, double vdd_volts)
{
    uint64_t key = keyPrefix(cfg, machine_fingerprint, salt,
                             freq_ghz, vdd_volts);
    finishKeys(prog, &key, 1);
    return key;
}

uint64_t
campaignFingerprint(const CampaignSpec &spec,
                    uint64_t machine_fingerprint)
{
    Hasher h;
    h.add(machine_fingerprint).add(spec.salt);
    h.add(spec.configs.size());
    for (const auto &cfg : spec.configs)
        h.add(cfg.cores).add(cfg.smt);
    // The frequency axis joins the fingerprint only when present:
    // axis-free campaigns keep the exact pre-DVFS fingerprint, so
    // their existing manifests stay resumable.
    if (!spec.freqs.empty()) {
        h.add(spec.freqs.size());
        for (double f : spec.freqs)
            h.add(f);
    }
    // Same for the voltage axis, tagged so a vdds-only spec cannot
    // collide with a freqs-only one.
    if (!spec.vdds.empty()) {
        h.add(static_cast<uint64_t>(0x7dd5));
        h.add(spec.vdds.size());
        for (double v : spec.vdds)
            h.add(v);
    }
    h.add(spec.suiteEnabled).add(spec.specProxies);
    h.add(spec.daxpy).add(spec.extremes);
    // Effective category restriction: the Campaign constructor
    // syncs spec.categories into suite.categories, so hash the one
    // that wins regardless of whether the sync ran yet.
    const auto &cats = spec.categories.empty()
                           ? spec.suite.categories
                           : spec.categories;
    h.add(cats.size());
    for (BenchCategory c : cats)
        h.add(static_cast<int>(c));
    const SuiteOptions &so = spec.suite;
    h.add(so.bodySize).add(so.perMemoryGroup).add(so.memoryCount);
    h.add(so.randomCount).add(so.ipcSearchBudget);
    h.add(so.gaPopulation).add(so.gaGenerations);
    h.add(so.extendUnitMix).add(so.seed);
    h.add(spec.bootstrap);
    h.add(spec.corpusTag);
    return h.digest();
}

namespace
{

/** Per-job wall-seconds histogram, registered once (the registry
 * lookup locks; the hot loop must only touch atomics). Buckets span
 * cache hits (µs) through heavy cold simulations. */
obs::Histogram &
jobHistogram()
{
    static obs::Histogram &h = obs::histogram(
        "job_seconds", {0.0001, 0.001, 0.01, 0.1, 1.0, 10.0});
    return h;
}

} // namespace

std::vector<JobGroup>
jobGroups(const std::vector<CampaignJob> &jobs)
{
    std::map<std::pair<size_t, int>, size_t> group_of;
    std::vector<JobGroup> groups;
    for (size_t i = 0; i < jobs.size(); ++i) {
        auto key = std::make_pair(jobs[i].workload, jobs[i].config.smt);
        auto it = group_of.find(key);
        if (it == group_of.end()) {
            it = group_of.emplace(key, groups.size()).first;
            groups.push_back({i, {}, 0.0});
        }
        JobGroup &g = groups[it->second];
        g.jobs.push_back(i);
        g.cost += jobs[i].cost;
    }
    // Longest-first draining at both levels: the costliest groups
    // start first so the pool drains without a long-tail straggler
    // holding the last worker, and each group retires its own
    // costliest members first.
    for (JobGroup &g : groups)
        std::stable_sort(g.jobs.begin(), g.jobs.end(),
                         [&](size_t a, size_t b) {
                             return jobs[a].cost > jobs[b].cost;
                         });
    std::stable_sort(groups.begin(), groups.end(),
                     [](const JobGroup &a, const JobGroup &b) {
                         return a.cost > b.cost;
                     });
    return groups;
}

std::vector<PoolJob>
claimPool(const std::vector<CampaignJob> &jobs, size_t base)
{
    std::vector<PoolJob> pool(jobs.size());
    for (const JobGroup &g : jobGroups(jobs))
        for (size_t i : g.jobs)
            pool[i] = {jobs[i].key, base + i, jobs[i].cost,
                       base + g.first};
    return pool;
}

Sample
JobExecutor::identity(const Machine &machine, const Program &prog,
                      const CampaignJob &job)
{
    Sample s;
    s.workload = prog.name;
    s.config = job.config;
    s.freqGhz = machine.operatingPoint(job.freqGhz).freqGhz;
    s.vddVolts = job.vdd > 0.0 ? job.vdd : machine.voltageAt(s.freqGhz);
    return s;
}

Sample
JobExecutor::measure(const Machine &machine, const Program &prog,
                     const CampaignJob &job, const Sample &id)
{
    if (!batch.pointsAt(machine, prog))
        batch.point(machine, prog);
    // The measurement salt derives from the job's content hash,
    // never from scheduling, so repeated sensor noise matches the
    // serial reference run and the cache exactly.
    Sample s = makeSample(
        prog.name, batch.run(job.config, {id.freqGhz, id.vddVolts},
                             hashCombine(job.key, 0x5a17ull)));
    cache.store(job.key, s);
    return s;
}

JobExecutor::Outcome
JobExecutor::run(const Machine &machine, const Program &prog,
                 const CampaignJob &job)
{
    static obs::Counter &hits = obs::counter("cache_hits");
    static obs::Counter &misses = obs::counter("cache_misses");
    // lint: wallclock-ok(per-job seconds feed --calibrate only)
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    obs::TraceSpan span("campaign.job");
    Outcome out;
    Sample id = identity(machine, prog, job);
    out.cached = cache.lookup(job.key, out.sample, &id);
    (out.cached ? hits : misses).add();
    if (!out.cached)
        out.sample = measure(machine, prog, job, id);
    out.seconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    jobHistogram().observe(out.seconds);
    span.note("cached", out.cached);
    span.note("cost_est", job.cost);
    span.note("seconds", out.seconds);
    return out;
}

JobExecutor::Outcome
JobExecutor::collect(const Machine &machine, const Program &prog,
                     const CampaignJob &job)
{
    Outcome out;
    Sample id = identity(machine, prog, job);
    out.cached = cache.peek(job.key, out.sample, &id);
    if (!out.cached)
        out.sample = measure(machine, prog, job, id);
    return out;
}

Campaign::Campaign(const Machine &m, CampaignSpec s)
    : machine(m), spec(std::move(s)), cache(spec.cacheDir),
      machineFp(m.fingerprint())
{
    spec.threads = resolveThreads(spec.threads, "campaign");
    if (spec.configs.empty())
        fatal("campaign: no configurations to deploy on");
    if (spec.serve && !cache.enabled())
        fatal("campaign: --serve needs a cache directory shared "
              "by the worker fleet (claims and results live "
              "there)");
    if (spec.serve && spec.claimTtlSeconds <= 0.0)
        fatal("campaign: claim TTL must be > 0 seconds");
    if (spec.serve && spec.claimPollSeconds <= 0.0)
        fatal("campaign: claim poll interval must be > 0 seconds");
    // A restriction set on spec.categories reaches the suite
    // generator without the caller having to mirror it into
    // suite.categories; one set directly on SuiteOptions is left
    // alone.
    if (!spec.categories.empty())
        spec.suite.categories = spec.categories;
}

std::vector<CampaignWorkload>
Campaign::expandWorkloads(Architecture &arch)
{
    std::vector<CampaignWorkload> out;

    if (spec.suiteEnabled) {
        if (spec.bootstrap) {
            inform("campaign: bootstrapping the architecture");
            BootstrapOptions bo;
            bo.bodySize = spec.suite.bodySize;
            bo.seed = spec.suite.seed ^ 0xb007ull;
            bootstrapArchitecture(arch, machine, bo);
        }
        inform("campaign: generating suite workloads");
        for (auto &gb : generateTable2Suite(arch, machine,
                                            spec.suite)) {
            CampaignWorkload w;
            w.source = benchCategoryName(gb.category);
            w.group = gb.group;
            w.program = std::move(gb.program);
            out.push_back(std::move(w));
        }
    }
    if (spec.specProxies) {
        inform("campaign: generating SPEC proxies");
        for (auto &p : generateSpecProxies(arch, spec.suite.bodySize,
                                           spec.suite.seed)) {
            CampaignWorkload w;
            w.source = "SPEC";
            w.program = std::move(p);
            out.push_back(std::move(w));
        }
    }
    if (spec.daxpy) {
        inform("campaign: generating DAXPY kernels");
        for (auto &p : generateDaxpySet(arch, spec.suite.bodySize)) {
            CampaignWorkload w;
            w.source = "DAXPY";
            w.program = std::move(p);
            out.push_back(std::move(w));
        }
    }
    if (spec.extremes) {
        inform("campaign: generating extreme cases");
        for (auto &e : generateExtremeCases(arch,
                                            spec.suite.bodySize,
                                            spec.suite.seed)) {
            CampaignWorkload w;
            w.source = "Extreme";
            w.group = e.name;
            w.program = std::move(e.program);
            out.push_back(std::move(w));
        }
    }
    if (out.empty())
        fatal("campaign: spec expanded to no workloads");
    return out;
}

std::vector<CampaignJob>
Campaign::expandJobs(
    const std::vector<CampaignWorkload> &workloads,
    const std::vector<std::vector<ChipConfig>> &configs_per) const
{
    if (configs_per.size() != workloads.size())
        fatal("campaign: one config list per workload required");
    // The frequency axis, normalized to job form: an empty axis is
    // the nominal point alone, and a swept frequency equal to the
    // machine's nominal clock collapses to the legacy
    // frequency-free key (0) so it shares pre-DVFS cache entries.
    std::vector<double> freq_axis;
    if (spec.freqs.empty()) {
        freq_axis.push_back(0.0);
    } else {
        for (double f : spec.freqs)
            freq_axis.push_back(f == machine.clockGhz() ? 0.0 : f);
    }
    // The voltage axis cross-products with the frequency axis. A
    // swept voltage equal to the curve's voltage at the job's
    // effective frequency collapses to the on-curve vdd-free key
    // (0) so it shares pre-undervolting cache entries.
    std::vector<double> vdd_axis;
    if (spec.vdds.empty())
        vdd_axis.push_back(0.0);
    else
        vdd_axis = spec.vdds;
    // Lay the jobs out serially (the fatal check, slot ranges),
    // then key each workload's slot range as one task: its jobs
    // differ only in the key prefix, so the program's byte image
    // is hashed once for all of them.
    std::vector<CampaignJob> jobs;
    std::vector<size_t> first(workloads.size() + 1, 0);
    for (size_t w = 0; w < workloads.size(); ++w) {
        if (configs_per[w].empty())
            fatal(cat("campaign: workload '",
                      workloads[w].program.name,
                      "' has no configurations to deploy on"));
        for (const auto &cfg : configs_per[w])
            for (double f : freq_axis)
                for (double v : vdd_axis) {
                    double f_eff =
                        f > 0.0 ? f : machine.clockGhz();
                    double v_eff =
                        v > 0.0 &&
                                v != machine.voltageAt(f_eff)
                            ? v
                            : 0.0;
                    jobs.push_back(
                        {w, cfg, 0,
                         costModel.estimate(
                             cfg,
                             workloads[w].program.body.size()),
                         f, v_eff});
                }
        first[w + 1] = jobs.size();
    }
    parallelFor(
        spec.threads, workloads.size(),
        [&](size_t w) {
            std::vector<uint64_t> keys;
            keys.reserve(first[w + 1] - first[w]);
            for (size_t i = first[w]; i < first[w + 1]; ++i)
                keys.push_back(keyPrefix(jobs[i].config, machineFp,
                                         spec.salt, jobs[i].freqGhz,
                                         jobs[i].vdd));
            finishKeys(workloads[w].program, keys.data(),
                       keys.size());
            for (size_t i = first[w]; i < first[w + 1]; ++i)
                jobs[i].key = keys[i - first[w]];
        },
        "campaign.key");
    return jobs;
}

void
Campaign::writeManifest(
    const std::vector<CampaignWorkload> &workloads,
    const std::vector<CampaignJob> &jobs) const
{
    if (!cache.enabled() && spec.manifestDir.empty())
        return;
    CampaignManifest m;
    m.spec = spec.contentSummary();
    m.fingerprint = campaignFingerprint(spec, machineFp);
    m.entries.reserve(jobs.size());
    for (const auto &job : jobs) {
        const CampaignWorkload &w = workloads[job.workload];
        m.entries.push_back(
            {job.key, job.config,
             w.source.empty() ? "adhoc" : w.source,
             w.program.name, job.freqGhz, job.vdd});
    }
    // Merge-accumulate: repeated measure() calls (the model
    // pipeline issues several) grow one manifest, and every serve
    // worker of one campaign persists the identical job list. The
    // service points manifestDir at a per-campaign directory so
    // many concurrent campaigns can share one cache.
    const std::string &mdir = spec.manifestDir.empty()
                                  ? spec.cacheDir
                                  : spec.manifestDir;
    std::error_code ec;
    std::filesystem::create_directories(mdir, ec);
    mergeSaveManifest(manifestPath(mdir), m);
}

Campaign::JobRunOutcome
Campaign::runJobs(const std::vector<CampaignWorkload> &workloads,
                  const std::vector<CampaignJob> &jobs)
{
    inform(cat("campaign: measuring ", jobs.size(), " jobs (",
               workloads.size(), " workloads) on ", spec.threads,
               spec.threads == 1 ? " thread" : " threads"));

    // Progress reporting: an atomic completion counter plus a
    // time-throttled reporter election (compare-exchange on the
    // next report deadline, so exactly one worker prints each
    // line).
    // lint: wallclock-ok(progress/ETA and claim heartbeats only)
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const int64_t every_ms =
        spec.progressSeconds > 0
            ? static_cast<int64_t>(spec.progressSeconds * 1000.0)
            : 0;
    std::atomic<size_t> done{0};
    std::atomic<size_t> cached{0};
    std::atomic<int64_t> next_report_ms{every_ms};
    // Cost-weighted ETA: cold estimated cost retired over elapsed
    // time gives the observed cost/sec; remaining cost divided by
    // it is the estimate. Cache hits retire their cost in
    // microseconds, so they are tracked separately — counting them
    // as work done would inflate the rate and report "~0s left"
    // on a half-warm resume. Accumulated in milli-cost units
    // because C++17 std::atomic<double> has no fetch_add.
    double total_cost = 0.0;
    for (const auto &job : jobs)
        total_cost += job.cost;
    std::atomic<int64_t> cold_cost_milli{0};
    std::atomic<int64_t> cached_cost_milli{0};

    // Longest-first draining at both levels (see jobGroups): only
    // the *execution* order changes — each job still writes its own
    // slot, so samples stay in job order and results are identical
    // to a serial in-order run.
    std::vector<JobGroup> groups = jobGroups(jobs);

    // Each job writes only its own slot: no result synchronization,
    // and sample order is scheduling-independent by construction.
    JobRunOutcome out;
    out.samples.resize(jobs.size());
    out.seconds.assign(jobs.size(), 0.0);
    out.cached.assign(jobs.size(), 0);
    // Execute one job into its slot and report progress.
    auto runOne = [&](JobExecutor &exec, size_t i) {
        const CampaignJob &job = jobs[i];
        JobExecutor::Outcome o =
            exec.run(machine, workloads[job.workload].program, job);
        out.samples[i] = std::move(o.sample);
        out.cached[i] = o.cached;
        out.seconds[i] = o.seconds;
        if (o.cached)
            ++cached;
        (o.cached ? cached_cost_milli : cold_cost_milli)
            .fetch_add(static_cast<int64_t>(
                std::llround(job.cost * 1000.0)));
        size_t k = ++done;
        if (every_ms <= 0 || k == jobs.size())
            return;
        int64_t elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                clock::now() - t0)
                .count();
        int64_t deadline = next_report_ms.load();
        if (elapsed >= deadline &&
            next_report_ms.compare_exchange_strong(deadline,
                                                   elapsed + every_ms)) {
            // ETA from the cold cost actually retired so far, not
            // from job counts: with mixed configs the heavy jobs run
            // first, so count-based estimates would overshoot (and
            // cache hits would make everything look free).
            double cold_cost =
                static_cast<double>(cold_cost_milli.load()) / 1000.0;
            double remaining =
                total_cost - cold_cost -
                static_cast<double>(cached_cost_milli.load()) / 1000.0;
            // A degenerate observed rate — an all-cached or
            // instant-job prefix has retired no cold cost yet, or the
            // clock has not advanced — cannot support an estimate;
            // say so instead of printing a nonsense number (a 0-cost
            // rate would divide to inf; a negative remainder would
            // print "-3s left").
            std::string eta = ", warming up";
            if (cold_cost > 0.0 && elapsed > 0) {
                double rate =
                    cold_cost / (static_cast<double>(elapsed) / 1000.0);
                if (rate > 0.0 && std::isfinite(rate))
                    eta = cat(", ~",
                              std::lround(std::max(0.0, remaining) /
                                          rate),
                              "s left");
            }
            inform(cat("campaign: ", k, " of ", jobs.size(),
                       " jobs done, ", cached.load(), " cached",
                       eta));
        }
    };

    // One executor (and so one Batch) per worker; workers pull whole
    // groups off a shared cursor.
    std::atomic<size_t> next_group{0};
    auto worker = [&](size_t) {
        JobExecutor exec(cache);
        for (size_t q; (q = next_group++) < groups.size();)
            for (size_t i : groups[q].jobs)
                runOne(exec, i);
    };
    parallelFor(spec.threads,
                std::min(static_cast<size_t>(spec.threads), groups.size()),
                worker, "campaign measure");
    return out;
}

Campaign::JobRunOutcome
Campaign::runClaimed(
    const std::vector<CampaignWorkload> &workloads,
    const std::vector<CampaignJob> &jobs)
{
    ClaimDir claimdir(spec.cacheDir, spec.workerId,
                      spec.claimTtlSeconds);
    ClaimedQueue queue(cache, claimdir, claimPool(jobs));

    inform(cat("campaign: serving ", jobs.size(),
               " pool jobs as worker ", claimdir.workerId(),
               " (claim TTL ", spec.claimTtlSeconds, "s) on ",
               spec.threads,
               spec.threads == 1 ? " thread" : " threads"));

    // lint: wallclock-ok(progress/ETA and claim heartbeats only)
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const int64_t every_ms =
        spec.progressSeconds > 0
            ? static_cast<int64_t>(spec.progressSeconds * 1000.0)
            : 0;
    std::atomic<size_t> ran{0};
    std::atomic<int64_t> next_report_ms{every_ms};

    JobRunOutcome out;
    out.samples.resize(jobs.size());
    out.seconds.assign(jobs.size(), 0.0);
    out.cached.assign(jobs.size(), 0);

    // Every worker thread loops pull -> run -> complete until the
    // pool is drained; parallelFor's index is just a worker id. Its
    // affinity keeps it on one (workload, SMT) group at a time, so
    // its executor's Batch memo is shared as in runJobs.
    // Unlike runJobs there is no per-index slot discipline — a
    // thread may run any job — but each pulled index is handed to
    // exactly one thread process-wide (ClaimedQueue::running) and
    // fleet-wide (the claim file), so slot writes never race.
    auto drain = [&](size_t) {
        JobExecutor exec(cache);
        ClaimedQueue::Affinity affinity;
        for (;;) {
            size_t i = 0;
            ClaimedQueue::Pull pull = queue.next(i, affinity);
            if (pull == ClaimedQueue::Pull::Drained) {
                // Nothing left to claim, but sibling threads may
                // still run their last jobs: keep those claims
                // fresh until they end, as nobody else pulls.
                queue.awaitLocal(spec.claimPollSeconds);
                return;
            }
            if (pull == ClaimedQueue::Pull::Wait) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(
                        spec.claimPollSeconds));
                continue;
            }
            // A hit is rare but possible: a peer cached the job
            // between our queue scan and the claim acquisition.
            const CampaignJob &job = jobs[i];
            JobExecutor::Outcome o =
                exec.run(machine, workloads[job.workload].program, job);
            out.samples[i] = std::move(o.sample);
            out.cached[i] = o.cached;
            out.seconds[i] = o.seconds;
            // Store first, release second: once the claim is gone
            // the job must already be skippable via the cache.
            queue.complete(i);
            size_t k = ++ran;
            if (every_ms <= 0)
                continue;
            int64_t elapsed =
                std::chrono::duration_cast<
                    std::chrono::milliseconds>(clock::now() - t0)
                    .count();
            int64_t deadline = next_report_ms.load();
            if (elapsed >= deadline &&
                next_report_ms.compare_exchange_strong(
                    deadline, elapsed + every_ms)) {
                inform(cat("campaign: serve: ", k,
                           " jobs run by this worker, ",
                           queue.completedByPeers(),
                           " taken by peers, ", queue.pending(),
                           " of ", jobs.size(), " pool jobs open ",
                           "(", claimdir.stolen(), " stolen)"));
                // The progress reporter doubles as the telemetry
                // heartbeat: the CAS elected exactly one thread,
                // and atomicWriteFile keeps readers tear-free.
                claimdir.publishTelemetry(
                    cache, k, static_cast<double>(elapsed) / 1000.0);
            }
        }
    };
    parallelFor(spec.threads,
                static_cast<size_t>(spec.threads), drain,
                "campaign serve");

    // The pool is drained: every job of the campaign is in the
    // cache. Load the peer-measured slots so this worker returns
    // the complete sample set in job order — its export is
    // byte-identical to a plain run's. A result that vanished
    // or went corrupt between drain and collection is re-measured
    // locally rather than exported as a hole.
    JobExecutor collector(cache);
    size_t holes = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (!out.samples[i].rates.empty())
            continue;
        JobExecutor::Outcome o = collector.collect(
            machine, workloads[jobs[i].workload].program, jobs[i]);
        out.samples[i] = std::move(o.sample);
        out.cached[i] = o.cached;
        if (!o.cached)
            ++holes;
    }
    if (holes > 0)
        warn(cat("campaign: serve: ", holes,
                 " cached results were missing or did not match "
                 "their jobs at collection and were re-measured"));
    inform(cat("campaign: serve: pool drained; this worker ran ",
               ran.load(), " of ", jobs.size(), " jobs (",
               claimdir.stolen(), " stolen from expired claims, ",
               queue.completedByPeers(), " measured by peers)"));
    // Final telemetry snapshot: the worker's last word stays on
    // disk (age tells observers it has finished or died).
    claimdir.publishTelemetry(
        cache, ran.load(),
        std::chrono::duration<double>(clock::now() - t0).count());
    out.claimsAcquired = claimdir.acquired();
    out.claimsStolen = claimdir.stolen();
    return out;
}

CampaignExpansion
Campaign::expand(Architecture &arch)
{
    CampaignExpansion out;
    out.workloads = expandWorkloads(arch);
    out.jobs = expandJobs(
        out.workloads,
        std::vector<std::vector<ChipConfig>>(out.workloads.size(),
                                             spec.configs));
    // The manifest is persisted before any measurement — the full
    // job list, so interrupted or served runs can always
    // report what is left and --merge sees every job.
    writeManifest(out.workloads, out.jobs);
    return out;
}

CampaignResult
Campaign::run(Architecture &arch)
{
    // lint: wallclock-ok(progress/ETA and claim heartbeats only)
    using clock = std::chrono::steady_clock;
    CampaignResult res;
    auto t0 = clock::now();
    {
        obs::TraceSpan span("campaign.generate");
        res.workloads = expandWorkloads(arch);
        span.note("workloads",
                  static_cast<double>(res.workloads.size()));
    }
    auto t1 = clock::now();
    {
        obs::TraceSpan span("campaign.expand");
        res.jobs = expandJobs(
            res.workloads,
            std::vector<std::vector<ChipConfig>>(
                res.workloads.size(), spec.configs));
        span.note("jobs", static_cast<double>(res.jobs.size()));
        // The manifest is persisted before measurement starts, so
        // an interrupted or served run can always report what is
        // left and --merge sees every job.
        writeManifest(res.workloads, res.jobs);
    }
    auto t_expanded = clock::now();
    size_t hits0 = cache.hits(), misses0 = cache.misses();
    size_t corrupt0 = cache.corrupt();
    JobRunOutcome outcome;
    {
        obs::TraceSpan span("campaign.measure");
        outcome = spec.serve
                      ? runClaimed(res.workloads, res.jobs)
                      : runJobs(res.workloads, res.jobs);
        span.note("jobs", static_cast<double>(res.jobs.size()));
    }
    res.samples = std::move(outcome.samples);
    res.jobSeconds = std::move(outcome.seconds);
    res.jobCached = std::move(outcome.cached);
    auto t2 = clock::now();
    res.cacheHits = cache.hits() - hits0;
    res.cacheMisses = cache.misses() - misses0;
    res.cacheCorrupt = cache.corrupt() - corrupt0;
    res.claimsAcquired = outcome.claimsAcquired;
    res.claimsStolen = outcome.claimsStolen;
    static obs::Counter &corrupt = obs::counter("cache_corrupt");
    static obs::Gauge &generation_s = obs::gauge("generation_seconds");
    static obs::Gauge &expand_s = obs::gauge("expand_seconds");
    static obs::Gauge &measure_s = obs::gauge("measure_seconds");
    // The cache cannot count corrupt entries into the registry
    // itself (cache.cc is inside the obs-isolation boundary), so
    // the engine syncs the delta here.
    if (res.cacheCorrupt > 0)
        corrupt.add(res.cacheCorrupt);
    res.generationSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    res.expandSeconds =
        std::chrono::duration<double>(t_expanded - t1).count();
    res.measureSeconds =
        std::chrono::duration<double>(t2 - t1).count();
    generation_s.set(res.generationSeconds);
    expand_s.set(res.expandSeconds);
    measure_s.set(res.measureSeconds);
    inform(cat("campaign: done; cache ", res.cacheHits, " hits / ",
               res.cacheMisses, " misses"));
    return res;
}

namespace
{

std::vector<CampaignWorkload>
adhocWorkloads(const std::vector<Program> &programs)
{
    std::vector<CampaignWorkload> workloads;
    workloads.reserve(programs.size());
    for (const auto &p : programs) {
        CampaignWorkload w;
        w.program = p;
        w.source = "adhoc";
        workloads.push_back(std::move(w));
    }
    return workloads;
}

} // namespace

std::vector<Sample>
Campaign::measure(const std::vector<Program> &programs,
                  const std::vector<ChipConfig> &configs)
{
    if (configs.empty())
        fatal("campaign: no configurations to deploy on");
    return measure(programs,
                   std::vector<std::vector<ChipConfig>>(
                       programs.size(), configs));
}

std::vector<Sample>
Campaign::measure(
    const std::vector<Program> &programs,
    const std::vector<std::vector<ChipConfig>> &configs_per)
{
    auto workloads = adhocWorkloads(programs);
    auto jobs = expandJobs(workloads, configs_per);
    // measure() campaigns are manifest-covered too: benches and
    // the model pipeline accumulate their job lists next to the
    // shared cache, which is what makes --resume and --merge work
    // for them.
    writeManifest(workloads, jobs);
    return runJobs(workloads, jobs).samples;
}

CampaignSpec
measurementSpec(int threads, std::string cache_dir, uint64_t salt)
{
    CampaignSpec spec;
    spec.suiteEnabled = false;
    spec.bootstrap = false;
    spec.threads = threads;
    spec.cacheDir = std::move(cache_dir);
    spec.salt = salt;
    return spec;
}

} // namespace mprobe
