/**
 * @file
 * Per-layer replay: the workload's own programs, configurations,
 * operating points, keys and samples, pushed through the public
 * functions of each library module under the benchmark's spans.
 *
 * Layer units do not depend on the job mix (microseconds per job,
 * per program, per entry; simulated instructions per host second),
 * so a change to one layer shows in its own number. The job replay
 * doubles as a fidelity self-test: it must reproduce the workload's
 * exported coreIpc and instrGips job for job, which proves that the
 * per-layer numbers time the same work the end-to-end run did.
 */

#include <filesystem>
#include <map>

#include "campaign/cache.hh"
#include "campaign/claims.hh"
#include "campaign/cost.hh"
#include "campaign/export.hh"
#include "campaign/manifest.hh"
#include "perfbench.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "workloads/spec_proxies.hh"

namespace perfbench
{

using namespace mprobe;
namespace fs = std::filesystem;

namespace
{

/** Repeat @p fn (which returns host seconds of one repetition)
 * until both @p min_reps and @p min_seconds are reached; returns
 * every repetition's seconds. */
template <typename Fn>
std::vector<double>
repeat(int min_reps, double min_seconds, Fn fn)
{
    std::vector<double> secs;
    auto t0 = Clock::now();
    while (static_cast<int>(secs.size()) < min_reps ||
           secondsSince(t0) < min_seconds)
        secs.push_back(fn());
    return secs;
}

/** A fresh, empty directory under @p root. */
std::string
freshDir(const std::string &root, const std::string &name)
{
    std::string d = root + "/" + name;
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
}

OperatingPoint
jobPoint(const Machine &machine, const ReplayJob &job)
{
    OperatingPoint op = machine.operatingPoint(job.freqGhz);
    if (job.vdd > 0.0)
        op.voltage = job.vdd;
    return op;
}

/** Campaign measurement salt of a job (derived from its key). */
uint64_t
jobSalt(const ReplayJob &job)
{
    return hashCombine(job.key, 0x5a17ull);
}

const Program *
findProgram(const std::vector<GeneratedBench> &suite,
            const std::string &name)
{
    for (const auto &gb : suite)
        if (gb.program.name == name)
            return &gb.program;
    fatal("perfbench: plain corpus has no program '" + name + "'");
}

} // namespace

ReplayOutcome
replayLayers(const Setup &setup, const ReplayInput &in)
{
    const Machine &machine = *setup.machine;
    ReplayOutcome out;
    auto add = [&](const std::string &name, double value,
                   const char *unit) {
        out.metrics.push_back({name, value, unit});
    };
    const size_t njobs = in.jobs.size();
    const double per_job = 1.0 / static_cast<double>(njobs);

    // ---- microprobe: bootstrap, as the workload runs it (or would,
    // for the campaign workloads whose specs turn it off).
    Architecture boot_arch = *setup.arch;
    {
        Span s("microprobe.bootstrap");
        bootstrapArchitecture(boot_arch, machine, in.bootstrap);
        add("microprobe.bootstrap_s", s.stop(), "s");
    }

    // ---- workloads: generation of the workload's own corpus.
    // model_pipeline generates from the bootstrapped architecture,
    // the campaign workloads from the plain one.
    Architecture gen_arch = in.kind == Kind::ModelPipeline
                                ? boot_arch
                                : *setup.arch;
    std::vector<double> gen_ms = repeat(
        in.kind == Kind::ModelPipeline ? 1 : 5,
        in.kind == Kind::ModelPipeline ? 0.0 : 0.2, [&]() {
            Span s("workloads.generate");
            auto suite = generateTable2Suite(gen_arch, machine,
                                             in.suite);
            size_t n = suite.size();
            if (in.specCount > 0) {
                auto proxies = generateSpecProxies(
                    gen_arch, in.specBodySize, in.specSeed);
                n += std::min(proxies.size(),
                              static_cast<size_t>(in.specCount));
            }
            s.note("benches", static_cast<double>(n));
            return s.stop() * 1000.0 / static_cast<double>(n);
        });
    add("workloads.gen_ms_per_bench", median(gen_ms), "ms");

    // ---- sim: core throughput on three fixed programs of the
    // plain_cold corpus at this seed, in simulated measured-window
    // instructions per host second. Each timed call is a memo miss
    // on a Batch whose arena an earlier call already grew.
    {
        Architecture plain_arch = *setup.arch;
        SuiteOptions plain =
            campaignSpec(Kind::PlainCold, in.seed).suite;
        plain.categories = {BenchCategory::MemoryGroup,
                            BenchCategory::Random};
        auto corpus = generateTable2Suite(plain_arch, machine, plain);
        const std::pair<const char *, const char *> fixed[] = {
            // Every access hits L1, so the core pipeline bounds it.
            {"compute", "L1ld-0"},
            {"l2", "L2-0"},
            {"mem", "Memory-0"},
        };
        const OperatingPoint nominal = machine.operatingPoint();
        for (const auto &[label, prog_name] : fixed) {
            const Program &prog = *findProgram(corpus, prog_name);
            for (int smt : {1, 2, 4}) {
                std::vector<double> rates;
                std::string span_name =
                    cat("sim.core.", label, ".smt", smt);
                repeat(5, 0.2, [&]() {
                    Machine::Batch batch(machine, prog);
                    batch.run({1, smt == 1 ? 2 : 1}, nominal);
                    Span s(span_name.c_str());
                    RunResult r = batch.run({1, smt}, nominal);
                    double secs = s.stop();
                    rates.push_back(r.chip.instrs / secs / 1e6);
                    return secs;
                });
                add(cat("sim.core_minstr_per_s.", label, ".smt", smt),
                    median(rates), "Minstr/s");
            }
        }
    }

    // ---- sim + power: the workload's job list through decode-once
    // Batches grouped by (program, SMT mode) like the campaign
    // engine groups them. First pass: memo misses and the fidelity
    // self-test. Second pass: the same requests again, now memo
    // hits, which leaves only power composition and sensor readout.
    {
        std::vector<std::vector<size_t>> groups;
        std::map<std::pair<const Program *, int>, size_t> group_of;
        for (size_t i = 0; i < njobs; ++i) {
            auto key = std::make_pair(in.jobs[i].program,
                                      in.jobs[i].config.smt);
            auto it = group_of.find(key);
            if (it == group_of.end()) {
                group_of.emplace(key, groups.size());
                groups.push_back({i});
            } else {
                groups[it->second].push_back(i);
            }
        }
        out.jobSeconds.assign(njobs, 0.0);
        double decode_s = 0.0, compose_s = 0.0;
        size_t sims = 0;
        Span all("sim.replay_jobs");
        auto t_jobs = Clock::now();
        for (const auto &g : groups) {
            const Program &prog = *in.jobs[g.front()].program;
            Span dspan("sim.decode");
            Machine::Batch batch(machine, prog);
            double dec = dspan.stop();
            decode_s += dec;
            // The group's first job carries the decode, as in the
            // engine.
            out.jobSeconds[g.front()] += dec;
            for (size_t i : g) {
                const ReplayJob &job = in.jobs[i];
                Span jspan("sim.job");
                RunResult r = batch.run(job.config,
                                        jobPoint(machine, job),
                                        jobSalt(job));
                out.jobSeconds[i] += jspan.stop();
                Sample s = makeSample(prog.name, r);
                if (s.coreIpc != job.sample->coreIpc ||
                    s.instrGips != job.sample->instrGips)
                    ++out.fidelityFailures;
            }
            sims += batch.simCount();
            Span cspan("power.compose");
            for (size_t i : g) {
                const ReplayJob &job = in.jobs[i];
                batch.run(job.config, jobPoint(machine, job),
                          jobSalt(job));
            }
            compose_s += cspan.stop();
        }
        out.jobsWallSeconds = secondsSince(t_jobs) - compose_s;
        all.stop();
        add("sim.decode_us_per_program",
            decode_s * 1e6 / static_cast<double>(groups.size()), "us");
        add("sim.core_sims_per_job",
            static_cast<double>(sims) * per_job, "count");
        add("power.compose_us_per_job", compose_s * 1e6 * per_job,
            "us");
    }

    // ---- power: model training on the workload's training sets.
    {
        std::vector<double> train_ms = repeat(3, 0.05, [&]() {
            Span s("power.train");
            if (in.experiment) {
                const ModelExperiment &ex = *in.experiment;
                BottomUpModel::train(ex.buSet);
                TopDownModel::train(ex.microAllConfigs, "TD_Micro");
                TopDownModel::train(ex.randomAllConfigs, "TD_Random");
                TopDownModel::train(ex.spec, "TD_SPEC");
            } else {
                // A memory + random corpus has too few compute-bound
                // micro-benchmarks for the bottom-up model; the
                // campaign workloads time the three top-down fits
                // over their own samples.
                std::vector<Sample> mem, rnd, all;
                for (const auto &job : in.jobs) {
                    bool random =
                        job.program->name.rfind("random-", 0) == 0;
                    (random ? rnd : mem).push_back(*job.sample);
                    all.push_back(*job.sample);
                }
                TopDownModel::train(mem, "TD_Memory");
                TopDownModel::train(rnd, "TD_Random");
                TopDownModel::train(all, "TD_All");
            }
            return s.stop() * 1000.0;
        });
        add("power.train_ms", median(train_ms), "ms");
    }

    // ---- campaign: expand (keying, cost estimate, manifest) over
    // the workload's job list; keying alone as a child span.
    {
        std::vector<double> key_us;
        JobCostModel cost_model;
        const uint64_t fp = machine.fingerprint();
        std::vector<double> expand_us = repeat(3, 0.1, [&]() {
            std::string mdir = freshDir(in.workDir, "replay-manifest");
            Span s("campaign.expand");
            std::vector<uint64_t> keys(njobs);
            {
                Span ks("campaign.key");
                for (size_t i = 0; i < njobs; ++i) {
                    const ReplayJob &job = in.jobs[i];
                    keys[i] = campaignJobKey(*job.program, job.config,
                                             fp, in.salt, job.freqGhz,
                                             job.vdd);
                }
                key_us.push_back(ks.stop() * 1e6 * per_job);
            }
            CampaignManifest m;
            m.spec = cat("perfbench ", kindName(in.kind));
            m.fingerprint = in.seed;
            m.entries.reserve(njobs);
            double cost = 0.0;
            for (size_t i = 0; i < njobs; ++i) {
                const ReplayJob &job = in.jobs[i];
                cost += cost_model.estimate(job.config,
                                            job.program->body.size());
                m.entries.push_back({keys[i], job.config, "perfbench",
                                     job.program->name, job.freqGhz,
                                     job.vdd});
            }
            mergeSaveManifest(manifestPath(mdir), m);
            s.note("cost", cost);
            double secs = s.stop();
            for (size_t i = 0; i < njobs; ++i)
                if (keys[i] != in.jobs[i].key)
                    ++out.fidelityFailures;
            return secs * 1e6 * per_job;
        });
        add("campaign.expand_us_per_job", median(expand_us), "us");
        add("campaign.key_us_per_job", median(key_us), "us");
    }

    // ---- campaign: result-cache store into an empty directory,
    // then lookup of every stored key (all hits).
    {
        std::vector<double> lookup_us;
        std::vector<double> store_us = repeat(3, 0.1, [&]() {
            ResultCache cache(freshDir(in.workDir, "replay-cache"));
            double store_s;
            {
                Span s("campaign.cache_store");
                for (const auto &job : in.jobs)
                    cache.store(job.key, *job.sample);
                store_s = s.stop();
            }
            Span s("campaign.cache_lookup");
            Sample got;
            for (const auto &job : in.jobs)
                if (!cache.lookup(job.key, got))
                    ++out.fidelityFailures;
            lookup_us.push_back(s.stop() * 1e6 * per_job);
            return store_s * 1e6 * per_job;
        });
        add("campaign.cache_lookup_us", median(lookup_us), "us");
        add("campaign.cache_store_us", median(store_us), "us");
    }

    // ---- campaign: CSV export of the workload's samples.
    {
        std::vector<Sample> samples;
        samples.reserve(njobs);
        for (const auto &job : in.jobs)
            samples.push_back(*job.sample);
        std::string path = in.workDir + "/replay-export.csv";
        std::vector<double> export_us = repeat(5, 0.1, [&]() {
            Span s("campaign.export");
            exportSamples(path, samples, SampleFormat::Csv);
            return s.stop() * 1e6 * per_job;
        });
        add("campaign.export_us_per_sample", median(export_us), "us");
    }

    // ---- campaign: claim traffic over the workload's keys, and the
    // claimed queue draining a pool of its jobs.
    {
        ClaimDir claims(freshDir(in.workDir, "replay-claims"),
                        "perfbench");
        double acquire_s, release_s;
        {
            Span s("campaign.claim_acquire");
            for (const auto &job : in.jobs)
                if (!claims.tryAcquire(job.key))
                    ++out.fidelityFailures;
            acquire_s = s.stop();
        }
        {
            Span s("campaign.claim_release");
            for (const auto &job : in.jobs)
                claims.release(job.key);
            release_s = s.stop();
        }
        add("campaign.claim_acquire_us", acquire_s * 1e6 * per_job,
            "us");
        add("campaign.claim_release_us", release_s * 1e6 * per_job,
            "us");

        std::string qdir = freshDir(in.workDir, "replay-queue");
        ResultCache qcache(qdir);
        ClaimDir qclaims(qdir, "perfbench");
        std::vector<PoolJob> pool;
        pool.reserve(njobs);
        for (size_t i = 0; i < njobs; ++i)
            pool.push_back({in.jobs[i].key, i, 0.0});
        ClaimedQueue queue(qcache, qclaims, std::move(pool));
        double next_s = 0.0;
        size_t pulls = 0;
        Span s("campaign.queue_drain");
        for (;;) {
            size_t i = 0;
            auto t0 = Clock::now();
            ClaimedQueue::Pull pull = queue.next(i);
            next_s += secondsSince(t0);
            ++pulls;
            if (pull != ClaimedQueue::Pull::Job)
                break;
            qcache.store(in.jobs[i].key, *in.jobs[i].sample);
            queue.complete(i);
        }
        s.note("pulls", static_cast<double>(pulls));
        s.stop();
        add("campaign.queue_next_us",
            next_s * 1e6 / static_cast<double>(pulls), "us");
    }

    for (const char *d : {"replay-manifest", "replay-cache",
                          "replay-claims", "replay-queue"})
        fs::remove_all(in.workDir + "/" + d);
    fs::remove(in.workDir + "/replay-export.csv");
    return out;
}

} // namespace perfbench
