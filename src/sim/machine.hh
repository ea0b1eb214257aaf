/**
 * @file
 * Chip-level machine model and power sensor.
 *
 * Plays the role of the paper's measurement platform (Section 3): an
 * 8-core, 4-way-SMT POWER7-like system whose processor power is read
 * through a TPMD-like sensor with milliwatt granularity. Deployment
 * follows the paper exactly: one copy of the micro-benchmark per
 * available hardware thread, pinned, run to a steady state.
 *
 * The chip power composes per-core dynamic energy (from the cycle
 * level core model) with hidden static terms: workload-independent
 * idle power, uncore power when active, a *convex* CMP term (the
 * linear-CMP assumption of the estimated models is an approximation,
 * mirroring the paper's Section 4.1.1 discussion), and a per-core SMT
 * enable effect.
 */

#ifndef SIM_MACHINE_HH
#define SIM_MACHINE_HH

#include <string>

#include "dvfs/op_point.hh"
#include "sim/core.hh"

namespace mprobe
{

/** A CMP/SMT configuration, e.g. "4-2" = 4 cores, 2-way SMT. */
struct ChipConfig
{
    int cores = 8;
    int smt = 1;

    /** All 24 configurations studied in the paper. */
    static std::vector<ChipConfig> all();

    /** "cores-smt" label used across the paper's figures. */
    std::string label() const;

    /** Total hardware threads. */
    int threads() const { return cores * smt; }
};

/** Hidden chip-level ground-truth parameters. */
struct GroundTruthParams
{
    double clockGhz = 3.0;
    /** Workload-independent power (chip idle). */
    double idleWatts = 55.0;
    /** Constant uncore power once anything runs. */
    double uncoreActiveWatts = 6.0;
    /** CMP term: cmpLin*n + cmpCurve*n^cmpPow (convex in n). */
    double cmpLin = 0.90;
    double cmpCurve = 0.28;
    double cmpPow = 1.55;
    /** Extra power per core with SMT enabled ... */
    double smtEffectWatts = 0.50;
    /** ... nearly independent of 2-way vs 4-way (Section 4.1). */
    double smt4ExtraWatts = 0.05;
    /** Sensor noise (fraction of reading). */
    double sensorNoiseFrac = 0.0015;
    /** Shared-memory-bandwidth contention strength. */
    double memContentionK = 6.0;
    /**
     * @name Hidden V/f operating-point curve (DVFS ground truth)
     * The supply voltage at frequency f is
     *     V(f) = max(vddFloor, vddNominal + vddSlopePerGhz*(f - clockGhz)),
     * i.e. linear in f with a floor below which the silicon cannot
     * be undervolted further — the shape Papadimitriou et al.
     * characterize on real server parts. Dynamic power scales with
     * V^2*f, static power with V.
     */
    /**@{*/
    double vddNominal = kNominalVdd;
    double vddSlopePerGhz = kNominalVddSlopePerGhz;
    double vddFloor = kNominalVddFloor;
    /**@}*/
    /**
     * @name Hidden workload-dependent Vmin margin model
     * The minimum safe supply voltage at an operating point is
     *     Vmin(f, ipc) = vminBase + vminPerGhz*f + vminPerIpc*ipc,
     * growing with frequency (timing paths tighten) and with core
     * activity (voltage droop under load) — the workload-dependent
     * margin shape Papadimitriou et al. measure on real server
     * parts. A run at op.voltage < Vmin is marked unreliable
     * (RunResult::reliable / Sample::reliable) instead of returning
     * clean numbers; exactly at Vmin it is still reliable. The
     * defaults keep every on-curve point reliable: the curve's
     * floor (0.85 V) sits above Vmin for any reachable IPC.
     */
    /**@{*/
    double vminBase = 0.60;
    double vminPerGhz = 0.04;
    double vminPerIpc = 0.02;
    /**@}*/
};

/**
 * One point of a batched evaluation: a CMP/SMT configuration, an
 * operating point and the per-measurement salt. Campaigns derive
 * the salt from each job's content hash, so a batch carries it per
 * point rather than sharing one.
 */
struct RunRequest
{
    ChipConfig config;
    OperatingPoint op;
    uint64_t salt = 0;
};

/** Everything one deployment/measurement produces. */
struct RunResult
{
    ChipConfig config;
    /** Chip-wide counter deltas over the measurement window. */
    RunCounters chip;
    /** Window duration in seconds. */
    double seconds = 0.0;
    /** Sensor reading: average chip power in watts (noisy,
     * quantized to milliwatts). */
    double sensorWatts = 0.0;
    /** Per-core IPC over the window. */
    double coreIpc = 0.0;
    /** Operating point this run executed at (the machine's nominal
     * clock unless the caller swept it). */
    double freqGhz = 0.0;
    double voltage = 0.0;
    /**
     * False when the run's supply voltage sat below the workload's
     * hidden Vmin (see GroundTruthParams): the numbers are what a
     * margin-violating machine would report, not trustworthy
     * measurements. On-curve and at-Vmin runs are reliable.
     */
    bool reliable = true;
    /** Whether the operating point's voltage deviates from the
     * machine's V/f curve at its frequency (an undervolt/overvolt
     * experiment rather than a plain DVFS point). */
    bool offCurve = false;

    /**
     * @name Ground-truth oracle (tests and EXPERIMENTS.md only)
     * Never read by MicroProbe or by the power models.
     */
    /**@{*/
    double gtDynamicWatts = 0.0;
    double gtSmtWatts = 0.0;
    double gtCmpWatts = 0.0;
    double gtUncoreWatts = 0.0;
    double gtIdleWatts = 0.0;
    /** The workload's minimum safe voltage at this run's operating
     * point (the boundary `reliable` was judged against). */
    double gtVminVolts = 0.0;
    /**@}*/

    /** Chip-wide event rate (events/second) for a counter value. */
    double
    rate(double counter_value) const
    {
        return seconds > 0 ? counter_value / seconds : 0.0;
    }
};

/**
 * The simulated machine: deploy a micro-benchmark on a CMP/SMT
 * configuration and measure counters and power.
 *
 * Thread safety: run() and idleWatts() are const and touch only
 * local state — concurrent calls on one Machine from campaign
 * worker threads are safe as long as nobody mutates simOptions()
 * concurrently. Results depend only on (program, config, salt), so
 * a parallel campaign reproduces a serial one exactly.
 */
class Machine
{
  public:
    /** Build a machine executing programs over @p isa. */
    explicit Machine(const Isa &isa,
                     const GroundTruthParams &params =
                         GroundTruthParams());

    /**
     * Build a machine whose cache geometry and clock follow a
     * micro-architecture definition (for retargeting the framework
     * to e.g. the POWER7+-like chip with its larger L3).
     */
    Machine(const Isa &isa, const std::vector<CacheGeometry> &geoms,
            double clock_ghz,
            const GroundTruthParams &params = GroundTruthParams());

    /**
     * Deploy one copy of @p prog per hardware thread of @p cfg, warm
     * up, and measure a steady-state window at the nominal
     * operating point.
     *
     * @param salt extra seed material for the sensor noise so
     *             repeated measurements differ slightly, as on real
     *             hardware.
     */
    RunResult run(const Program &prog, const ChipConfig &cfg,
                  uint64_t salt = 0) const;

    /**
     * Deploy at an explicit DVFS operating point. Core and cache
     * latencies are clock-domain cycles and keep their cycle
     * counts; main-memory latency is fixed in nanoseconds, so its
     * cycle count scales with frequency — which is what makes
     * memory-bound workloads speed up sublinearly with f. Dynamic
     * power scales as V^2*f (energy per op scales with V^2, ops per
     * second with f), every static term as V. At the nominal point
     * this is bit-identical to the two-argument overload.
     */
    RunResult run(const Program &prog, const ChipConfig &cfg,
                  const OperatingPoint &op, uint64_t salt = 0) const;

    /**
     * Decode-once batched evaluator: decodes one program on
     * construction and serves run() calls for any number of
     * CMP/SMT x operating-point requests over the decoded form,
     * memoizing core simulations that only differ in core count
     * (the core-level simulation depends on the SMT mode and the
     * effective memory latency alone — core count enters through
     * counter scaling and the contention latency). Machine::run is
     * a Batch of one. Not thread-safe; one Batch per worker thread.
     */
    class Batch
    {
      public:
        Batch() = default; ///< unpointed: point() before run()
        Batch(const Machine &machine, const Program &prog);

        /** Serve (@p machine, @p prog) from now on: decode again,
         * drop the memo, keep the scratch (and its cache arrays). */
        void point(const Machine &machine, const Program &prog);

        /** Whether the batch currently serves (@p machine, @p prog). */
        bool
        pointsAt(const Machine &machine, const Program &prog) const
        {
            return m == &machine && p == &prog;
        }

        /** Evaluate one request over the decoded program. */
        RunResult run(const ChipConfig &cfg,
                      const OperatingPoint &op, uint64_t salt = 0);

        /** Distinct core simulations since the last point() (tests). */
        size_t simCount() const { return memo.size(); }

      private:
        const Machine *m = nullptr;
        const Program *p = nullptr;
        DecodedProgram decoded;
        SimScratch scratch;
        struct MemoEntry
        {
            int smt;
            int latMem;
            CoreResult core;
        };
        std::vector<MemoEntry> memo;

        const CoreResult &simAt(int smt, int lat_mem);
    };

    /**
     * Evaluate every request of @p points against @p prog through
     * one Batch, in order. points[i] yields exactly what
     * run(prog, points[i].config, points[i].op, points[i].salt)
     * yields, decode and core simulations shared across points.
     */
    std::vector<RunResult>
    runBatch(const Program &prog,
             const std::vector<RunRequest> &points) const;

    /** Sensor reading with no workload: workload-independent power. */
    double idleWatts(const ChipConfig &cfg, uint64_t salt = 0) const;

    /** Idle power at an explicit operating point (scales with V). */
    double idleWatts(const ChipConfig &cfg, const OperatingPoint &op,
                     uint64_t salt = 0) const;

    /** Supply voltage of the hidden V/f curve at @p freq_ghz. */
    double voltageAt(double freq_ghz) const;

    /**
     * The operating point at @p freq_ghz (voltage from the V/f
     * curve); non-positive frequencies select the nominal clock.
     */
    OperatingPoint operatingPoint(double freq_ghz = 0.0) const;

    /** Nominal core clock in GHz (public knowledge, as on real
     * hardware; not an oracle). */
    double clockGhz() const { return params.clockGhz; }

    /** Simulation knobs (iterations, prefetcher, ...). */
    CoreSimOptions &simOptions() { return simOpts; }
    const CoreSimOptions &simOptions() const { return simOpts; }

    /** Ground-truth parameters (oracle; tests only). */
    const GroundTruthParams &groundTruth() const { return params; }

    /**
     * Stable identity of everything that determines measurement
     * results on this machine (ISA, ground-truth parameters,
     * simulation knobs). Campaign result-cache keys incorporate it
     * so cached samples are never replayed on a different machine.
     */
    uint64_t fingerprint() const;

    const Isa &isa() const { return *isaPtr; }

  private:
    const Isa *isaPtr;
    ExecModel exec;
    GroundTruthParams params;
    CoreSimOptions simOpts;

    double staticCmpWatts(int cores) const;
    double sensorize(double watts, uint64_t seed) const;
    /** The hidden workload-dependent minimum safe voltage at
     * @p freq_ghz for a workload running at @p core_ipc. */
    double vminAt(double freq_ghz, double core_ipc) const;

    /** Power composition and sensor readout from a finished core
     * simulation (the tail of Batch::run). */
    RunResult finishRun(const Program &prog, const ChipConfig &cfg,
                        const OperatingPoint &op, uint64_t salt,
                        const CoreResult &core) const;
};

} // namespace mprobe

#endif // SIM_MACHINE_HH
