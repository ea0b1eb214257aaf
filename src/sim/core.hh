/**
 * @file
 * Cycle-level SMT core model.
 *
 * An in-order, multi-issue core: up to dispatchWidth instructions
 * issue per cycle across the active hardware threads, constrained by
 * register dependencies (scoreboard), functional-unit pipe
 * availability (fractional issue intervals via a token scheme), and
 * the cache hierarchy for memory operations. All SMT threads of the
 * paper's deployments run the same micro-benchmark, one copy pinned
 * per hardware thread, so the core executes nThreads copies of one
 * Program against a shared cache hierarchy; a heterogeneous co-run
 * gives each thread its own Program.
 *
 * There is one cycle loop, simulateCoreDecoded, over the decoded
 * form of the programs (DecodedProgram). simulateCore and
 * simulateCoreHetero decode and call it; Machine::Batch decodes a
 * program once and calls it per distinct core simulation.
 *
 * Because every micro-benchmark is an endless loop, the core reaches
 * a periodic steady state; the simulator warms up for a few
 * iterations and then measures a window of whole iterations, which is
 * what a 10-second wall-clock measurement of the real machine
 * observes (Section 3).
 */

#ifndef SIM_CORE_HH
#define SIM_CORE_HH

#include <memory>

#include "sim/arena.hh"
#include "sim/cache.hh"
#include "sim/counters.hh"
#include "sim/exec_model.hh"
#include "sim/program.hh"

namespace mprobe
{

/** Steady-state result of running a program on one core. */
struct CoreResult
{
    /** Counter deltas over the measurement window (all threads). */
    RunCounters window;
    /** Loop iterations measured per thread. */
    int iterations = 0;
    /** Hardware threads that ran. */
    int threads = 0;
};

/** Tunable knobs of a core simulation. */
struct CoreSimOptions
{
    /** Main-memory latency in cycles (contention-adjusted). */
    int memLatency = ExecModel::memLatencyBase;
    /** Cache geometries (L1, L2, L3); empty selects the default
     * POWER7-like hierarchy. */
    std::vector<CacheGeometry> cacheGeoms;
    /** Warm-up loop iterations per thread before measuring. */
    int warmupIters = 3;
    /** Measured loop iterations per thread. */
    int measureIters = 6;
    /** Enable the next-line hardware prefetcher. */
    bool prefetch = true;
    /** Mispredict penalty in cycles for conditional branches. */
    int mispredictPenalty = 12;
    /** Per-cycle unit-overlap energy coefficient (nJ), hidden. */
    double overlapNjPerCycle = 0.30;
    /** Per-instruction unit-transition energy (nJ), hidden: the
     * bypass network toggles when consecutive instructions of a
     * thread execute on different units. Only *high-energy* pairs
     * (both above transitionGateNj) pay it — wide operands through
     * long cross-unit bypass wires — which is why instruction
     * order matters most for stressmark-class code built from the
     * hottest instructions (Section 6's 17% spread) while ordinary
     * mixed workloads barely expose it. */
    double transitionNjPerInstr = 0.85;
    /** Both instructions of a transition must exceed this energy
     * for the transition cost to apply (hidden). */
    double transitionGateNj = 1.60;
};

/**
 * Simulate @p threads copies of @p prog on one core (decode, then
 * simulateCoreDecoded).
 *
 * @param exec ground-truth timing/energy tables for prog's ISA
 * @param prog the micro-benchmark loop
 * @param threads SMT ways running copies (1, 2 or 4)
 * @param opts simulation knobs
 */
CoreResult simulateCore(const ExecModel &exec, const Program &prog,
                        int threads,
                        const CoreSimOptions &opts = CoreSimOptions());

/**
 * Simulate a *heterogeneous* SMT deployment: one (possibly
 * different) program per hardware thread — the multi-threaded
 * stressmark exploration the paper leaves as future work (Section
 * 6, after Ganesan et al.'s MAMPO). All programs must share one
 * ISA; 1, 2 or 4 threads. Decodes the programs back to back and
 * calls simulateCoreDecoded.
 */
CoreResult simulateCoreHetero(
    const ExecModel &exec,
    const std::vector<const Program *> &thread_progs,
    const CoreSimOptions &opts = CoreSimOptions());

/**
 * Reusable per-thread scratch state of the decoded simulator: the
 * bump arena behind all per-simulation arrays and a retained cache
 * hierarchy that is reset (not reconstructed) between simulations
 * sharing one geometry. One SimScratch must not be used from two
 * threads at once; campaign workers and Machine::run keep one per
 * thread.
 */
class SimScratch
{
  public:
    /**
     * The retained hierarchy for (@p geoms, @p prefetch), reset
     * and ready for a fresh simulation. A geometry change rebuilds
     * it; the steady state of a campaign (one machine, one
     * geometry) never does.
     */
    CacheHierarchy &cache(const std::vector<CacheGeometry> &geoms,
                          bool prefetch);

    /** Arena for the per-simulation arrays. */
    SimArena arena;

  private:
    std::unique_ptr<CacheHierarchy> hier;
    std::vector<CacheGeometry> hierGeoms;
    bool hierPrefetch = true;
};

/**
 * The core simulation loop: run a decoded program on @p threads
 * hardware threads of one core. A decode of one program runs a copy
 * on every thread; a decode of @p threads programs (a co-run built
 * with ExecModel::decodeAppend) runs the i-th on thread i. The inner
 * loop touches no ExecModel, Isa or heap state. @p opts must carry
 * the same mispredict penalty and transition gate the decode baked
 * in (checked).
 */
CoreResult simulateCoreDecoded(const DecodedProgram &dec,
                               int threads,
                               const CoreSimOptions &opts,
                               SimScratch &scratch);

} // namespace mprobe

#endif // SIM_CORE_HH
