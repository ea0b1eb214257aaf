/**
 * @file
 * Executable program representation.
 *
 * A Program is the "binary" the simulated machine runs: the body of
 * one endless loop (the common skeleton of all the paper's
 * micro-benchmarks, Table 2) plus the memory streams its memory
 * instructions walk. MicroProbe's synthesizer produces Programs; the
 * simulator and the C-code emitter consume them.
 */

#ifndef SIM_PROGRAM_HH
#define SIM_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/isa.hh"

namespace mprobe
{

/**
 * A rotating set of cache-line addresses accessed round-robin by the
 * memory instructions bound to it. The analytical cache model
 * constructs the line sets so that the steady-state hit level of
 * every access is known statically (paper Section 2.1.3).
 */
struct MemStream
{
    /** Byte addresses of line starts, visited round-robin. */
    std::vector<uint64_t> lines;
};

/** One static instruction of the loop body. */
struct ProgInst
{
    /** Opcode index into the Program's ISA. */
    int op = 0;
    /**
     * Register dependency distance: this instruction reads the
     * result of the instruction depDist slots earlier in program
     * order (0 = no register dependency). Wraps across loop
     * iterations.
     */
    int depDist = 0;
    /** Memory stream id for memory operations, -1 otherwise. */
    int stream = -1;
    /**
     * Data activity factor in [0,1] derived from the register /
     * immediate initialization policy: 0 for all-zero data, ~0.5 for
     * constant patterns, ~1 for random data. Consumed by the (hidden)
     * energy model to reproduce data-dependent switching power.
     */
    float toggle = 1.0f;
    /** Taken probability for conditional branches. */
    float takenRate = 1.0f;
};

/**
 * Structure-of-arrays form of a Program, decoded once per program
 * by ExecModel::decode and consumed by simulateCoreDecoded.
 * A heterogeneous SMT co-run appends one program per hardware
 * thread (ExecModel::decodeAppend): the per-slot and stream arrays
 * hold the programs back to back, and their slot and stream
 * indices refer to the whole decode.
 *
 * Everything the simulator's inner loop derives per dispatched
 * instruction — the ExecInfo lookup, the dependency-source modulo,
 * the InstrDef branch test, the data-activity energy product — is
 * resolved here ahead of time, so a batched evaluation of many
 * CMP/SMT/frequency points over one program pays the decode exactly
 * once. The decoded form also bakes the two CoreSimOptions knobs
 * that feed per-instruction constants (mispredict penalty and
 * transition gate); the simulator cross-checks them so a decoded
 * program can never silently run under drifted options.
 */
struct DecodedProgram
{
    /** Program name (panic messages, sensor seeds). */
    std::string name;
    /** Static loop-body length (all programs together). */
    size_t bodySize = 0;
    /** First body slot of each program: {0} for a single program,
     * one entry per hardware thread for a co-run. */
    std::vector<uint32_t> programStart;

    /** @name Per body slot (all vectors bodySize long) */
    /**@{*/
    /** Resolved dependency source slot, -1 when independent. */
    std::vector<int32_t> depSrc;
    /** Memory stream id, -1 for non-memory slots. */
    std::vector<int32_t> stream;
    /** Lowest allowed execution unit. */
    std::vector<int8_t> unitFirst;
    /** Alternate allowed unit (dual-issue integers), else -1. */
    std::vector<int8_t> unitSecond;
    /** Pipes occupied on the chosen unit. */
    std::vector<int8_t> pipesNeeded;
    /** Extra fixed-point micro-ops issued alongside. */
    std::vector<int8_t> extraFxuOps;
    /** kMem / kStore / kVsuSteer / kCondBranch bits. */
    std::vector<uint8_t> flags;
    /** Base energy at or above the transition gate. */
    std::vector<uint8_t> highEnergy;
    /** Pipe occupancy per op in cycles. */
    std::vector<double> issueInterval;
    /** Result latency in cycles (memory ops override per level). */
    std::vector<double> latency;
    /** energyNj scaled by the slot's data-activity factor. */
    std::vector<double> actEnergyNj;
    /** Mispredict-debt increment of a conditional branch. */
    std::vector<double> mispredictInc;
    /**@}*/

    /** @name Flattened memory streams */
    /**@{*/
    std::vector<uint64_t> streamLines;
    std::vector<uint32_t> streamOffset;
    std::vector<uint32_t> streamLen;
    /**@}*/

    /** @name Options baked into the per-slot constants */
    /**@{*/
    int mispredictPenalty = 0;
    double transitionGateNj = 0.0;
    /**@}*/

    static constexpr uint8_t kMem = 1;
    static constexpr uint8_t kStore = 2;
    static constexpr uint8_t kVsuSteer = 4;
    static constexpr uint8_t kCondBranch = 8;
};

/** A complete micro-benchmark: an endless loop plus its data. */
struct Program
{
    /** ISA the opcode indices refer to. */
    const Isa *isa = nullptr;
    /** Loop body in program order (the terminating branch included). */
    std::vector<ProgInst> body;
    /** Memory streams referenced by body[].stream. */
    std::vector<MemStream> streams;
    /** Human-readable benchmark name. */
    std::string name;

    /** Number of static instructions in the loop body. */
    size_t size() const { return body.size(); }

    /** Count body instructions satisfying a predicate on InstrDef. */
    template <typename Pred>
    size_t
    countIf(Pred pred) const
    {
        size_t n = 0;
        for (const auto &pi : body)
            if (pred(isa->at(pi.op)))
                ++n;
        return n;
    }
};

} // namespace mprobe

#endif // SIM_PROGRAM_HH
