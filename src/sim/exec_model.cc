/**
 * @file
 * Ground-truth table construction.
 */

#include "sim/exec_model.hh"

#include <map>
#include <string>

#include "util/logging.hh"

namespace mprobe
{

const char *
unitName(Unit u)
{
    switch (u) {
      case Unit::FXU: return "FXU";
      case Unit::LSU: return "LSU";
      case Unit::VSU: return "VSU";
      case Unit::BRU: return "BRU";
      case Unit::CRU: return "CRU";
      default: panic("unitName: bad unit");
    }
}

int
ExecModel::pipes(Unit u)
{
    switch (u) {
      case Unit::FXU: return 2;
      case Unit::LSU: return 2;
      case Unit::VSU: return 4;
      case Unit::BRU: return 1;
      case Unit::CRU: return 1;
      default: panic("ExecModel::pipes: bad unit");
    }
}

namespace
{

constexpr uint32_t
mask(Unit u)
{
    return 1u << static_cast<int>(u);
}

/**
 * Energy of the reference instruction (addic) in nanojoules; all
 * per-instruction energies are expressed as multiples of this.
 */
constexpr double kEpiUnitNj = 0.55;

/**
 * Curated per-mnemonic energies (multiples of kEpiUnitNj) for the
 * instructions named in the paper's Table 3 and Section 6, chosen so
 * the measured global-EPI ratios land near the published ones.
 */
const std::map<std::string, double> &
namedEnergies()
{
    // Values calibrated so the *measured* global EPI ratios (which
    // include cache, overlap and static-per-rate contributions on
    // top of these raw energies) land on the paper's Table-3
    // normalized values.
    static const std::map<std::string, double> table = {
        // FXU category
        {"mulldo", 3.46}, {"subf", 2.21}, {"addic", 1.00},
        // LSU category (loads)
        {"lxvw4x", 4.11}, {"lvewx", 3.99}, {"lbz", 2.84},
        // VSU category
        {"xvnmsubmdp", 3.35}, {"xvmaddadp", 3.28},
        // Simple integer (FXU or LSU)
        {"add", 2.34}, {"nor", 2.09}, {"and", 1.36},
        // Integer memory, LSU + 1 FXU
        {"ldux", 7.41}, {"lwax", 7.23}, {"lfsu", 5.89},
        // Integer memory, LSU + 2 FXU
        {"lhaux", 8.11}, {"lwaux", 7.71}, {"lhau", 6.86},
        // Vector/float stores, LSU + VSU
        {"stxvw4x", 11.29}, {"stxsdx", 9.23}, {"stfd", 7.13},
        // Vector/float stores with update, LSU + VSU + FXU
        {"stfsux", 14.14}, {"stfdux", 13.23}, {"stfdu", 11.34},
        // Section 6 expert picks (tracking the calibrated peaks)
        {"mullw", 3.20}, {"lxvd2x", 4.05}, {"xvmaddmdp", 3.18},
        // Remaining multiply/bit-count family
        {"mulld", 2.52}, {"mullwo", 2.45}, {"mulhw", 2.30},
        {"mulhd", 2.42}, {"mulhwu", 2.28}, {"mulhdu", 2.40},
        {"mulli", 2.20}, {"popcntw", 1.45}, {"popcntd", 1.50},
        {"cntlzw", 1.30}, {"cntlzd", 1.35},
        // Vector/float loads (lxvw4x stays the category peak)
        {"lvx", 3.85}, {"lvxl", 3.80}, {"lvebx", 3.20},
        {"lvehx", 3.30}, {"lxvdsx", 3.50}, {"lxsdx", 3.40},
        {"lfd", 3.10}, {"lfs", 2.90}, {"lfdx", 3.15},
        {"lfsx", 3.00},
        // Plain fixed-point loads (keeps same-IPC spreads within
        // the paper's <=78% envelope)
        {"lhz", 2.60}, {"lwz", 2.70}, {"ld", 2.90},
        {"lbzx", 2.55}, {"lhzx", 2.65}, {"lwzx", 2.75},
        {"ldx", 2.95},
        // Update/algebraic loads not in Table 3
        {"lbzu", 4.40}, {"lhzu", 4.50}, {"lwzu", 4.70},
        {"ldu", 5.00}, {"lbzux", 4.60}, {"lhzux", 4.70},
        {"lwzux", 4.90}, {"lha", 4.30}, {"lwa", 4.60},
        {"lhax", 4.50},
        // Float update loads not in Table 3
        {"lfdu", 6.10}, {"lfsux", 6.30}, {"lfdux", 6.50},
        // Vector/float stores not in Table 3
        {"stvx", 9.80}, {"stvxl", 9.70}, {"stvebx", 6.20},
        {"stvehx", 6.40}, {"stvewx", 6.60}, {"stxvd2x", 11.00},
        {"stfs", 6.80}, {"stfsu", 10.90}, {"stfsx", 6.90},
        {"stfdx", 7.20}, {"stfiwx", 6.90},
        // Fixed-point store update forms
        {"stbu", 4.60}, {"sthu", 4.70}, {"stwu", 4.90},
        {"stdu", 5.10}, {"stbux", 4.80}, {"sthux", 4.90},
        {"stwux", 5.10}, {"stdux", 5.30},
        // Scalar FP / VSX scalar compute (below xvnmsubmdp)
        {"fadd", 1.85}, {"fsub", 1.84}, {"fmul", 2.05},
        {"fmadd", 2.28}, {"fmsub", 2.26}, {"fnmadd", 2.30},
        {"fnmsub", 2.31}, {"fadds", 1.75}, {"fsubs", 1.74},
        {"fmuls", 1.95}, {"xsadddp", 1.88}, {"xssubdp", 1.87},
        {"xsmuldp", 2.08}, {"xsmaddadp", 2.27}, {"xsmsubadp", 2.25},
        {"fabs", 1.66}, {"fneg", 1.66}, {"fmr", 1.62},
        {"fcfid", 1.90}, {"fctid", 1.90},
        {"xsredp", 1.80}, {"xvredp", 2.20}, {"fres", 1.60},
        {"frsqrte", 1.85}, {"fcmpu", 1.58}, {"dcmpu", 1.70},
        {"xstsqrtdp", 1.55}, {"srawi", 1.45}, {"sradi", 1.50},
        // VSX vector compute (xvnmsubmdp stays the category peak)
        {"xvadddp", 2.10}, {"xvsubdp", 2.08}, {"xvmuldp", 2.18},
        {"xvmsubadp", 2.26}, {"xvnmsubadp", 2.30},
        {"xvaddsp", 1.95}, {"xvsubsp", 1.93}, {"xvmulsp", 2.00},
        {"xvmaddasp", 2.12}, {"xvnmsubasp", 2.15},
        // VMX compute: high IPC, so per-op energy is modest —
        // keeps IPC*EPI below the VSX FMA family.
        {"vand", 1.05}, {"vor", 1.08}, {"vxor", 1.10},
        {"vnor", 1.12}, {"vaddubm", 1.15}, {"vadduhm", 1.15},
        {"vadduwm", 1.16}, {"vsububm", 1.14}, {"vsl", 1.10},
        {"vsr", 1.10}, {"vsplth", 1.00}, {"vspltw", 1.00},
        {"vperm", 1.16}, {"vmuloub", 1.12}, {"vmulouh", 1.12},
        {"vmsumubm", 1.12},
    };
    return table;
}

/** Deterministic per-name jitter in [-spread, +spread]. */
double
nameJitter(const std::string &name, double spread)
{
    uint64_t h = 1469598103934665603ull;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    double u = static_cast<double>(h >> 11) * 0x1.0p-53; // [0,1)
    return (2.0 * u - 1.0) * spread;
}

/**
 * Simple integer instructions that the LSU pipes can also execute
 * (the paper's "FXU or LSU" category). Carry/record/compare forms
 * need the FXU's XER/CR logic and stay FXU-only.
 */
bool
dualIssueInt(const InstrDef &d)
{
    if (d.cls != InstrClass::IntSimple)
        return false;
    static const char *const fxu_only[] = {
        "addic", "addc", "adde", "subf", "subfc", "subfe",
        "subfic", "add.", "andi.", "cmpw", "cmpd", "cmpwi",
        "cmpdi", "cmplw", "cmpld", "isel",
    };
    for (const char *n : fxu_only)
        if (d.name == n)
            return false;
    return true;
}

bool
isDivide(const std::string &name)
{
    return name.rfind("div", 0) == 0 ||
           name.find("div") != std::string::npos;
}

bool
isSqrtLike(const std::string &name)
{
    // Full square roots and divides are unpipelined; test/estimate
    // forms (xstsqrtdp, fres, frsqrte, xvredp, xsredp) are cheap.
    if (name.find("tsqrt") != std::string::npos)
        return false;
    return name.find("sqrt") != std::string::npos &&
           name.find("rsqrte") == std::string::npos;
}

ExecInfo
buildInfo(const InstrDef &d)
{
    ExecInfo e;
    switch (d.cls) {
      case InstrClass::IntSimple:
        e.allowedUnits = mask(Unit::FXU);
        if (dualIssueInt(d))
            e.allowedUnits |= mask(Unit::LSU);
        e.latency = 1;
        // Record/carry/compare forms forward through the CR/XER a
        // cycle later.
        if (!d.name.empty() && (d.name.back() == '.' ||
                                d.name.rfind("cmp", 0) == 0 ||
                                d.name == "isel"))
            e.latency = 2;
        e.issueInterval = 1.0;
        e.energyNj = 1.50;
        e.toggleSens = 0.35;
        break;

      case InstrClass::IntComplex:
        e.allowedUnits = mask(Unit::FXU);
        if (isDivide(d.name)) {
            e.latency = 38;
            e.issueInterval = 36.0;
            e.energyNj = 3.60;
        } else if (d.name.rfind("mul", 0) == 0) {
            e.latency = 4;
            e.issueInterval = 10.0 / 7.0; // sustained IPC ~1.4
            e.energyNj = 2.40;
        } else {
            // popcount / count-leading-zeros style
            e.latency = 2;
            e.issueInterval = 1.0;
            e.energyNj = 1.60;
        }
        e.toggleSens = 0.35;
        break;

      case InstrClass::Load:
        e.allowedUnits = mask(Unit::LSU);
        e.isMem = true;
        e.latency = ExecModel::loadToUse[0];
        e.issueInterval = 1.19; // sustained IPC ~1.68 on 2 pipes
        e.energyNj = 2.10;
        if (d.update || d.algebraic) {
            e.issueInterval = 2.0; // sustained IPC ~1.0
            e.extraFxuOps = (d.update ? 1 : 0) +
                            (d.algebraic ? 1 : 0);
        }
        e.energyNj += 1.40 * (d.update ? 1 : 0) +
                      1.30 * (d.algebraic ? 1 : 0);
        if (d.vectorData || d.floatData || d.decimalData)
            e.energyNj += 0.45;
        e.toggleSens = 0.25;
        break;

      case InstrClass::Store:
        e.allowedUnits = mask(Unit::LSU);
        e.isMem = true;
        e.isStore = true;
        e.latency = 1;
        if (d.movesVsuData()) {
            e.issueInterval = 25.0 / 6.0; // sustained IPC ~0.48
            e.usesVsuSteering = true;
            e.energyNj = 6.00;
        } else {
            e.issueInterval = 2.0; // sustained IPC ~1.0
            e.energyNj = 3.00;
        }
        if (d.update) {
            e.extraFxuOps = 1;
            e.energyNj += 1.20;
        }
        e.toggleSens = 0.25;
        break;

      case InstrClass::Float:
      case InstrClass::Vector:
        e.allowedUnits = mask(Unit::VSU);
        e.toggleSens = 0.40;
        if (isDivide(d.name)) {
            e.latency = 28;
            e.issueInterval = 27.0;
            e.pipesNeeded = 2;
            e.energyNj = 7.00;
        } else if (isSqrtLike(d.name)) {
            e.latency = 32;
            e.issueInterval = 31.0;
            e.pipesNeeded = 2;
            e.energyNj = 7.40;
        } else if (d.cls == InstrClass::Float) {
            // Scalar FP: two VSU pipes per op, fully pipelined.
            e.latency = 6;
            e.issueInterval = 1.0;
            e.pipesNeeded = 2;
            e.energyNj = d.srcs >= 3 ? 2.30 : 1.90;
        } else if (d.width == 128 &&
                   (d.name.rfind("xv", 0) == 0)) {
            // VSX double/single vector compute.
            e.latency = 6;
            e.issueInterval = 1.0;
            e.pipesNeeded = 2;
            e.energyNj = d.srcs >= 3 ? 2.30 : 2.05;
        } else {
            // VMX integer / logical / permute: one pipe, short.
            e.latency = 2;
            e.issueInterval = 1.0;
            e.pipesNeeded = 1;
            e.energyNj = d.srcs >= 3 ? 1.70 : 1.40;
        }
        break;

      case InstrClass::Decimal:
        e.allowedUnits = mask(Unit::VSU);
        e.latency = 15;
        e.issueInterval = 13.0;
        e.pipesNeeded = 1;
        e.energyNj = 3.20;
        e.toggleSens = 0.40;
        break;

      case InstrClass::Branch:
        e.allowedUnits = mask(Unit::BRU);
        e.latency = 1;
        e.issueInterval = 1.0;
        e.energyNj = 0.90;
        e.toggleSens = 0.10;
        break;

      case InstrClass::CondReg:
        e.allowedUnits = mask(Unit::CRU);
        e.latency = 2;
        e.issueInterval = 1.0;
        e.energyNj = 0.70;
        e.toggleSens = 0.10;
        break;

      case InstrClass::System:
        if (d.prefetch) {
            e.allowedUnits = mask(Unit::LSU);
            e.isMem = true;
            e.latency = 1;
            e.issueInterval = 1.0;
            e.energyNj = 1.50;
        } else if (d.name == "sync" || d.name == "lwsync" ||
                   d.name == "eieio" || d.name == "isync") {
            e.allowedUnits = mask(Unit::FXU);
            e.latency = 24;
            e.issueInterval = 20.0;
            e.energyNj = 1.80;
        } else if (d.name == "dcbz" || d.name == "icbi") {
            e.allowedUnits = mask(Unit::LSU);
            e.isMem = true;
            e.isStore = (d.name == "dcbz");
            e.latency = 2;
            e.issueInterval = 2.0;
            e.energyNj = 2.20;
        } else if (d.privileged) {
            e.allowedUnits = mask(Unit::FXU);
            e.latency = 30;
            e.issueInterval = 30.0;
            e.energyNj = 2.50;
        } else {
            // SPR moves.
            e.allowedUnits = mask(Unit::FXU);
            e.latency = 3;
            e.issueInterval = 1.0;
            e.energyNj = 1.10;
        }
        e.toggleSens = 0.15;
        break;
    }

    // Width scaling of the default energies: wider datapaths toggle
    // more capacitance.
    double width_scale = 0.80 + 0.20 * (d.width / 64.0);
    e.energyNj *= width_scale;

    const auto &named = namedEnergies();
    auto it = named.find(d.name);
    if (it != named.end()) {
        // Curated value replaces class default (already includes any
        // width effect in the published ratio).
        e.energyNj = it->second;
    } else {
        // Idiosyncratic silicon-level variation: +-28%.
        e.energyNj *= 1.0 + nameJitter(d.name, 0.15);
    }
    e.energyNj *= kEpiUnitNj;
    return e;
}

} // namespace

ExecModel::ExecModel(const Isa &isa)
{
    table.reserve(isa.size());
    for (const auto &d : isa.all())
        table.push_back(buildInfo(d));
}

const ExecInfo &
ExecModel::info(int op) const
{
    if (op < 0 || static_cast<size_t>(op) >= table.size())
        panic(cat("ExecModel::info: bad opcode ", op));
    return table[static_cast<size_t>(op)];
}

void
ExecModel::decode(const Program &prog, int mispredict_penalty,
                  double transition_gate_nj,
                  DecodedProgram &out) const
{
    out.name = prog.name;
    out.bodySize = 0;
    out.mispredictPenalty = mispredict_penalty;
    out.transitionGateNj = transition_gate_nj;
    out.programStart.clear();
    out.streamLines.clear();
    out.streamOffset.clear();
    out.streamLen.clear();
    decodeAppend(prog, out);
}

void
ExecModel::decodeAppend(const Program &prog, DecodedProgram &out) const
{
    if (!prog.isa)
        panic("simulateCore: program without ISA");
    const size_t n = prog.body.size();
    const size_t base = out.bodySize;
    const size_t stream_base = out.streamLen.size();
    out.programStart.push_back(static_cast<uint32_t>(base));
    out.bodySize = base + n;
    const int mispredict_penalty = out.mispredictPenalty;
    const double transition_gate_nj = out.transitionGateNj;

    out.depSrc.resize(base + n);
    out.stream.resize(base + n);
    out.unitFirst.resize(base + n);
    out.unitSecond.resize(base + n);
    out.pipesNeeded.resize(base + n);
    out.extraFxuOps.resize(base + n);
    out.flags.resize(base + n);
    out.highEnergy.resize(base + n);
    out.issueInterval.resize(base + n);
    out.latency.resize(base + n);
    out.actEnergyNj.resize(base + n);
    out.mispredictInc.resize(base + n);

    for (size_t i = 0; i < n; ++i) {
        const ProgInst &pi = prog.body[i];
        const ExecInfo &ei = info(pi.op);
        const InstrDef &idef = prog.isa->at(pi.op);
        const size_t s = base + i;

        // Slots and stream ids index the whole decode.
        out.depSrc[s] =
            pi.depDist > 0
                ? static_cast<int32_t>(
                      base +
                      (i + n - static_cast<size_t>(pi.depDist) % n) %
                          n)
                : -1;
        out.stream[s] =
            pi.stream >= 0
                ? static_cast<int32_t>(stream_base +
                                       static_cast<size_t>(pi.stream))
                : -1;

        // Allowed units in ascending order (at most two: the
        // dual-issue integer category).
        int8_t first = -1, second = -1;
        for (int u = 0; u < kNumUnits; ++u) {
            if (!ei.allows(static_cast<Unit>(u)))
                continue;
            if (first < 0)
                first = static_cast<int8_t>(u);
            else
                second = static_cast<int8_t>(u);
        }
        out.unitFirst[s] = first;
        out.unitSecond[s] = second;
        out.pipesNeeded[s] = static_cast<int8_t>(ei.pipesNeeded);
        out.extraFxuOps[s] = static_cast<int8_t>(ei.extraFxuOps);

        uint8_t fl = 0;
        if (ei.isMem)
            fl |= DecodedProgram::kMem;
        if (ei.isStore)
            fl |= DecodedProgram::kStore;
        if (ei.usesVsuSteering)
            fl |= DecodedProgram::kVsuSteer;
        if (idef.isBranch() && pi.takenRate > 0.0f &&
            pi.takenRate < 1.0f)
            fl |= DecodedProgram::kCondBranch;
        out.flags[s] = fl;

        out.highEnergy[s] = ei.energyNj >= transition_gate_nj;
        out.issueInterval[s] = ei.issueInterval;
        out.latency[s] = ei.latency;
        // Data-dependent dynamic energy, pre-multiplied.
        double act =
            1.0 - ei.toggleSens + ei.toggleSens * pi.toggle;
        out.actEnergyNj[s] = ei.energyNj * act;
        if (fl & DecodedProgram::kCondBranch) {
            double p = pi.takenRate;
            out.mispredictInc[s] =
                mispredict_penalty * 2.0 * p * (1.0 - p);
        } else {
            out.mispredictInc[s] = 0.0;
        }
    }

    for (const MemStream &ms : prog.streams) {
        out.streamOffset.push_back(
            static_cast<uint32_t>(out.streamLines.size()));
        out.streamLen.push_back(static_cast<uint32_t>(ms.lines.size()));
        out.streamLines.insert(out.streamLines.end(),
                               ms.lines.begin(), ms.lines.end());
    }
}

} // namespace mprobe
