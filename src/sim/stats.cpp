/**
 * @file
 * Structured RunResult export (JSON / CSV).
 *
 * Numbers are formatted with "%.17g" so that a serialized result parses
 * back to the exact same double — the runner's determinism guarantee
 * ("parallel sweep == serial sweep") extends to the report files.
 */

#include "sim/stats.h"

#include <cstdio>
#include <sstream>

#include "common/error.h"
#include "common/json.h"
#include "sim/bc_engine.h"

namespace ufc {
namespace sim {

void
validateRunOptions(const RunOptions &opts)
{
    UFC_EXPECT(opts.prefetchWindow >= -1, ConfigError,
               "RunOptions.prefetchWindow must be >= -1 (-1 = model "
               "default, 0 = no lookahead), got "
                   << opts.prefetchWindow);
    UFC_EXPECT(opts.prefetchWindow <= (1 << 20), ConfigError,
               "RunOptions.prefetchWindow is absurdly large: "
                   << opts.prefetchWindow);
}

int
resolvedPrefetchWindow(const RunOptions &opts)
{
    // -1 is the "model default" sentinel; 0 is an explicit request for a
    // no-lookahead memory engine.
    return opts.prefetchWindow >= 0 ? opts.prefetchWindow
                                    : BytecodeEngine::kDefaultPrefetchWindow;
}

namespace {

constexpr auto num = json::number;

/** Shared JSON string escaping (common/json.h). */
std::string
jsonStr(const std::string &s)
{
    return json::quote(s);
}

/** CSV field quoting per RFC 4180 (only when needed). */
std::string
csvStr(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += "\"";
    return out;
}

} // namespace

double
RunResult::opEnergyJ(isa::HwOp op) const
{
    const OpStats &o = stats.opStats[static_cast<int>(op)];
    if (o.count == 0)
        return 0.0;
    double computeTotal = 0.0;
    for (const auto &row : stats.opStats)
        computeTotal += row.computeCycles;
    double e = 0.0;
    if (computeTotal > 0)
        e += energyDynamicJ() * (o.computeCycles / computeTotal);
    if (stats.hbmBytes > 0)
        e += energyHbmJ * (o.hbmBytes / stats.hbmBytes);
    if (stats.totalCycles > 0)
        e += energyStaticJ * (o.cycles / stats.totalCycles);
    return e;
}

std::string
RunResult::toJson() const
{
    std::ostringstream os;
    os << "{\"schema\":" << jsonStr(kRunResultSchema)
       << ",\"label\":" << jsonStr(label)
       << ",\"machine\":" << jsonStr(machine)
       << ",\"workload\":" << jsonStr(workload)
       << ",\"seconds\":" << num(seconds)
       << ",\"energy_j\":" << num(energyJ)
       << ",\"power_w\":" << num(powerW)
       << ",\"area_mm2\":" << num(areaMm2)
       << ",\"edp\":" << num(edp())
       << ",\"edap\":" << num(edap())
       << ",\"host_seconds\":" << num(hostSeconds);
    if (verbosity == StatsVerbosity::Full) {
        os << ",\"stats\":{"
           << "\"total_cycles\":" << num(stats.totalCycles)
           << ",\"inst_count\":" << stats.instCount
           << ",\"hbm_bytes\":" << num(stats.hbmBytes)
           << ",\"spad_hit_bytes\":" << num(stats.spadHitBytes)
           << ",\"hbm_utilization\":" << num(stats.hbmUtilization())
           << ",\"pe_utilization\":" << num(stats.peUtilization())
           << ",\"utilization\":{";
        for (int i = 0; i < isa::kNumResources; ++i) {
            const auto r = static_cast<isa::Resource>(i);
            if (i)
                os << ",";
            os << jsonStr(isa::resourceName(r)) << ":"
               << num(stats.utilization(r));
        }
        os << "}}";
        // v2 "breakdown" block: stall causes, energy split, per-opcode
        // attribution (opcodes with zero issues are omitted).
        os << ",\"breakdown\":{\"stalls\":{"
           << "\"hbm_bound\":" << num(stats.stalls.hbmBound)
           << ",\"dependency\":" << num(stats.stalls.dependency)
           << ",\"pipeline_fill\":" << num(stats.stalls.pipelineFill)
           << ",\"spad_spill_cycles\":" << num(stats.stalls.spadSpillCycles)
           << ",\"spad_writeback_bytes\":"
           << num(stats.stalls.spadWritebackBytes)
           << ",\"spad_evictions\":" << stats.stalls.spadEvictions << "}"
           << ",\"energy\":{"
           << "\"static_j\":" << num(energyStaticJ)
           << ",\"hbm_j\":" << num(energyHbmJ)
           << ",\"dynamic_j\":" << num(energyDynamicJ()) << "}"
           << ",\"per_op\":{";
        bool first = true;
        for (int i = 0; i < isa::kNumHwOps; ++i) {
            const OpStats &o = stats.opStats[i];
            if (o.count == 0)
                continue;
            const auto op = static_cast<isa::HwOp>(i);
            if (!first)
                os << ",";
            first = false;
            os << jsonStr(isa::opName(op)) << ":{"
               << "\"count\":" << o.count
               << ",\"cycles\":" << num(o.cycles)
               << ",\"compute_cycles\":" << num(o.computeCycles)
               << ",\"stall_cycles\":" << num(o.stallCycles)
               << ",\"fill_cycles\":" << num(o.fillCycles)
               << ",\"hbm_bytes\":" << num(o.hbmBytes)
               << ",\"energy_j\":" << num(opEnergyJ(op)) << "}";
        }
        os << "}}";
    }
    os << "}";
    return os.str();
}

std::string
RunResult::csvHeader()
{
    std::string h = "label,machine,workload,seconds,energy_j,power_w,"
                    "area_mm2,edp,edap,host_seconds,total_cycles,"
                    "inst_count,hbm_bytes,spad_hit_bytes,hbm_utilization,"
                    "pe_utilization";
    for (int i = 0; i < isa::kNumResources; ++i) {
        h += ",util_";
        h += isa::resourceName(static_cast<isa::Resource>(i));
    }
    // v2 columns, appended after every v1 column.
    h += ",stall_hbm_bound,stall_dependency,stall_pipeline_fill,"
         "spad_spill_cycles,spad_writeback_bytes,spad_evictions";
    for (int i = 0; i < isa::kNumHwOps; ++i) {
        h += ",cycles_";
        h += isa::opName(static_cast<isa::HwOp>(i));
    }
    return h;
}

std::string
RunResult::toCsvRow() const
{
    std::ostringstream os;
    os << csvStr(label) << "," << csvStr(machine) << ","
       << csvStr(workload) << "," << num(seconds) << "," << num(energyJ)
       << "," << num(powerW) << "," << num(areaMm2) << "," << num(edp())
       << "," << num(edap()) << "," << num(hostSeconds);
    if (verbosity == StatsVerbosity::Full) {
        os << "," << num(stats.totalCycles) << "," << stats.instCount
           << "," << num(stats.hbmBytes) << "," << num(stats.spadHitBytes)
           << "," << num(stats.hbmUtilization()) << ","
           << num(stats.peUtilization());
        for (int i = 0; i < isa::kNumResources; ++i)
            os << ","
               << num(stats.utilization(static_cast<isa::Resource>(i)));
        os << "," << num(stats.stalls.hbmBound) << ","
           << num(stats.stalls.dependency) << ","
           << num(stats.stalls.pipelineFill) << ","
           << num(stats.stalls.spadSpillCycles) << ","
           << num(stats.stalls.spadWritebackBytes) << ","
           << stats.stalls.spadEvictions;
        for (int i = 0; i < isa::kNumHwOps; ++i)
            os << "," << num(stats.opStats[i].cycles);
    } else {
        for (int i = 0; i < 6 + isa::kNumResources + 6 + isa::kNumHwOps;
             ++i)
            os << ",";
    }
    return os.str();
}

} // namespace sim
} // namespace ufc
