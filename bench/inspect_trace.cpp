/**
 * @file
 * Trace inspector: run a saved (or built-in) workload trace on one
 * machine model and print the observability breakdown — top-k opcodes by
 * attributed cycles and energy, the stall-cause histogram, and the
 * exact-sum check (per-opcode cycles == total_cycles).
 *
 *   ./build/bench/inspect_trace my_workload.ufctrace
 *   ./build/bench/inspect_trace --builtin hybrid_knn --machine ufc
 *   ./build/bench/inspect_trace --builtin boot --top 5 --timeline t.json
 *   ./build/bench/inspect_trace trace.ufctrace --json   # RunResult JSON
 *
 * A corrupt/truncated trace file (or invalid run configuration) prints a
 * one-line "error: <kind>: <reason>" diagnosis on stderr and exits 1;
 * usage errors exit 2.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/error.h"
#include "sim/accelerator.h"
#include "sim/timeline.h"
#include "trace/serialize.h"
#include "workloads/workloads.h"

using namespace ufc;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [TRACE_FILE] [options]\n"
        "  TRACE_FILE            a trace saved in the ufctrace format\n"
        "  --builtin NAME        helr | boot | pbs | hybrid_knn instead\n"
        "                        of a trace file\n"
        "  --machine NAME        ufc | sharp | strix | composed "
        "(default: ufc)\n"
        "  --prefetch-window N   engine prefetch window (0 = no "
        "lookahead;\n"
        "                        default: the model's)\n"
        "  --top K               rows in the per-opcode table "
        "(default: 8)\n"
        "  --timeline PATH       export the run's Chrome trace-event "
        "JSON\n"
        "  --json                print the RunResult JSON instead of "
        "tables\n"
        "  --bytecode            print the compiled Program disassembly\n"
        "                        (no simulation)\n",
        argv0);
}

trace::Trace
builtinTrace(const std::string &name)
{
    const auto cp = ckks::CkksParams::c2();
    const auto tp = tfhe::TfheParams::t3();
    if (name == "helr")
        return workloads::helr(cp);
    if (name == "boot")
        return workloads::ckksBootstrapping(cp);
    if (name == "pbs")
        return workloads::pbsThroughput(tp);
    if (name == "hybrid_knn")
        return workloads::hybridKnn(cp, tp);
    std::fprintf(stderr, "unknown builtin '%s' (helr|boot|pbs|"
                         "hybrid_knn)\n", name.c_str());
    std::exit(2);
}

std::unique_ptr<sim::AcceleratorModel>
makeMachine(const std::string &name)
{
    if (auto model = sim::makeModel(name))
        return model;
    std::fprintf(stderr, "unknown machine '%s' (ufc|sharp|strix|"
                         "composed)\n", name.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
try {
    std::string tracePath;
    std::string builtin;
    std::string machine = "ufc";
    std::string timelinePath;
    int top = 8;
    int prefetchWindow = -1;
    bool asJson = false;
    bool asBytecode = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--builtin")
            builtin = value();
        else if (arg == "--machine")
            machine = value();
        else if (arg == "--top")
            top = bench::numArg(arg, value(), 0);
        else if (arg == "--prefetch-window")
            prefetchWindow = bench::numArg(arg, value(), -1);
        else if (arg == "--timeline")
            timelinePath = value();
        else if (arg == "--json")
            asJson = true;
        else if (arg == "--bytecode")
            asBytecode = true;
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] != '-' && tracePath.empty()) {
            tracePath = arg;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (tracePath.empty() == builtin.empty()) {
        std::fprintf(stderr,
                     "give exactly one of TRACE_FILE or --builtin\n");
        usage(argv[0]);
        return 2;
    }

    const auto model = makeMachine(machine);

    if (asBytecode && !tracePath.empty()) {
        // Compile-only, straight off the file through the streaming
        // reader (bounded memory; malformed files exit through the
        // one-line diagnosis below like every other trace error).
        std::ifstream is(tracePath);
        UFC_EXPECT(is.good(), TraceError,
                   "cannot open trace file " << tracePath);
        std::ostringstream os;
        compiler::disassemble(model->compileStream(is), os);
        std::fputs(os.str().c_str(), stdout);
        return 0;
    }

    const trace::Trace tr = builtin.empty() ? trace::loadTrace(tracePath)
                                            : builtinTrace(builtin);

    if (asBytecode) {
        // Compile-only: disassemble the Program this machine would
        // execute (composed machines print one section per chip).
        std::ostringstream os;
        compiler::disassemble(model->compile(tr), os);
        std::fputs(os.str().c_str(), stdout);
        return 0;
    }

    sim::Timeline timeline;
    sim::RunOptions opts;
    opts.prefetchWindow = prefetchWindow;
    opts.label = "inspect/" + tr.name + "/" + machine;
    if (!timelinePath.empty() && machine != "composed")
        opts.timeline = &timeline;
    const sim::RunResult r = model->run(tr, opts);

    if (asJson) {
        std::printf("%s\n", r.toJson().c_str());
    } else {
        std::printf("trace    %s (%llu high-level ops, %llu "
                    "instructions)\n", tr.name.c_str(),
                    static_cast<unsigned long long>(tr.totalOps()),
                    static_cast<unsigned long long>(r.stats.instCount));
        std::printf("machine  %s   total %.0f cycles   %.3f ms   "
                    "%.3f J\n\n", r.machine.c_str(), r.stats.totalCycles,
                    1e3 * r.seconds, r.energyJ);

        // Per-opcode table sorted by attributed cycles.
        std::vector<int> order;
        for (int i = 0; i < isa::kNumHwOps; ++i)
            if (r.stats.opStats[i].count > 0)
                order.push_back(i);
        std::sort(order.begin(), order.end(), [&](int a, int b) {
            return r.stats.opStats[a].cycles > r.stats.opStats[b].cycles;
        });
        std::printf("top opcodes by attributed cycles:\n");
        std::printf("  %-12s %10s %14s %6s %12s %12s %10s\n", "opcode",
                    "count", "cycles", "%", "stall_cyc", "hbm_bytes",
                    "energy_j");
        const size_t rows =
            std::min<size_t>(order.size(),
                             top > 0 ? static_cast<size_t>(top)
                                     : order.size());
        for (size_t i = 0; i < rows; ++i) {
            const auto &o = r.stats.opStats[order[i]];
            const auto op = static_cast<isa::HwOp>(order[i]);
            std::printf("  %-12s %10llu %14.0f %5.1f%% %12.0f %12.3g "
                        "%10.3g\n", isa::opName(op),
                        static_cast<unsigned long long>(o.count),
                        o.cycles,
                        100.0 * o.cycles /
                            std::max(1.0, r.stats.totalCycles),
                        o.stallCycles, o.hbmBytes, r.opEnergyJ(op));
        }
        if (rows < order.size())
            std::printf("  ... %zu more opcodes\n", order.size() - rows);

        const auto &st = r.stats.stalls;
        std::printf("\nstall histogram (cycles):\n");
        std::printf("  %-22s %14.0f\n", "hbm_bound", st.hbmBound);
        std::printf("  %-22s %14.0f\n", "dependency", st.dependency);
        std::printf("  %-22s %14.0f\n", "pipeline_fill", st.pipelineFill);
        std::printf("  %-22s %14.0f  (subset of hbm occupancy; %llu "
                    "evictions, %.3g B written back)\n",
                    "spad_spill", st.spadSpillCycles,
                    static_cast<unsigned long long>(st.spadEvictions),
                    st.spadWritebackBytes);

        // Exact-sum acceptance check.  A single engine maintains the
        // identity exactly; the composed machine merges two engines'
        // tables, which can move the sum by ulps.
        double opSum = 0.0;
        for (const auto &o : r.stats.opStats)
            opSum += o.cycles;
        const bool exact = opSum == r.stats.totalCycles;
        const double rel =
            r.stats.totalCycles > 0
                ? std::fabs(opSum - r.stats.totalCycles) /
                      r.stats.totalCycles
                : std::fabs(opSum);
        const bool ok = machine == "composed" ? rel <= 1e-9 : exact;
        std::printf("\nper-opcode cycle sum %.17g vs total %.17g: %s\n",
                    opSum, r.stats.totalCycles,
                    ok ? (exact ? "exact match" : "match (<=1e-9 rel)")
                       : "MISMATCH");
        if (!ok)
            return 1;
    }

    if (!timelinePath.empty()) {
        if (machine == "composed") {
            std::fprintf(stderr, "--timeline is not supported for the "
                                 "composed machine (two clock "
                                 "domains)\n");
            return 2;
        }
        timeline.saveChromeTrace(timelinePath);
        std::printf("wrote %s (%zu slices; open in ui.perfetto.dev)\n",
                    timelinePath.c_str(), timeline.slices().size());
    }
    return 0;
} catch (const ufc::Error &e) {
    // One-line diagnosis for corrupt traces / invalid configurations.
    std::fprintf(stderr, "error: %s: %s\n", e.kind().c_str(), e.what());
    return 1;
}
