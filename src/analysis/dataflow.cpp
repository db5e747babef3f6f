/**
 * @file
 * CFG recovery from trace IR and compiled bytecode (see dataflow.h).
 */

#include "analysis/dataflow.h"

#include <algorithm>
#include <unordered_map>

#include "compiler/bytecode.h"
#include "trace/trace.h"

namespace ufc {
namespace analysis {

namespace {

/** Dedup-or-insert `name` into `names`, returning its index. */
i32
internName(std::vector<std::string> &names,
           std::unordered_map<std::string, i32> &index,
           const std::string &name)
{
    const auto it = index.find(name);
    if (it != index.end())
        return it->second;
    const i32 id = static_cast<i32>(names.size());
    names.push_back(name);
    index.emplace(name, id);
    return id;
}

/** Chain blocks [0..n) with fallthrough edges. */
void
chainFallthrough(Cfg &cfg)
{
    for (u32 i = 0; i + 1 < cfg.blocks.size(); ++i) {
        cfg.blocks[i].succs.push_back(i + 1);
        cfg.blocks[i + 1].preds.push_back(i);
    }
}

/** Split [0, n) at the sorted unique in-range cut points, producing
 *  blocks in program order. */
std::vector<CfgBlock>
splitAt(u64 n, std::vector<u64> cuts)
{
    cuts.push_back(0);
    cuts.push_back(n);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    std::vector<CfgBlock> blocks;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        if (cuts[i] >= n)
            break;
        CfgBlock b;
        b.begin = cuts[i];
        b.end = std::min(cuts[i + 1], n);
        if (b.end > b.begin)
            blocks.push_back(b);
    }
    return blocks;
}

} // namespace

Cfg
cfgFromTrace(const trace::Trace &tr)
{
    Cfg cfg;
    const u64 n = tr.ops.size();
    if (n == 0)
        return cfg;

    const std::vector<trace::PhaseRegion> regions = trace::phaseRegions(tr);
    std::vector<u64> cuts;
    cuts.reserve(regions.size() * 2);
    for (const trace::PhaseRegion &r : regions) {
        cuts.push_back(r.begin);
        cuts.push_back(r.end);
    }
    cfg.blocks = splitAt(n, std::move(cuts));
    chainFallthrough(cfg);

    std::unordered_map<std::string, i32> nameIdx;
    for (CfgBlock &b : cfg.blocks) {
        // Innermost (deepest) region containing the block; regions never
        // straddle a block since every region boundary is a cut point.
        int bestDepth = -1;
        for (const trace::PhaseRegion &r : regions) {
            if (r.begin <= b.begin && b.end <= r.end &&
                r.depth > bestDepth) {
                bestDepth = r.depth;
                b.phase = internName(cfg.phaseNames, nameIdx, r.name);
            }
        }
    }
    return cfg;
}

Cfg
cfgFromProgram(const compiler::Program &p)
{
    UFC_EXPECT(!p.composed(), ConfigError,
               "cfgFromProgram: composed Program '"
                   << p.workload
                   << "' has no single instruction stream; recover a CFG "
                      "per part");
    Cfg cfg;
    cfg.phaseNames.assign(p.phaseNames.begin(), p.phaseNames.end());
    const u64 n = p.code.size();
    if (n == 0)
        return cfg;

    std::vector<u64> cuts;
    cuts.reserve(p.phaseEvents.size() + p.loops.size() * 2);
    for (const compiler::PhaseEvent &e : p.phaseEvents)
        cuts.push_back(e.inst);
    for (const compiler::BcLoop &lp : p.loops) {
        cuts.push_back(lp.end - lp.bodyLen);
        cuts.push_back(lp.end);
    }
    cfg.blocks = splitAt(n, std::move(cuts));
    chainFallthrough(cfg);

    // Innermost open phase per block: replay the event stream (sorted by
    // inst, like the compiler emits it) with a stack.
    std::vector<i32> stack;
    std::size_t ev = 0;
    for (CfgBlock &b : cfg.blocks) {
        while (ev < p.phaseEvents.size() &&
               p.phaseEvents[ev].inst <= b.begin) {
            const i32 name = p.phaseEvents[ev].name;
            if (name == compiler::PhaseEvent::kEnd) {
                if (!stack.empty())
                    stack.pop_back();
            } else {
                stack.push_back(name);
            }
            ++ev;
        }
        b.phase = stack.empty() ? -1 : stack.back();
    }

    // Mark folded-loop bodies.  Valid Programs (bc-loop-invariant) have
    // each body exactly one block; a malformed body split by a stray
    // phase event degrades to per-fragment self edges, which the bounds
    // analyzer never relies on (it walks Program::loops directly).
    for (const compiler::BcLoop &lp : p.loops) {
        const u64 bodyBegin = lp.end - lp.bodyLen;
        for (u32 i = 0; i < cfg.blocks.size(); ++i) {
            CfgBlock &b = cfg.blocks[i];
            if (b.begin >= bodyBegin && b.end <= lp.end) {
                b.trips = lp.trips;
                b.succs.push_back(i);
                b.preds.push_back(i);
            }
        }
    }
    return cfg;
}

} // namespace analysis
} // namespace ufc
