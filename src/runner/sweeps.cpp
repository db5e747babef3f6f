/**
 * @file
 * Paper sweep definitions (Figures 10-15) as runner job lists.
 */

#include "runner/sweeps.h"

#include <cstdio>

#include "workloads/workloads.h"

namespace ufc {
namespace runner {

namespace {

using ModelPtr = std::shared_ptr<const sim::AcceleratorModel>;
using TracePtr = std::shared_ptr<const trace::Trace>;

std::vector<TracePtr>
share(std::vector<trace::Trace> traces)
{
    std::vector<TracePtr> out;
    out.reserve(traces.size());
    for (auto &tr : traces)
        out.push_back(std::make_shared<trace::Trace>(std::move(tr)));
    return out;
}

/** Cross one group's traces with a set of (machineTag, model) pairs. */
void
cross(Sweep &sweep, const std::string &group,
      const std::vector<TracePtr> &traces,
      const std::vector<std::pair<std::string, ModelPtr>> &machines)
{
    for (const auto &tr : traces) {
        for (const auto &[tag, model] : machines) {
            Job job;
            job.label = jobLabel(sweep.name, group, tr->name, tag);
            job.model = model;
            job.trace = tr;
            sweep.jobs.push_back(std::move(job));
        }
    }
}

} // namespace

std::string
dseNetworkGroup(int networks, double spadMb)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "n%d-s%.0f", networks, spadMb);
    return buf;
}

std::string
dseLaneGroup(int lanes, double spadMb)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "l%d-s%.0f", lanes, spadMb);
    return buf;
}

Sweep
fig10aSweep()
{
    Sweep sweep{"fig10a", "CKKS workloads, UFC vs SHARP (C1-C3)", {}};
    const auto ufcm = std::make_shared<sim::UfcModel>();
    const auto sharp = std::make_shared<sim::SharpModel>();
    for (const auto &params : {ckks::CkksParams::c1(),
                               ckks::CkksParams::c2(),
                               ckks::CkksParams::c3()}) {
        cross(sweep, params.name, share(workloads::ckksSuite(params)),
              {{"UFC", ufcm}, {"SHARP", sharp}});
    }
    return sweep;
}

Sweep
fig10bSweep()
{
    Sweep sweep{"fig10b", "TFHE workloads, UFC vs Strix (T1-T4)", {}};
    const auto ufcm = std::make_shared<sim::UfcModel>();
    const auto strix = std::make_shared<sim::StrixModel>();
    for (const auto &params : {tfhe::TfheParams::t1(),
                               tfhe::TfheParams::t2(),
                               tfhe::TfheParams::t3(),
                               tfhe::TfheParams::t4()}) {
        cross(sweep, params.name, share(workloads::tfheSuite(params)),
              {{"UFC", ufcm}, {"Strix", strix}});
    }
    return sweep;
}

Sweep
fig11Sweep()
{
    Sweep sweep{"fig11", "hybrid k-NN, UFC vs SHARP+Strix (C2 x T1-T4)",
                {}};
    const auto ufcm = std::make_shared<sim::UfcModel>();
    const auto composed = std::make_shared<sim::ComposedModel>();
    for (const auto &tp : {tfhe::TfheParams::t1(), tfhe::TfheParams::t2(),
                           tfhe::TfheParams::t3(),
                           tfhe::TfheParams::t4()}) {
        cross(sweep, tp.name,
              share({workloads::hybridKnn(ckks::CkksParams::c2(), tp)}),
              {{"UFC", ufcm}, {"SHARP+Strix", composed}});
    }
    return sweep;
}

Sweep
fig12Sweep()
{
    Sweep sweep{"fig12", "UFC component utilization (CKKS C2, TFHE T2)",
                {}};
    const auto ufcm = std::make_shared<sim::UfcModel>();
    cross(sweep, "ckks",
          share(workloads::ckksSuite(ckks::CkksParams::c2())),
          {{"UFC", ufcm}});
    cross(sweep, "tfhe",
          share(workloads::tfheSuite(tfhe::TfheParams::t2())),
          {{"UFC", ufcm}});
    return sweep;
}

Sweep
fig13Sweep()
{
    Sweep sweep{"fig13", "DSE: CG-NTT networks x scratchpad (CKKS C2)",
                {}};
    const auto traces =
        share(workloads::ckksSuite(ckks::CkksParams::c2()));
    for (int networks : {1, 2, 4}) {
        for (double spad : {128.0, 256.0, 512.0}) {
            auto cfg = sim::UfcConfig::tableII();
            cfg.cgNetworks = networks;
            cfg.scratchpadMb = spad;
            const auto model = std::make_shared<sim::UfcModel>(cfg);
            cross(sweep, dseNetworkGroup(networks, spad), traces,
                  {{"UFC", model}});
        }
    }
    return sweep;
}

Sweep
fig14Sweep()
{
    Sweep sweep{"fig14", "DSE: lanes per PE x scratchpad (CKKS C2)", {}};
    const auto traces =
        share(workloads::ckksSuite(ckks::CkksParams::c2()));
    for (int lanes : {64, 128, 256, 512}) {
        for (double spad : {128.0, 256.0, 512.0}) {
            auto cfg = sim::UfcConfig::tableII();
            cfg.lanesPerPe = lanes;
            cfg.butterfliesPerPe = lanes / 2;
            cfg.globalNocWordsPerCycle = 64 * lanes * 2;
            cfg.scratchpadMb = spad;
            const auto model = std::make_shared<sim::UfcModel>(cfg);
            cross(sweep, dseLaneGroup(lanes, spad), traces,
                  {{"UFC", model}});
        }
    }
    return sweep;
}

Sweep
fig15Sweep()
{
    Sweep sweep{"fig15", "PBS packing: none vs CoLP vs TvLP (T1-T4)", {}};
    auto noPack = sim::UfcConfig::tableII();
    noPack.smallPolyPacking = false;
    const auto none = std::make_shared<sim::UfcModel>(noPack);
    const auto colp = std::make_shared<sim::UfcModel>(
        sim::UfcConfig::tableII(), compiler::Parallelism::CoLP);
    const auto tvlp = std::make_shared<sim::UfcModel>(
        sim::UfcConfig::tableII(), compiler::Parallelism::TvLP);
    for (const auto &tp : {tfhe::TfheParams::t1(), tfhe::TfheParams::t2(),
                           tfhe::TfheParams::t3(),
                           tfhe::TfheParams::t4()}) {
        cross(sweep, tp.name, share({workloads::pbsThroughput(tp, 512)}),
              {{"none", none}, {"CoLP", colp}, {"TvLP", tvlp}});
    }
    return sweep;
}

std::vector<Sweep>
paperSweeps()
{
    std::vector<Sweep> sweeps;
    sweeps.push_back(fig10aSweep());
    sweeps.push_back(fig10bSweep());
    sweeps.push_back(fig11Sweep());
    sweeps.push_back(fig12Sweep());
    sweeps.push_back(fig13Sweep());
    sweeps.push_back(fig14Sweep());
    sweeps.push_back(fig15Sweep());
    return sweeps;
}

std::vector<Job>
allJobs(const std::vector<Sweep> &sweeps)
{
    std::vector<Job> jobs;
    for (const auto &sweep : sweeps)
        jobs.insert(jobs.end(), sweep.jobs.begin(), sweep.jobs.end());
    return jobs;
}

} // namespace runner
} // namespace ufc
