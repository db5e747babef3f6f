/**
 * @file
 * Accelerator-simulation example: generate workload traces, run them
 * through the UFC cycle-level model and the scheme-specific baselines
 * concurrently via the experiment runner, and print a performance/energy
 * report (plus the structured JSON for one run).
 *
 * Build and run:  ./build/examples/example_simulate_ufc
 */

#include <cstdio>

#include "runner/runner.h"
#include "workloads/workloads.h"

using namespace ufc;

namespace {

void
report(const sim::RunResult &r)
{
    std::printf("  %-12s %10.3f ms %8.1f W %10.3f J | PE %4.0f%%  "
                "NoC %4.0f%%  HBM %4.0f%%\n",
                r.machine.c_str(), 1e3 * r.seconds, r.powerW, r.energyJ,
                100.0 * r.stats.peUtilization(),
                100.0 * r.stats.utilization(isa::Resource::Noc),
                100.0 * r.stats.hbmUtilization());
}

} // namespace

int
main()
{
    const auto cp = ckks::CkksParams::c2();
    const auto tp = tfhe::TfheParams::t2();

    // The three demo workloads: a SIMD-scheme bootstrap, a logic-scheme
    // PBS batch, and the hybrid k-NN with scheme switching.
    const auto boot = std::make_shared<trace::Trace>(
        workloads::ckksBootstrapping(cp));
    const auto pbs = std::make_shared<trace::Trace>(
        workloads::pbsThroughput(tp, 512));
    const auto knn = std::make_shared<trace::Trace>(
        workloads::hybridKnn(cp, tp));

    const auto ufcm = std::make_shared<sim::UfcModel>();
    const auto sharp = std::make_shared<sim::SharpModel>();
    const auto strix = std::make_shared<sim::StrixModel>();
    const auto composed = std::make_shared<sim::ComposedModel>();

    // Declare the whole comparison as one job batch and let the runner
    // execute it across cores; results come back in job order.
    std::vector<runner::Job> jobs;
    auto add = [&](const char *label,
                   std::shared_ptr<const sim::AcceleratorModel> model,
                   std::shared_ptr<const trace::Trace> tr) {
        runner::Job job;
        job.label = label;
        job.model = std::move(model);
        job.trace = std::move(tr);
        jobs.push_back(std::move(job));
    };
    add("boot/UFC", ufcm, boot);
    add("boot/SHARP", sharp, boot);
    add("pbs/UFC", ufcm, pbs);
    add("pbs/Strix", strix, pbs);
    add("knn/UFC", ufcm, knn);
    add("knn/SHARP+Strix", composed, knn);

    const runner::ExperimentRunner exec;
    const runner::ResultSet results(exec.run(jobs));

    std::printf("workload: %s (%zu ciphertext-level ops, N=2^16, "
                "dnum=%d)\n", boot->name.c_str(), boot->ops.size(),
                cp.dnum);
    report(results.at("boot/UFC"));
    report(results.at("boot/SHARP"));

    std::printf("\nworkload: %s (512 bootstraps, n=%u, N=2^10)\n",
                pbs->name.c_str(), tp.lweDim);
    report(results.at("pbs/UFC"));
    report(results.at("pbs/Strix"));

    std::printf("\nworkload: %s (hybrid, scheme switching)\n",
                knn->name.c_str());
    report(results.at("knn/UFC"));
    report(results.at("knn/SHARP+Strix"));

    std::printf("\nUFC chip: %.1f mm^2 (paper: 197.7 mm^2 @ 7 nm)\n",
                ufcm->areaMm2());

    std::printf("\nstructured result (RunResult::toJson):\n%s\n",
                results.at("knn/UFC").toJson().c_str());
    return 0;
}
