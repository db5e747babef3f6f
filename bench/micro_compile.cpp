/**
 * @file
 * Compile and execute microbenchmarks over the Fig. 10a CKKS traces on
 * UFC and on SHARP, the jobs the ckks_dse DSE repeats for every design
 * point.
 *
 * BM_Compile (C1 traces): lowering plus bytecode building.
 *   ns_per_record      host time per compiled BcInst record;
 *   allocs_per_record  heap allocations (operator new calls) per record,
 *                      counted by a global operator new local to this
 *                      binary.
 * BM_Execute (C1 and C2 Programs, compiled once): the bytecode engine.
 *   ns_per_inst        host time per dynamic instruction;
 *   allocs_per_inst    heap allocations per dynamic instruction.
 *
 * The allocation counts are deterministic, so they can gate a build:
 *
 *   ./build/bench/micro_compile --benchmark_min_time=0.01 \
 *       --benchmark_format=json
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "sim/accelerator.h"
#include "trace/trace.h"
#include "workloads/workloads.h"

using namespace ufc;

namespace {

std::atomic<unsigned long long> gAllocs{0};

unsigned long long
allocs()
{
    return gAllocs.load(std::memory_order_relaxed);
}

} // namespace

// libstdc++ routes every other non-aligned operator new (array,
// nothrow) through this one, so it sees each allocation once.
void *
operator new(std::size_t bytes)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

void
BM_Compile(benchmark::State &state, const sim::AcceleratorModel *model,
           std::shared_ptr<const trace::Trace> tr)
{
    // Hashed once, as the batch runner does, so the row times the
    // lowering and the builder only.
    const u64 hash = trace::contentHash(*tr);
    const double records =
        static_cast<double>(model->compileWithHash(*tr, hash).code.size());
    const unsigned long long before = allocs();
    const auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
        compiler::Program p = model->compileWithHash(*tr, hash);
        benchmark::DoNotOptimize(p.code.data());
    }
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    const double total = records * static_cast<double>(state.iterations());
    state.counters["records"] = records;
    state.counters["ns_per_record"] = elapsed.count() / total;
    state.counters["allocs_per_record"] =
        static_cast<double>(allocs() - before) / total;
}

void
BM_Execute(benchmark::State &state, const sim::AcceleratorModel *model,
           std::shared_ptr<const compiler::Program> program)
{
    const double insts = static_cast<double>(program->totalInsts());
    const unsigned long long before = allocs();
    const auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
        sim::RunResult r = model->execute(*program);
        benchmark::DoNotOptimize(r.stats.totalCycles);
    }
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    const double total = insts * static_cast<double>(state.iterations());
    state.counters["insts"] = insts;
    state.counters["ns_per_inst"] = elapsed.count() / total;
    state.counters["allocs_per_inst"] =
        static_cast<double>(allocs() - before) / total;
}

} // namespace

int
main(int argc, char **argv)
{
    const sim::UfcModel ufcm;
    const sim::SharpModel sharp;
    const sim::AcceleratorModel *models[] = {&ufcm, &sharp};
    for (const auto &[set, params] :
         {std::pair{"C1", ckks::CkksParams::c1()},
          std::pair{"C2", ckks::CkksParams::c2()}}) {
        for (trace::Trace &tr : workloads::ckksSuite(params)) {
            const auto shared =
                std::make_shared<const trace::Trace>(std::move(tr));
            for (const sim::AcceleratorModel *model : models) {
                const std::string row =
                    model->name() + "/" + set + "/" + shared->name;
                if (std::string(set) == "C1")
                    benchmark::RegisterBenchmark(
                        ("BM_Compile/" + model->name() + "/" + shared->name)
                            .c_str(),
                        BM_Compile, model, shared)
                        ->Unit(benchmark::kMillisecond);
                benchmark::RegisterBenchmark(
                    ("BM_Execute/" + row).c_str(), BM_Execute, model,
                    std::make_shared<const compiler::Program>(
                        model->compile(*shared)))
                    ->Unit(benchmark::kMillisecond);
            }
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
