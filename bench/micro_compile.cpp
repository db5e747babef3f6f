/**
 * @file
 * Compile microbenchmark: lowering plus bytecode building of the
 * Fig. 10a C1 CKKS traces on UFC and on SHARP, the job the ckks_dse DSE
 * repeats for every design point.  Each row reports
 *
 *   ns_per_record      host time per compiled BcInst record;
 *   allocs_per_record  heap allocations (operator new calls) per record,
 *                      counted by a global operator new local to this
 *                      binary.
 *
 * The allocation count is deterministic, so it can gate a build:
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

} // namespace

int
main(int argc, char **argv)
{
    const sim::UfcModel ufcm;
    const sim::SharpModel sharp;
    const sim::AcceleratorModel *models[] = {&ufcm, &sharp};
    for (trace::Trace &tr : workloads::ckksSuite(ckks::CkksParams::c1())) {
        const auto shared =
            std::make_shared<const trace::Trace>(std::move(tr));
        for (const sim::AcceleratorModel *model : models) {
            benchmark::RegisterBenchmark(
                ("BM_Compile/" + model->name() + "/" + shared->name)
                    .c_str(),
                BM_Compile, model, shared)
                ->Unit(benchmark::kMillisecond);
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
