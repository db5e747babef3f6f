/**
 * @file
 * Chunk-boundary property tests for the streaming trace reader: the
 * chunked TraceReader must be byte-for-byte equivalent to the
 * whole-file readTrace() at *every* chunk size — same rebuilt Trace on
 * valid input, same typed TraceError (same message) on malformed input
 * — and its memory must stay bounded by the chunk size while a trace
 * far larger than that bound flows through compile + execute.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/fault.h"
#include "compiler/bytecode.h"
#include "sim/accelerator.h"
#include "sim/ufc_perf.h"
#include "trace/serialize.h"
#include "workloads/workloads.h"

namespace ufc {
namespace {

using trace::Trace;

/// Every chunk size the satellite demands, plus "whole file" (handled
/// by feeding one chunk of text.size()).
constexpr std::size_t kChunkSizes[] = {1, 2, 3, 7, 64, 4096};

/** Stream-parse `text` feeding the reader `chunk`-byte pieces. */
Trace
readChunked(const std::string &text, std::size_t chunk)
{
    trace::TraceBuildSink sink;
    trace::TraceReader reader(&sink);
    for (std::size_t off = 0; off < text.size() && !reader.done();
         off += chunk)
        reader.feed(text.data() + off,
                    std::min(chunk, text.size() - off));
    reader.finish();
    return sink.take();
}

/** Canonical bytes of a trace (field-exact comparison proxy). */
std::string
canon(const Trace &tr)
{
    std::ostringstream os;
    trace::writeTrace(tr, os);
    return os.str();
}

/** Parse outcome: either the canonical trace bytes or the TraceError
 *  message, tagged so a success can never compare equal to a failure. */
std::string
parseOutcome(const std::string &text, std::size_t chunk)
{
    try {
        return "ok:" + canon(readChunked(text, chunk));
    } catch (const TraceError &e) {
        return "err:" + std::string(e.what());
    }
}

std::string
wholeFileOutcome(const std::string &text)
{
    std::stringstream ss(text);
    try {
        return "ok:" + canon(trace::readTrace(ss));
    } catch (const TraceError &e) {
        return "err:" + std::string(e.what());
    }
}

std::vector<Trace>
builtinTraces()
{
    const auto cp = ckks::CkksParams::c1();
    const auto tp = tfhe::TfheParams::t4();
    return {workloads::helr(cp, 2), workloads::sorting(cp, 256),
            workloads::pbsThroughput(tp, 16),
            workloads::hybridKnn(cp, tp, 64)};
}

TEST(TraceStreaming, ChunkSizeInvarianceOnBuiltins)
{
    for (const Trace &tr : builtinTraces()) {
        const std::string text = canon(tr);
        const u64 wholeHash = trace::contentHash(tr);
        for (const std::size_t chunk : kChunkSizes) {
            const Trace back = readChunked(text, chunk);
            EXPECT_EQ(canon(back), text)
                << tr.name << " at chunk " << chunk;
            EXPECT_EQ(trace::contentHash(back), wholeHash)
                << tr.name << " at chunk " << chunk;
        }
        // Whole-file in one feed, and the readTrace shim itself.
        EXPECT_EQ(canon(readChunked(text, text.size())), text) << tr.name;
        std::stringstream ss(text);
        EXPECT_EQ(canon(trace::readTrace(ss)), text) << tr.name;
    }
}

TEST(TraceStreaming, FixtureCorpusSameOutcomeAtEveryChunkSize)
{
    // Valid fixtures must rebuild identically; malformed ones must
    // throw the *same* TraceError message streamed as whole, at every
    // chunk size down to one byte.
    int seen = 0;
    for (const auto &entry : std::filesystem::recursive_directory_iterator(
             UFC_FIXTURE_DIR)) {
        if (entry.path().extension() != ".ufctrace")
            continue;
        std::ifstream is(entry.path(), std::ios::binary);
        ASSERT_TRUE(is.good()) << entry.path();
        std::ostringstream buf;
        buf << is.rdbuf();
        const std::string text = buf.str();

        const std::string whole = wholeFileOutcome(text);
        for (const std::size_t chunk : kChunkSizes)
            EXPECT_EQ(parseOutcome(text, chunk), whole)
                << entry.path() << " at chunk " << chunk;
        EXPECT_EQ(parseOutcome(text, std::max<std::size_t>(
                                         1, text.size())), whole)
            << entry.path() << " whole-file";
        ++seen;
    }
    EXPECT_GE(seen, 6); // the committed corpus must actually run
}

TEST(TraceStreaming, FuzzedCorpusSameOutcomeStreamedAsWhole)
{
    std::ostringstream os;
    trace::writeTrace(workloads::sorting(ckks::CkksParams::c1(), 256),
                      os);
    const std::string good = os.str();
    const FaultInjector faults(2026, 0.0);
    for (u64 salt = 0; salt < 48; ++salt) {
        const std::string hostile = faults.corruptTraceText(good, salt);
        const std::string whole = wholeFileOutcome(hostile);
        for (const std::size_t chunk : {std::size_t(1), std::size_t(7),
                                        std::size_t(4096)})
            EXPECT_EQ(parseOutcome(hostile, chunk), whole)
                << "salt " << salt << " chunk " << chunk;
    }
}

TEST(TraceStreaming, ReaderMemoryBoundedByChunkSize)
{
    // A trace far larger than the reader bound must flow through
    // compile + execute with the reader never buffering more than one
    // line (<= the chunk size here), and the streamed compile must be
    // observable-identical to the whole-trace path.  Builtins batch
    // their ops into few lines, so build a wide one op-per-line trace.
    Trace big;
    big.name = "streaming_big";
    workloads::setCkksParams(big, ckks::CkksParams::c1());
    big.beginPhase("bulk");
    for (int i = 0; i < 60000; ++i)
        big.push(trace::OpKind::CkksAdd, /*limbs=*/2 + i % 20,
                 /*count=*/1);
    big.endPhase();
    const std::string text = canon(big);
    constexpr std::size_t kChunk = 4096;
    ASSERT_GT(text.size(), 64 * kChunk)
        << "trace too small to exercise the memory bound";

    const sim::UfcModel model;
    sim::UfcPerf perf(sim::UfcConfig{});
    std::size_t peak = 0;
    std::istringstream is(text);
    const compiler::Program streamed = compiler::compileTraceStream(
        is, model.loweringOptions(), perf, model.name(),
        /*lint=*/nullptr, /*opCheck=*/{}, kChunk, &peak);
    EXPECT_LE(peak, kChunk);
    EXPECT_GT(peak, 0u);

    const sim::RunResult viaStream = model.execute(streamed);
    const sim::RunResult viaWhole = model.run(big);
    EXPECT_EQ(viaStream.toJson(), viaWhole.toJson());
}

TEST(TraceStreaming, ModelCompileStreamMatchesCompile)
{
    // Every model's compileStream must produce the same Program its
    // whole-trace compile() does (disassembly is a full structural
    // dump).
    const auto cp = ckks::CkksParams::c1();
    const auto tp = tfhe::TfheParams::t4();
    struct Case
    {
        std::unique_ptr<sim::AcceleratorModel> model;
        Trace tr;
    };
    std::vector<Case> cases;
    cases.push_back({std::make_unique<sim::UfcModel>(),
                     workloads::ckksBootstrapping(cp)});
    cases.push_back({std::make_unique<sim::SharpModel>(),
                     workloads::helr(cp, 2)});
    cases.push_back({std::make_unique<sim::StrixModel>(),
                     workloads::pbsThroughput(tp, 16)});
    cases.push_back({std::make_unique<sim::UfcModel>(),
                     workloads::hybridKnn(cp, tp, 64)});
    for (const Case &c : cases) {
        const std::string text = canon(c.tr);
        std::istringstream is(text);
        std::ostringstream viaStream;
        compiler::disassemble(c.model->compileStream(is), viaStream);
        std::ostringstream viaWhole;
        compiler::disassemble(c.model->compile(c.tr), viaWhole);
        EXPECT_EQ(viaStream.str(), viaWhole.str())
            << c.model->name() << "/" << c.tr.name;
    }
}

TEST(TraceStreaming, SchemeRejectionMatchesWholeTracePath)
{
    // Single-scheme machines reject foreign ops mid-stream with the
    // byte-identical message their whole-trace run() path throws.
    const auto cp = ckks::CkksParams::c1();
    const auto tp = tfhe::TfheParams::t4();
    struct Case
    {
        std::unique_ptr<sim::AcceleratorModel> model;
        Trace tr;
    };
    std::vector<Case> cases;
    cases.push_back({std::make_unique<sim::SharpModel>(),
                     workloads::pbsThroughput(tp, 16)});
    cases.push_back({std::make_unique<sim::StrixModel>(),
                     workloads::helr(cp, 2)});
    for (const Case &c : cases) {
        std::string wholeWhat;
        try {
            c.model->compile(c.tr);
            FAIL() << c.model->name() << " accepted a foreign scheme";
        } catch (const ConfigError &e) {
            wholeWhat = e.what();
        }
        std::istringstream is(canon(c.tr));
        try {
            c.model->compileStream(is);
            FAIL() << c.model->name() << " streamed a foreign scheme";
        } catch (const ConfigError &e) {
            EXPECT_EQ(std::string(e.what()), wholeWhat)
                << c.model->name();
        }
    }
}

} // namespace
} // namespace ufc
