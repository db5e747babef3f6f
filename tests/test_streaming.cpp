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

/** `src`'s ops wrapped in workload regions that cycle through three
 *  names. */
Trace
withRegions(const Trace &src)
{
    static const char *const kNames[] = {"region_alpha", "region_bravo",
                                         "region_charlie"};
    Trace tr = src;
    tr.name = src.name + "-regions";
    tr.ops.clear();
    tr.phases.clear();
    for (std::size_t i = 0; i < src.ops.size(); ++i) {
        if (i % 2 == 0)
            tr.beginPhase(kNames[(i / 2) % 3]);
        tr.ops.push_back(src.ops[i]);
        if (i % 2 == 1 || i + 1 == src.ops.size())
            tr.endPhase();
    }
    return tr;
}

/**
 * canon(tr) with every phase line moved to just before the op it
 * precedes, a layout the chunk protocol accepts.  Streamed this way,
 * each marker is queued, fired and freed before the next one parses,
 * so later markers reuse the freed markers' storage: a name pointer a
 * sink saw before comes back carrying another name.
 */
std::string
interleaved(const Trace &tr)
{
    std::istringstream in(canon(tr));
    std::string head, tail;
    std::vector<std::pair<u64, std::string>> phases; // (opIndex, line)
    std::vector<std::string> ops;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("phase ", 0) == 0) {
            std::istringstream fields(line);
            std::string word, kind;
            u64 at = 0;
            fields >> word >> kind >> at;
            phases.emplace_back(at, line + "\n");
        } else if (line.rfind("op ", 0) == 0) {
            ops.push_back(line + "\n");
        } else if (ops.empty() && phases.empty()) {
            head += line + "\n";
        } else {
            tail += line + "\n";
        }
    }
    std::string out = head;
    std::size_t next = 0;
    for (u64 i = 0; i < ops.size(); ++i) {
        while (next < phases.size() && phases[next].first <= i)
            out += phases[next++].second;
        out += ops[i];
    }
    for (; next < phases.size(); ++next)
        out += phases[next].second;
    return out + tail;
}

TEST(TraceStreaming, ModelCompileStreamMatchesCompile)
{
    // Every model's compileStream must produce the same Program its
    // whole-trace compile() does (disassembly is a full structural
    // dump, phase names included), at every chunk size.
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
        std::ostringstream viaWhole;
        compiler::disassemble(c.model->compile(c.tr), viaWhole);
        for (const std::size_t chunk : kChunkSizes) {
            std::istringstream is(canon(c.tr));
            std::ostringstream viaStream;
            compiler::disassemble(c.model->compileStream(is, chunk),
                                  viaStream);
            EXPECT_EQ(viaStream.str(), viaWhole.str())
                << c.model->name() << "/" << c.tr.name << " at chunk "
                << chunk;
        }
    }

    // Region names that die as they fire (see interleaved()).
    const sim::SharpModel sharp;
    const Trace regions = withRegions(workloads::helr(cp, 3));
    ASSERT_GE(regions.phases.size(), 30u);
    const std::string text = interleaved(regions);
    std::istringstream back(text);
    ASSERT_EQ(canon(trace::readTrace(back)), canon(regions));
    std::ostringstream viaWhole;
    compiler::disassemble(sharp.compile(regions), viaWhole);
    for (const std::size_t chunk : kChunkSizes) {
        std::istringstream is(text);
        std::ostringstream viaStream;
        compiler::disassemble(sharp.compileStream(is, chunk), viaStream);
        EXPECT_EQ(viaStream.str(), viaWhole.str())
            << regions.name << " interleaved, at chunk " << chunk;
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
