/**
 * @file
 * Tests for the trace IR (serialization round trips, scheme tagging) and
 * the compiler lowering (instruction-count invariants, optimization
 * effects on the emitted stream).
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/error.h"
#include "compiler/lowering.h"
#include "trace/serialize.h"
#include "workloads/workloads.h"

namespace ufc {
namespace {

using trace::OpKind;
using trace::Trace;

/** Instruction sink that records everything. */
struct RecordingSink : public isa::InstSink
{
    RecordingSink() = default;
    // A copy's instructions would still view the original's operands.
    RecordingSink(const RecordingSink &) = delete;
    RecordingSink &operator=(const RecordingSink &) = delete;

    void
    issue(const isa::HwInst &inst) override
    {
        // HwInst::buffers views the issuer's operands for this call
        // only: keep a copy and point the recorded instruction at it.
        operands.emplace_back(inst.buffers.begin(), inst.buffers.end());
        insts.push_back(inst);
        insts.back().buffers = operands.back();
    }

    u64
    countOp(isa::HwOp op) const
    {
        u64 c = 0;
        for (const auto &i : insts)
            if (i.op == op)
                ++c;
        return c;
    }

    u64
    totalWork(isa::HwOp op) const
    {
        u64 w = 0;
        for (const auto &i : insts)
            if (i.op == op)
                w += i.work;
        return w;
    }

    double
    keyBytes() const
    {
        double b = 0.0;
        for (const auto &i : insts)
            for (const auto &ref : i.buffers)
                if (ref.id >= (2ULL << 40) && !ref.write)
                    b += static_cast<double>(ref.bytes);
        return b;
    }

    std::vector<isa::HwInst> insts;
    /// Owned operand copies, one per recorded instruction (a moved
    /// vector keeps its elements in place, so the views stay valid).
    std::vector<std::vector<isa::BufferRef>> operands;
};

Trace
minimalCkksTrace(OpKind kind, int limbs, int count = 1)
{
    Trace tr;
    tr.name = "unit";
    workloads::setCkksParams(tr, ckks::CkksParams::c2());
    tr.push(kind, limbs, count);
    return tr;
}

TEST(TraceSerialize, RoundTripPreservesEverything)
{
    const auto original =
        workloads::hybridKnn(ckks::CkksParams::c2(),
                             tfhe::TfheParams::t3());
    std::stringstream ss;
    trace::writeTrace(original, ss);
    const auto restored = trace::readTrace(ss);

    EXPECT_EQ(restored.name, original.name);
    EXPECT_EQ(restored.ckksRingDim, original.ckksRingDim);
    EXPECT_EQ(restored.ckksLevels, original.ckksLevels);
    EXPECT_EQ(restored.ckksDnum, original.ckksDnum);
    EXPECT_EQ(restored.tfheRingDim, original.tfheRingDim);
    EXPECT_EQ(restored.tfheLweDim, original.tfheLweDim);
    EXPECT_EQ(restored.liveCiphertexts, original.liveCiphertexts);
    ASSERT_EQ(restored.ops.size(), original.ops.size());
    for (size_t i = 0; i < original.ops.size(); ++i) {
        EXPECT_EQ(static_cast<int>(restored.ops[i].kind),
                  static_cast<int>(original.ops[i].kind));
        EXPECT_EQ(restored.ops[i].limbs, original.ops[i].limbs);
        EXPECT_EQ(restored.ops[i].count, original.ops[i].count);
        EXPECT_EQ(restored.ops[i].fanIn, original.ops[i].fanIn);
        EXPECT_EQ(restored.ops[i].keyId, original.ops[i].keyId);
    }
}

TEST(TraceSerialize, AllOpKindsHaveUniqueNames)
{
    const OpKind kinds[] = {
        OpKind::CkksAdd, OpKind::CkksAddPlain, OpKind::CkksMult,
        OpKind::CkksMultPlain, OpKind::CkksRescale, OpKind::CkksRotate,
        OpKind::CkksConjugate, OpKind::CkksModRaise, OpKind::TfheLinear,
        OpKind::TfhePbs, OpKind::TfheKeySwitch, OpKind::TfheModSwitch,
        OpKind::SwitchExtract, OpKind::SwitchRepack};
    std::set<std::string> names;
    for (auto k : kinds) {
        const std::string name = trace::opKindName(k);
        EXPECT_TRUE(names.insert(name).second) << name;
        OpKind back;
        ASSERT_TRUE(trace::opKindFromName(name, back));
        EXPECT_EQ(static_cast<int>(back), static_cast<int>(k));
    }
}

TEST(TraceSerialize, RejectsMalformedInput)
{
    std::stringstream ss("ufctrace 2\ntrace x\nop bogus.op 1 1 0 0\nend\n");
    EXPECT_THROW({ trace::readTrace(ss); }, TraceError);
}

TEST(Lowering, KeySwitchNttCountMatchesHybridStructure)
{
    // A multiply at `limbs` emits, inside its key switch:
    //   digits x NTT(limbs+K) for ModUp, plus the ModDown/tensor NTTs.
    const auto params = ckks::CkksParams::c2();
    const int limbs = 20;
    const int alpha = (params.levels + params.dnum - 1) / params.dnum;
    const int digits = (limbs + alpha - 1) / alpha;

    RecordingSink sink;
    compiler::LoweringOptions opts;
    auto tr = minimalCkksTrace(OpKind::CkksMult, limbs);
    compiler::Lowering lowering(&tr, opts, &sink);
    lowering.run();

    // Forward NTTs: one per raised digit (batch limbs+K) plus the final
    // ModDown NTT.
    EXPECT_EQ(sink.countOp(isa::HwOp::Ntt),
              static_cast<u64>(digits) + 1);
    // Inverse NTTs: input + ModDown accumulators.
    EXPECT_EQ(sink.countOp(isa::HwOp::Intt), 2u);
    // BConv MACs: ModUp per digit + inner products per digit + ModDown.
    EXPECT_EQ(sink.countOp(isa::HwOp::BconvMac),
              static_cast<u64>(2 * digits) + 1);
}

TEST(Lowering, RotationCostsDependOnAutoStrategy)
{
    const int limbs = 12;
    auto tr = minimalCkksTrace(OpKind::CkksRotate, limbs);

    RecordingSink viaNtt;
    compiler::LoweringOptions nttOpts;
    nttOpts.autoViaNtt = true;
    compiler::Lowering(&tr, nttOpts, &viaNtt).run();

    RecordingSink viaNoc;
    compiler::LoweringOptions nocOpts;
    nocOpts.autoViaNtt = false;
    compiler::Lowering(&tr, nocOpts, &viaNoc).run();

    // The via-NTT path emits NttAuto work and no shuffles; the NoC path
    // the reverse (Section IV-C2).
    EXPECT_GT(viaNtt.countOp(isa::HwOp::NttAuto), 0u);
    EXPECT_EQ(viaNtt.countOp(isa::HwOp::Shuffle), 0u);
    EXPECT_EQ(viaNoc.countOp(isa::HwOp::NttAuto), 0u);
    EXPECT_GT(viaNoc.countOp(isa::HwOp::Shuffle), 0u);
}

TEST(Lowering, OnTheFlyKeyGenShrinksKeyTraffic)
{
    const int limbs = 18;
    auto tr = minimalCkksTrace(OpKind::CkksMult, limbs, 4);

    RecordingSink with;
    compiler::LoweringOptions onOpts;
    onOpts.onTheFlyKeyGen = true;
    compiler::Lowering(&tr, onOpts, &with).run();

    RecordingSink without;
    compiler::LoweringOptions offOpts;
    offOpts.onTheFlyKeyGen = false;
    compiler::Lowering(&tr, offOpts, &without).run();

    EXPECT_LT(with.keyBytes(), 0.5 * without.keyBytes());
    EXPECT_GT(with.countOp(isa::HwOp::KeyGenOtf), 0u);
    EXPECT_EQ(without.countOp(isa::HwOp::KeyGenOtf), 0u);
}

TEST(Lowering, PbsBatchingFollowsParallelismChoice)
{
    Trace tr;
    tr.name = "pbs";
    workloads::setTfheParams(tr, tfhe::TfheParams::t1());
    tr.push(OpKind::TfhePbs, 0, 64);

    RecordingSink tvlp;
    compiler::LoweringOptions tvOpts;
    tvOpts.parallelism = compiler::Parallelism::TvLP;
    compiler::Lowering(&tr, tvOpts, &tvlp).run();

    RecordingSink colp;
    compiler::LoweringOptions coOpts;
    coOpts.parallelism = compiler::Parallelism::CoLP;
    compiler::Lowering(&tr, coOpts, &colp).run();

    // TvLP packs test vectors: fewer, wider NTT instructions; CoLP emits
    // a layout shuffle per iteration (Section V-B).
    EXPECT_LT(tvlp.countOp(isa::HwOp::Ntt), colp.countOp(isa::HwOp::Ntt));
    EXPECT_EQ(tvlp.countOp(isa::HwOp::Shuffle), 0u);
    EXPECT_GT(colp.countOp(isa::HwOp::Shuffle), 0u);
    // Total butterfly work is schedule-invariant.
    EXPECT_EQ(tvlp.totalWork(isa::HwOp::Ntt),
              colp.totalWork(isa::HwOp::Ntt));
}

TEST(Lowering, PbsWorkScalesLinearlyWithCount)
{
    Trace tr1, tr4;
    tr1.name = tr4.name = "pbs";
    workloads::setTfheParams(tr1, tfhe::TfheParams::t2());
    workloads::setTfheParams(tr4, tfhe::TfheParams::t2());
    tr1.push(OpKind::TfhePbs, 0, 32);
    tr4.push(OpKind::TfhePbs, 0, 128);

    compiler::LoweringOptions opts;
    RecordingSink s1, s4;
    compiler::Lowering(&tr1, opts, &s1).run();
    compiler::Lowering(&tr4, opts, &s4).run();
    EXPECT_EQ(4 * s1.totalWork(isa::HwOp::Ntt),
              s4.totalWork(isa::HwOp::Ntt));
    EXPECT_EQ(4 * s1.totalWork(isa::HwOp::Ewmm),
              s4.totalWork(isa::HwOp::Ewmm));
}

TEST(Lowering, DeeperCiphertextsCostMore)
{
    compiler::LoweringOptions opts;
    u64 prev = 0;
    for (int limbs : {4, 10, 16, 22}) {
        RecordingSink sink;
        auto tr = minimalCkksTrace(OpKind::CkksMult, limbs);
        compiler::Lowering(&tr, opts, &sink).run();
        u64 total = 0;
        for (const auto &i : sink.insts)
            total += i.work;
        EXPECT_GT(total, prev) << "limbs=" << limbs;
        prev = total;
    }
}

TEST(Workloads, LevelTrackingNeverUnderflows)
{
    for (const auto &tr :
         workloads::ckksSuite(ckks::CkksParams::c1())) {
        for (const auto &op : tr.ops) {
            EXPECT_GE(op.limbs, 1) << tr.name;
            EXPECT_LE(op.limbs, 24) << tr.name;
        }
    }
}

TEST(Workloads, GeneratorsAreDeterministic)
{
    const auto a = workloads::resnet20(ckks::CkksParams::c3());
    const auto b = workloads::resnet20(ckks::CkksParams::c3());
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (size_t i = 0; i < a.ops.size(); ++i) {
        EXPECT_EQ(static_cast<int>(a.ops[i].kind),
                  static_cast<int>(b.ops[i].kind));
        EXPECT_EQ(a.ops[i].count, b.ops[i].count);
    }
}

} // namespace
} // namespace ufc
