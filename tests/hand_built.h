/**
 * @file
 * Helper for tests that build a compiler::Program by hand instead of
 * through compiler::ProgramBuilder.
 */

#ifndef UFC_TESTS_HAND_BUILT_H
#define UFC_TESTS_HAND_BUILT_H

#include <cstddef>

#include "compiler/bytecode.h"

namespace ufc {

/**
 * Fill a hand-built body's shapeCounts as ProgramBuilder counts them:
 * every instruction once, a folded loop's body once per trip.  Call it
 * once the body's code and loops are complete.
 */
inline void
countShapes(compiler::LoweredBody &body)
{
    auto &counts = body.shapeCounts.edit();
    counts.assign(body.shapes.size(), 0);
    std::size_t li = 0;
    for (u64 i = 0; i < body.code.size(); ++i) {
        while (li < body.loops.size() && body.loops[li].end <= i)
            ++li;
        const bool inLoop = li < body.loops.size() &&
                            i + body.loops[li].bodyLen >= body.loops[li].end;
        counts.at(body.code[i].shape) += inLoop ? body.loops[li].trips : 1;
    }
}

} // namespace ufc

#endif // UFC_TESTS_HAND_BUILT_H
