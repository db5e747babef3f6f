/**
 * @file
 * Chrome trace-event JSON export of the simulated timeline.
 *
 * Uses the legacy JSON trace format ("traceEvents" array of "X" complete
 * events plus "M" thread-name metadata), which both chrome://tracing and
 * ui.perfetto.dev ingest.  All events share pid 1; each track is a tid.
 * Durations are simulated cycles written into the microsecond fields, so
 * the viewer's time axis reads directly in cycles.
 */

#include "sim/timeline.h"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/error.h"
#include "common/json.h"

namespace ufc {
namespace sim {

namespace {

constexpr auto num = json::number;

} // namespace

const char *
Timeline::trackName(int track)
{
    if (track >= 0 && track < isa::kNumResources)
        return isa::resourceName(static_cast<isa::Resource>(track));
    if (track == kHbmTrack)
        return "hbm";
    if (track == kPhaseTrack)
        return "phase";
    return "unknown";
}

void
Timeline::writeChromeTrace(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    // Thread-name metadata first so every track is labelled even when it
    // carries no slices.
    for (int t = 0; t < kNumTracks; ++t) {
        if (t)
            os << ",";
        os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << t
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << trackName(t) << "\"}}";
    }
    for (const auto &s : slices_) {
        os << ",{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track
           << ",\"name\":\"" << s.name << "\",\"ts\":"
           << num(s.beginCycle)
           << ",\"dur\":" << num(s.endCycle - s.beginCycle)
           << ",\"args\":{";
        if (s.bytes > 0)
            os << "\"bytes\":" << num(s.bytes) << ",";
        os << "\"depth\":" << s.depth << "}}";
    }
    os << "]}\n";
}

void
Timeline::saveChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    UFC_EXPECT(os.good(), ConfigError,
               "cannot open " << path << " for writing");
    writeChromeTrace(os);
    UFC_EXPECT(os.good(), ConfigError, "write failed: " << path);
}

} // namespace sim
} // namespace ufc
