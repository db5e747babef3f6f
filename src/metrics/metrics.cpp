#include "metrics/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "metrics/flight_recorder.h"

namespace ufc {
namespace metrics {

namespace detail {

std::atomic<int> gState{-1};

bool
initFromEnv()
{
    const char *env = std::getenv("UFC_METRICS");
    const bool on =
        env != nullptr && *env != '\0' && std::string(env) != "0";
    int expected = -1;
    gState.compare_exchange_strong(expected, on ? 1 : 0,
                                   std::memory_order_relaxed);
    // Either we resolved it or another thread / setEnabled() did first;
    // in both cases re-read the settled value.
    return gState.load(std::memory_order_relaxed) != 0;
}

} // namespace detail

void
setEnabled(bool on)
{
    detail::gState.store(on ? 1 : 0, std::memory_order_relaxed);
}

u64
Histogram::count() const
{
    u64 n = 0;
    for (int i = 0; i < kBuckets; ++i)
        n += buckets_[i].load(std::memory_order_relaxed);
    return n;
}

u64
Histogram::percentile(double q) const
{
    u64 counts[kBuckets];
    u64 total = 0;
    for (int i = 0; i < kBuckets; ++i) {
        counts[i] = buckets_[i].load(std::memory_order_relaxed);
        total += counts[i];
    }
    if (total == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the q-quantile sample, 1-based: ceil(q * total), at least 1.
    u64 rank = static_cast<u64>(q * static_cast<double>(total));
    if (static_cast<double>(rank) < q * static_cast<double>(total))
        ++rank;
    if (rank == 0)
        rank = 1;
    u64 seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        seen += counts[i];
        if (seen >= rank)
            return bucketUpperBound(i);
    }
    return bucketUpperBound(kBuckets - 1);
}

void
Histogram::zero()
{
    for (int i = 0; i < kBuckets; ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
}

namespace {

enum class Kind { Counter, Gauge, Histogram };

struct Slot {
    Kind kind;
    Counter *c = nullptr;
    Gauge *g = nullptr;
    Histogram *h = nullptr;
};

struct Registry {
    std::mutex mu;
    // Ordered map: exposition iterates it directly for deterministic,
    // name-sorted output.
    std::map<std::string, Slot> slots;
};

Registry &
registry()
{
    static Registry *r = new Registry(); // never freed
    return *r;
}

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Counter: return "counter";
      case Kind::Gauge: return "gauge";
      case Kind::Histogram: return "histogram";
    }
    return "?";
}

Slot &
lookup(const std::string &name, const std::string &help, Kind kind)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.slots.find(name);
    if (it != r.slots.end()) {
        if (it->second.kind != kind)
            throw ConfigError("metric '" + name + "' already registered as " +
                              kindName(it->second.kind) + ", requested as " +
                              kindName(kind));
        return it->second;
    }
    Slot s;
    s.kind = kind;
    switch (kind) {
      case Kind::Counter: s.c = new Counter(name, help); break;
      case Kind::Gauge: s.g = new Gauge(name, help); break;
      case Kind::Histogram: s.h = new Histogram(name, help); break;
    }
    return r.slots.emplace(name, s).first->second;
}

} // namespace

Counter &
counter(const std::string &name, const std::string &help)
{
    return *lookup(name, help, Kind::Counter).c;
}

Gauge &
gauge(const std::string &name, const std::string &help)
{
    return *lookup(name, help, Kind::Gauge).g;
}

Histogram &
histogram(const std::string &name, const std::string &help)
{
    return *lookup(name, help, Kind::Histogram).h;
}

void
writePrometheus(std::ostream &os)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto &[name, slot] : r.slots) {
        switch (slot.kind) {
          case Kind::Counter: {
            if (!slot.c->help().empty())
                os << "# HELP " << name << " " << slot.c->help() << "\n";
            os << "# TYPE " << name << " counter\n";
            os << name << " " << slot.c->value() << "\n";
            break;
          }
          case Kind::Gauge: {
            if (!slot.g->help().empty())
                os << "# HELP " << name << " " << slot.g->help() << "\n";
            os << "# TYPE " << name << " gauge\n";
            os << name << " " << slot.g->value() << "\n";
            os << "# TYPE " << name << "_high_water gauge\n";
            os << name << "_high_water " << slot.g->highWater() << "\n";
            break;
          }
          case Kind::Histogram: {
            const Histogram &h = *slot.h;
            if (!h.help().empty())
                os << "# HELP " << name << " " << h.help() << "\n";
            os << "# TYPE " << name << " histogram\n";
            // Cumulative buckets, up to the highest non-empty one.
            int top = -1;
            for (int i = 0; i < Histogram::kBuckets; ++i)
                if (h.bucketCount(i) > 0)
                    top = i;
            u64 cum = 0;
            for (int i = 0; i <= top; ++i) {
                cum += h.bucketCount(i);
                os << name << "_bucket{le=\""
                   << Histogram::bucketUpperBound(i) << "\"} " << cum
                   << "\n";
            }
            os << name << "_bucket{le=\"+Inf\"} " << h.count() << "\n";
            os << name << "_sum " << h.sum() << "\n";
            os << name << "_count " << h.count() << "\n";
            break;
          }
        }
    }
}

void
writeJson(std::ostream &os)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    os << "{\"schema\":" << json::quote(kMetricsSchema);
    os << ",\"counters\":{";
    bool first = true;
    for (const auto &[name, slot] : r.slots) {
        if (slot.kind != Kind::Counter)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << json::quote(name) << ":" << slot.c->value();
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, slot] : r.slots) {
        if (slot.kind != Kind::Gauge)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << json::quote(name) << ":{\"value\":" << slot.g->value()
           << ",\"high_water\":" << slot.g->highWater() << "}";
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, slot] : r.slots) {
        if (slot.kind != Kind::Histogram)
            continue;
        if (!first)
            os << ",";
        first = false;
        const Histogram &h = *slot.h;
        os << json::quote(name) << ":{\"count\":" << h.count()
           << ",\"sum\":" << h.sum() << ",\"p50\":" << h.percentile(0.50)
           << ",\"p95\":" << h.percentile(0.95)
           << ",\"p99\":" << h.percentile(0.99) << ",\"buckets\":{";
        bool bFirst = true;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
            const u64 n = h.bucketCount(i);
            if (n == 0)
                continue;
            if (!bFirst)
                os << ",";
            bFirst = false;
            os << "\"" << Histogram::bucketUpperBound(i) << "\":" << n;
        }
        os << "}}";
    }
    os << "}}";
}

void
savePrometheus(const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw ConfigError("cannot open metrics output file: " + path);
    writePrometheus(out);
    if (!out)
        throw ConfigError("failed writing metrics output file: " + path);
}

void
resetForTest()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto &[name, slot] : r.slots) {
        switch (slot.kind) {
          case Kind::Counter: slot.c->zero(); break;
          case Kind::Gauge: slot.g->zero(); break;
          case Kind::Histogram: slot.h->zero(); break;
        }
    }
    flightRecorder().clear();
}

} // namespace metrics
} // namespace ufc
