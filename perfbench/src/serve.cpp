/**
 * @file
 * The `serve_warm` workload: an in-process ufc_serve daemon with two
 * executor workers, driven through its AF_UNIX protocol by at most two
 * client connections.  The traffic is synthetic (the repo has no
 * recorded serve traffic): a seeded open-loop schedule at a fixed offered
 * rate over a small set of cheap builtin specs, a share of them sent as
 * inline trace text, and a small share at fresh scales that must compile.
 */

#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "harness.h"
#include "metrics/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trace/serialize.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace ufc;
using serve::JsonValue;

namespace {

/// Offered rate of the open-loop phase, frozen at about a quarter of the
/// closed-loop capacity_rps measured on the parent commit (about 1450/s
/// on one CPU of a shared 4-core x86 host, RelWithDebInfo build).  At
/// half of it the latencies swung by 2x between runs with the host's
/// load.
constexpr double kOfferedRps = 400.0;
/// Shares of the request mix (the rest repeat a builtin spec).
constexpr double kInlineShare = 0.10;
constexpr double kFreshShare = 0.02;
/// Fresh-scale requests run pbs on UFC.  Each chunk of traffic (see
/// freshSlot()) draws its fresh scales from its own slot of kFreshPerSlot
/// positions in a band of kFreshSlots slots, so a seed fixes every
/// chunk's requests however many the timed closed-loop chunks before it
/// completed.  A run of up to 50 s uses fewer slots than the band holds,
/// so every fresh request compiles (a slot overflows only past
/// kFreshPerSlot fresh requests in one chunk, several times the expected
/// count), while the daemon's caches and the cost per request stay
/// bounded however long the run.  Positions map to scales through a
/// multiplicative permutation (kFreshStride is coprime with the band),
/// so every slot's scales, and so its cost, spread over the whole band.
constexpr const char *kFreshWorkload = "pbs";
constexpr int kFreshScaleBase = 257;
constexpr int kFreshPerSlot = 32;
constexpr int kFreshSlots = 80;
constexpr int kFreshBand = kFreshSlots * kFreshPerSlot;
constexpr int kFreshStride = 97;
/// Fresh scales also checked against an in-process run.
constexpr std::size_t kFreshVerified = 16;
/// One timed cycle: serial passes, an open-loop chunk (long enough for
/// ten requests beyond its p99) and kClosedChunks closed-loop chunks
/// spread around it, about kCycleSeconds in all.
constexpr int kSerialPasses = 10;
constexpr double kOpenSeconds = 2.5;
constexpr int kClosedChunks = 3;
constexpr double kClosedSeconds = 0.2;
constexpr double kCycleSeconds = 3.3;
/// Set-up samples (daemon start plus a cold pass) taken per timed cycle.
constexpr int kSetupPerCycle = 2;

/** Seed of one open-loop or closed-loop chunk. */
std::uint64_t
chunkSeed(std::uint64_t seed, int chunk)
{
    return (seed << 8) + static_cast<std::uint64_t>(chunk);
}

/** Fresh-scale slot of a chunk of traffic: 0 for the warm-up, then per
 *  timed cycle (or traced phase) part 0 for its open loop and parts 1 to
 *  kClosedChunks for its closed-loop chunks. */
int
freshSlot(int cycle, int part)
{
    return 1 + (1 + kClosedChunks) * cycle + part;
}

/** Scale of the fresh request at position `pos` of the band. */
int
freshScale(int pos)
{
    const long long p = pos % kFreshBand;
    return kFreshScaleBase + static_cast<int>(p * kFreshStride % kFreshBand);
}

struct Spec
{
    const char *machine;
    const char *workload;
    int scale;
};

/** The repeat specs: cheap builtins the caches keep warm. */
const Spec kRepeat[] = {
    {"ufc", "pbs", 64},        {"strix", "pbs", 64},
    {"ufc", "helr", 3},        {"sharp", "helr", 3},
    {"ufc", "sorting", 256},   {"sharp", "sorting", 256},
    {"ufc", "bootstrap", 1},   {"sharp", "bootstrap", 1},
};
constexpr int kSpecs = sizeof(kRepeat) / sizeof(kRepeat[0]);

std::string
specLabel(const char *machine, const char *workload, int scale)
{
    return std::string(machine) + ":" + workload + ":" +
           std::to_string(scale);
}

/** The same trace the daemon generates for a builtin spec. */
trace::Trace
builtinTrace(const std::string &workload, int scale)
{
    const auto c2 = ckks::CkksParams::c2();
    if (workload == "pbs")
        return workloads::pbsThroughput(tfhe::TfheParams::t1(), scale);
    if (workload == "helr")
        return workloads::helr(c2, scale);
    if (workload == "sorting")
        return workloads::sorting(c2, scale);
    return workloads::ckksBootstrapping(c2, scale);
}

std::shared_ptr<const sim::AcceleratorModel>
modelFor(const std::string &machine)
{
    if (machine == "sharp")
        return std::make_shared<sim::SharpModel>();
    if (machine == "strix")
        return std::make_shared<sim::StrixModel>();
    return std::make_shared<sim::UfcModel>();
}

/** A served result with its host-time field zeroed, re-serialized. */
std::string
canonicalServed(JsonValue result)
{
    result.set("host_seconds", JsonValue::makeInt(0));
    return result.dump();
}

enum class Kind
{
    Repeat,
    Inline,
    Fresh,
};

struct Request
{
    double due = 0.0; ///< seconds after the phase start
    Kind kind = Kind::Repeat;
    int spec = 0;  ///< index into kRepeat (Repeat, Inline)
    int scale = 0; ///< Fresh only
};

/** Draws the request mix.  The n-th fresh request takes position
 *  first + step * n of `slot`. */
class Mix
{
  public:
    Mix(std::uint64_t seed, int slot, int first = 0, int step = 1)
        : rng_(seed), freshFirst_((slot % kFreshSlots) * kFreshPerSlot + first),
          freshStep_(step)
    {}

    Request
    next()
    {
        Request r;
        const double u = rng_.uniformReal();
        r.kind = u < kFreshShare                  ? Kind::Fresh
                 : u < kFreshShare + kInlineShare ? Kind::Inline
                                                  : Kind::Repeat;
        r.spec = static_cast<int>(rng_.uniform(kSpecs));
        if (r.kind == Kind::Fresh)
            r.scale = freshScale(freshFirst_ + freshStep_ * freshDrawn_++);
        return r;
    }

    /** Exponential inter-arrival gap at `rate` per second. */
    double
    gap(double rate)
    {
        return -std::log(1.0 - rng_.uniformReal()) / rate;
    }

  private:
    Rng rng_;
    int freshFirst_;
    int freshStep_;
    int freshDrawn_ = 0;
};

/** Open-loop schedule for one phase: Poisson arrivals at `rate`. */
std::vector<Request>
schedule(std::uint64_t seed, double rate, double seconds, int slot)
{
    Mix mix(seed, slot);
    std::vector<Request> out;
    for (double t = mix.gap(rate); t < seconds; t += mix.gap(rate)) {
        Request r = mix.next();
        r.due = t;
        out.push_back(r);
    }
    return out;
}

/** Warm-up traffic, before the timed phases (fresh-scale slot 0). */
std::vector<Request>
warmUpSchedule(std::uint64_t seed)
{
    return schedule(seed ^ 0x77ULL, kOfferedRps, 1.0, 0);
}

/** Open-loop schedule of one timed cycle or traced phase. */
std::vector<Request>
openLoopSchedule(std::uint64_t seed, int cycle)
{
    return schedule(chunkSeed(seed, cycle), kOfferedRps, kOpenSeconds,
                    freshSlot(cycle, 0));
}

/** Request mix of closed-loop connection `t` (0 or 1) in chunk `chunk`
 *  of one cycle; the two connections take alternate positions of the
 *  chunk's slot. */
Mix
closedLoopMix(std::uint64_t seed, int cycle, int chunk, int t)
{
    return Mix(chunkSeed(seed, cycle) * 2 * kClosedChunks +
                   static_cast<std::uint64_t>(2 * chunk + t),
               freshSlot(cycle, 1 + chunk), t, 2);
}

/** Shared state of the workload: references and the daemon. */
struct Harness
{
    std::string socketPath;
    std::vector<std::string> texts;     ///< inline trace text per spec
    std::vector<std::string> reference; ///< canonical result per spec
    /// First served result per fresh scale: later results at that scale
    /// must equal it, and the first kFreshVerified scales are checked
    /// against an in-process run after the timed phases.
    std::mutex freshMu;
    std::map<int, std::string> fresh;
    std::atomic<int> injectLeft{0};
    std::unique_ptr<serve::Server> server;

    JsonValue
    job(const Request &r)
    {
        JsonValue j = JsonValue::makeObject();
        if (r.kind == Kind::Fresh) {
            j.set("machine", JsonValue::makeString("ufc"));
            j.set("workload", JsonValue::makeString(kFreshWorkload));
            j.set("scale", JsonValue::makeInt(r.scale));
            j.set("label", JsonValue::makeString(
                               specLabel("ufc", kFreshWorkload, r.scale)));
        } else {
            const Spec &s = kRepeat[r.spec];
            j.set("machine", JsonValue::makeString(s.machine));
            if (r.kind == Kind::Inline) {
                j.set("trace_text", JsonValue::makeString(texts[r.spec]));
            } else {
                j.set("workload", JsonValue::makeString(s.workload));
                j.set("scale", JsonValue::makeInt(s.scale));
            }
            j.set("label", JsonValue::makeString(
                               specLabel(s.machine, s.workload, s.scale)));
        }
        if (injectLeft.fetch_sub(1) > 0) {
            // The benchmark's own failure-counting test: a one-cycle
            // watchdog makes this request fail inside the daemon.
            j.set("max_cycles", JsonValue::makeInt(1));
        }
        return j;
    }

    /** Check one result response; returns an error or "". */
    std::string
    verify(const Request &r, const JsonValue &resp)
    {
        if (!resp.getBool("ok"))
            return "request failed: " + resp.getString("code") + " " +
                   resp.getString("message");
        const JsonValue *res = resp.find("result");
        if (res == nullptr)
            return "result missing";
        if (r.kind == Kind::Fresh) {
            const std::string served = canonicalServed(*res);
            std::lock_guard<std::mutex> lk(freshMu);
            const auto [it, first] = fresh.emplace(r.scale, served);
            return first || it->second == served
                       ? ""
                       : "fresh result at scale " + std::to_string(r.scale) +
                             " differs from its first serving";
        }
        return canonicalServed(*res) == reference[r.spec]
                   ? ""
                   : "served result differs from the in-process run of " +
                         specLabel(kRepeat[r.spec].machine,
                                   kRepeat[r.spec].workload,
                                   kRepeat[r.spec].scale);
    }

    void
    start()
    {
        serve::ServeConfig cfg;
        cfg.socketPath = socketPath;
        cfg.workers = 2;
        cfg.queueCapacity = 256;
        // Generous per-tenant buckets: nothing is rate limited at the
        // offered rate, but the limiter still runs on every submit.
        cfg.tenantBurst = 4096.0;
        cfg.tenantRatePerSec = 100000.0;
        // Retention fills within the first seconds of traffic, so peak
        // RSS does not depend on how many requests a run completes.
        cfg.resultRetention = 2048;
        server = std::make_unique<serve::Server>(cfg);
        server->start();
    }

    void
    stop()
    {
        if (!server)
            return;
        server->beginDrain();
        server->awaitDrained();
        server->stop();
        server.reset();
    }
};

/** Submit one request and wait for its result on the same connection;
 *  returns the result response, or the submit response if rejected. */
JsonValue
roundTrip(Harness &h, serve::Client &c, const Request &r,
          const std::string &tenant)
{
    JsonValue sub = c.submit(h.job(r), tenant);
    if (!sub.getBool("ok"))
        return sub;
    return c.waitResult(sub.getString("id"), 60000.0);
}

/** One serial pass over every repeat spec on one connection; results
 *  are checked after the pass is timed. */
double
serialPass(Harness &h, serve::Client &c, Report &rep)
{
    std::vector<JsonValue> resps;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSpecs; ++i) {
        Request r;
        r.spec = i;
        resps.push_back(roundTrip(h, c, r, "serial"));
    }
    const double seconds = secondsSince(t0);
    for (int i = 0; i < kSpecs; ++i) {
        Request r;
        r.spec = i;
        const std::string err = h.verify(r, resps[i]);
        rep.unit(err.empty(), err);
    }
    return seconds;
}

/**
 * One set-up sample: start a daemon of its own next to `h`'s, run one
 * cold pass over every repeat spec, then drain it.  Returns the seconds
 * from the start to the end of the pass.
 */
double
setupSample(const Harness &h, int n, Report &rep)
{
    Harness s;
    s.socketPath = h.socketPath + "." + std::to_string(n);
    s.texts = h.texts;
    s.reference = h.reference;
    const Clock::time_point t0 = Clock::now();
    s.start();
    double seconds;
    {
        serve::Client c;
        c.connect(s.socketPath, 20);
        serialPass(s, c, rep);
        seconds = secondsSince(t0);
    }
    s.stop();
    return seconds;
}

struct OpenLoopResult
{
    std::vector<double> latencyMs; ///< due -> result, failures = 1e9
    std::vector<double> lagMs, submitMs, serviceMs, queueMs;
};

constexpr double kMissedMs = 1e9;

/**
 * Open loop: a sender submits each request at its due time on one
 * connection whatever the backlog; a collector waits for the results in
 * submission order on the second connection.  Latency runs from the due
 * time, so a stall also charges the requests queued behind it.
 */
OpenLoopResult
openLoop(Harness &h, const std::vector<Request> &reqs, std::uint64_t idBase,
         Report &rep)
{
    struct Sent
    {
        std::size_t index;
        std::string id;
        int root;
        Clock::time_point due, sent;
    };
    struct Completed
    {
        JsonValue resp;
        Clock::time_point due, sent, at;
    };
    OpenLoopResult out;
    out.latencyMs.assign(reqs.size(), kMissedMs);
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Sent> inflight;
    bool done = false;
    std::vector<std::string> errors(reqs.size());
    std::vector<Completed> completed(reqs.size());
    Tracer &tr = tracer();

    serve::Client sender, collector;
    sender.connect(h.socketPath, 20);
    collector.connect(h.socketPath, 20);
    const Clock::time_point start = Clock::now();

    std::thread collect([&] {
        for (;;) {
            Sent s;
            {
                std::unique_lock<std::mutex> lk(mu);
                cv.wait(lk, [&] { return done || !inflight.empty(); });
                if (inflight.empty())
                    return;
                s = std::move(inflight.front());
                inflight.pop_front();
            }
            JsonValue resp;
            {
                Scope span("serve", "serve.wait_result", idBase + s.index,
                           s.root);
                resp = collector.waitResult(s.id, 60000.0);
            }
            const Clock::time_point now = Clock::now();
            tr.close(s.root, now);
            // Checked after the phase: the collector only records, so
            // its own work does not queue the results behind it.
            completed[s.index] = Completed{std::move(resp), s.due, s.sent, now};
        }
    });

    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Request &r = reqs[i];
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(r.due));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        out.lagMs.push_back(1e3 * secondsBetween(due, sent));
        const std::uint64_t rid = idBase + i;
        const int root = tr.record("bench", "bench.request", due, sent, -1,
                                   rid);
        JsonValue sub;
        {
            Scope span("serve", "serve.submit", rid, root);
            sub = sender.submit(h.job(r), i % 2 ? "tenant-b" : "tenant-a");
        }
        out.submitMs.push_back(1e3 * secondsSince(sent));
        if (!sub.getBool("ok")) {
            tr.close(root, Clock::now());
            errors[i] = "submit rejected: " + sub.getString("code");
            continue;
        }
        {
            std::lock_guard<std::mutex> lk(mu);
            inflight.push_back(Sent{i, sub.getString("id"), root, due, sent});
        }
        cv.notify_one();
        if (r.kind == Kind::Inline && tr.on()) {
            // What the daemon does with inline text on every request,
            // timed here off the request's own latency path.
            Scope span("trace", "trace.parse", rid, root);
            std::istringstream is(h.texts[r.spec]);
            (void)trace::readTrace(is);
        }
    }
    {
        std::lock_guard<std::mutex> lk(mu);
        done = true;
    }
    cv.notify_one();
    collect.join();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Completed &c = completed[i];
        if (errors[i].empty())
            errors[i] = h.verify(reqs[i], c.resp);
        rep.unit(errors[i].empty(), errors[i]);
        if (!errors[i].empty())
            continue;
        const double service =
            1e3 * c.resp.find("result")->getDouble("host_seconds");
        out.latencyMs[i] = 1e3 * secondsBetween(c.due, c.at);
        out.serviceMs.push_back(service);
        out.queueMs.push_back(1e3 * secondsBetween(c.sent, c.at) - service);
    }
    return out;
}

/** Closed loop at two connections: each sends its next request when the
 *  previous one has completed.  Returns completed requests per second.
 *  How many requests complete depends on timing; which ones does not. */
double
closedLoop(Harness &h, std::uint64_t seed, int cycle, int chunk,
           double seconds, Report &rep)
{
    std::vector<std::pair<Request, JsonValue>> done[2];
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            serve::Client c;
            c.connect(h.socketPath, 20);
            Mix mix = closedLoopMix(seed, cycle, chunk, t);
            while (secondsSince(start) < seconds) {
                const Request r = mix.next();
                done[t].emplace_back(r, roundTrip(h, c, r, "closed"));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    const double elapsed = secondsSince(start);
    int completed = 0;
    for (const auto &lane : done) {
        for (const auto &[r, resp] : lane) {
            const std::string err = h.verify(r, resp);
            rep.unit(err.empty(), err);
            completed += err.empty();
        }
    }
    return completed / elapsed;
}

/** Program- and phase-cache counters from the daemon's metrics op. */
struct CacheCounts
{
    double programHits = 0, programMisses = 0, phaseHits = 0,
           phaseMisses = 0;
};

CacheCounts
cacheCounts(serve::Client &c)
{
    JsonValue req = JsonValue::makeObject();
    req.set("op", JsonValue::makeString("metrics"));
    std::istringstream is(c.request(req).getString("prometheus"));
    CacheCounts cc;
    std::string name;
    double value;
    while (is >> name) {
        if (name[0] == '#' || !(is >> value)) {
            is.clear();
            is.ignore(1 << 20, '\n');
            continue;
        }
        if (name == "ufc_program_cache_hits_total")
            cc.programHits = value;
        else if (name == "ufc_program_cache_misses_total")
            cc.programMisses = value;
        else if (name == "ufc_phase_cache_hits_total")
            cc.phaseHits = value;
        else if (name == "ufc_phase_cache_misses_total")
            cc.phaseMisses = value;
    }
    return cc;
}

double
ratio(double hits, double misses)
{
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

/** Fresh specs were not known at set-up: run the first few in-process
 *  now and compare with what the daemon returned. */
void
verifyFresh(Harness &h, Report &rep)
{
    const auto ufcModel = modelFor("ufc");
    std::size_t checked = 0;
    for (const auto &[scale, served] : h.fresh) {
        if (checked++ == kFreshVerified)
            break;
        sim::RunOptions o;
        o.label = specLabel("ufc", kFreshWorkload, scale);
        const sim::RunResult r =
            ufcModel->run(builtinTrace(kFreshWorkload, scale), o);
        rep.check(serve::parseJson(canonicalResult(r)).dump() == served &&
                      opCyclesSumToTotal(r),
                  "fresh result differs from the in-process run of " +
                      o.label);
    }
}

} // namespace

std::string
serveScheduleDigest(std::uint64_t seed)
{
    // The warm-up, then per cycle of a 50 s run its open-loop schedule
    // and the first requests of every closed-loop connection.
    std::vector<Request> reqs = warmUpSchedule(seed);
    for (int c = 0; c < 15; ++c) {
        const std::vector<Request> open = openLoopSchedule(seed, c);
        reqs.insert(reqs.end(), open.begin(), open.end());
        for (int k = 0; k < kClosedChunks * 2; ++k) {
            Mix mix = closedLoopMix(seed, c, k / 2, k % 2);
            for (int i = 0; i < 256; ++i)
                reqs.push_back(mix.next());
        }
    }
    std::string bytes;
    for (const Request &r : reqs) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9f %d %d %d;", r.due,
                      static_cast<int>(r.kind), r.spec, r.scale);
        bytes += buf;
    }
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(bytes)));
    return hex;
}

void
runServeWarm(const Options &opt, Report &rep)
{
    // The daemon and its clients share the CPU the workload starts on.
    // Waking a thread on another, idle CPU of a shared host took several
    // times longer in some runs than in others, which moved every latency
    // and throughput figure by up to 2x; on one CPU a hand-off is a
    // context switch and the figures follow the work done.  Threads
    // inherit the mask, so this precedes the daemon's start.
    cpu_set_t all, one;
    sched_getaffinity(0, sizeof(all), &all);
    CPU_ZERO(&one);
    CPU_SET(std::max(0, sched_getcpu()), &one);
    sched_setaffinity(0, sizeof(one), &one);
    // The daemon CLI runs with the metrics registry on.
    metrics::setEnabled(true);
    Tracer &tr = tracer();
    // The op probe's keys and ciphertexts are made first, so peak_rss_mb
    // includes them in every run alike.
    std::unique_ptr<OpProbe> probe;
    if (!opt.trace)
        probe = std::make_unique<OpProbe>(opt.seed, opt.injectOpFailures,
                                          rep);
    Harness h;
    h.socketPath = opt.workDir + "/perfbench-" + std::to_string(getpid()) +
                   ".sock";

    // References: every repeat spec run in-process, plus its trace text.
    for (const Spec &s : kRepeat) {
        const trace::Trace t = builtinTrace(s.workload, s.scale);
        std::ostringstream os;
        trace::writeTrace(t, os);
        h.texts.push_back(os.str());
        sim::RunOptions o;
        o.label = specLabel(s.machine, s.workload, s.scale);
        const sim::RunResult r = modelFor(s.machine)->run(t, o);
        rep.check(opCyclesSumToTotal(r),
                  o.label + ": per-op cycles do not sum to total_cycles");
        h.reference.push_back(serve::parseJson(canonicalResult(r)).dump());
        rep.mixDigest(h.reference.back());
    }

    // Set-up: daemon start plus one (cold) pass over every repeat spec.
    // This daemon stays up for the timed phases; more samples, each with
    // a daemon of its own, follow every timed cycle, so the samples
    // spread over the run like the cycles (the host's speed drifts
    // within a run).  setup_s is their median.
    std::vector<double> setups;
    {
        const Clock::time_point t0 = Clock::now();
        h.start();
        serve::Client c;
        c.connect(h.socketPath, 20);
        serialPass(h, c, rep);
        setups.push_back(secondsSince(t0));
    }
    h.injectLeft = opt.injectFailures;

    serve::Client control;
    control.connect(h.socketPath, 20);
    // A short unmeasured open-loop warm-up so the timed phases start
    // from steady state.
    openLoop(h, warmUpSchedule(opt.seed), 1u << 30, rep);

    if (!opt.trace) {
        // The timed section is a run of cycles, each a few warm serial
        // passes, an open-loop chunk with closed-loop chunks before and
        // after it, two probe rounds, a third closed-loop chunk and the
        // set-up samples.  sweep_s is the fastest serial pass; every
        // other metric is the median of its per-chunk (or per-cycle)
        // values, so a slow spell of the host costs a few samples, not
        // the run.
        std::vector<double> passes, p50, p99, capacity, lag, service;
        std::size_t requests = 0;
        const int cycles = std::max(
            3, static_cast<int>(std::lround(opt.seconds / kCycleSeconds)));
        for (int c = 0; c < cycles; ++c) {
            for (int i = 0; i < kSerialPasses; ++i)
                passes.push_back(serialPass(h, control, rep));
            capacity.push_back(
                closedLoop(h, opt.seed, c, 0, kClosedSeconds, rep));
            const OpenLoopResult ol =
                openLoop(h, openLoopSchedule(opt.seed, c),
                         static_cast<std::uint64_t>(c) << 24, rep);
            p50.push_back(quantile(ol.latencyMs, 0.50));
            p99.push_back(quantile(ol.latencyMs, 0.99));
            lag.insert(lag.end(), ol.lagMs.begin(), ol.lagMs.end());
            service.insert(service.end(), ol.serviceMs.begin(),
                           ol.serviceMs.end());
            requests += ol.latencyMs.size();
            capacity.push_back(
                closedLoop(h, opt.seed, c, 1, kClosedSeconds, rep));
            // The probe hands nothing off, so its rounds may run on any
            // CPU: pinned, its fastest multiply read about 6 ms instead
            // of 4.5 ms in the runs whose CPU stayed slow throughout.
            sched_setaffinity(0, sizeof(all), &all);
            probe->round();
            probe->round();
            sched_setaffinity(0, sizeof(one), &one);
            capacity.push_back(
                closedLoop(h, opt.seed, c, 2, kClosedSeconds, rep));
            for (int i = 0; i < kSetupPerCycle; ++i)
                setups.push_back(
                    setupSample(h, static_cast<int>(setups.size()), rep));
        }
        const double rss = peakRssMb();
        h.stop();
        verifyFresh(h, rep);
        probe->finish();
        rep.metric("setup_s", median(setups), "s");
        rep.metric("peak_rss_mb", rss, "MB");
        rep.metric("sweep_s", fastest(passes), "s");
        rep.metric("capacity_rps", median(capacity), "1/s");
        // Open-loop latency is too host-dependent here for a bound; it is
        // printed, and reported per layer by the traced run.
        char line[200];
        std::snprintf(line, sizeof(line),
                      "open loop: %zu requests in %d cycles at %.0f/s "
                      "offered, latency p50 %.3f ms p99 %.3f ms (median "
                      "over windows), lag p50 %.3f ms, service p50 %.3f ms",
                      requests, cycles, kOfferedRps, median(p50),
                      median(p99), quantile(lag, 0.5), median(service));
        rep.note(line);
        runPaperProbe(rep);
        return;
    }

    // Traced run: untraced and traced open-loop phases alternate.
    std::vector<double> plainP50, plainP99, tracedP50;
    OpenLoopResult traced;
    CacheCounts caches;
    LayerTimes reqTimes;
    const int phases =
        2 * std::max(2, static_cast<int>(
                            std::lround(opt.seconds / (2 * kOpenSeconds))));
    for (int phase = 0; phase < phases; ++phase) {
        const bool on = phase % 2 == 1;
        tr.enable(on);
        const std::size_t mark = tr.mark();
        const CacheCounts c0 = cacheCounts(control);
        const OpenLoopResult ol =
            openLoop(h, openLoopSchedule(opt.seed, phase),
                     static_cast<std::uint64_t>(phase) << 24, rep);
        const CacheCounts c1 = cacheCounts(control);
        (on ? tracedP50 : plainP50).push_back(quantile(ol.latencyMs, 0.5));
        if (!on) {
            plainP99.push_back(quantile(ol.latencyMs, 0.99));
            continue;
        }
        caches.programHits += c1.programHits - c0.programHits;
        caches.programMisses += c1.programMisses - c0.programMisses;
        caches.phaseHits += c1.phaseHits - c0.phaseHits;
        caches.phaseMisses += c1.phaseMisses - c0.phaseMisses;
        traced.lagMs.insert(traced.lagMs.end(), ol.lagMs.begin(),
                            ol.lagMs.end());
        traced.submitMs.insert(traced.submitMs.end(), ol.submitMs.begin(),
                               ol.submitMs.end());
        traced.serviceMs.insert(traced.serviceMs.end(), ol.serviceMs.begin(),
                                ol.serviceMs.end());
        traced.queueMs.insert(traced.queueMs.end(), ol.queueMs.begin(),
                              ol.queueMs.end());
        const LayerTimes lt = layerTimes(tr.spans(), mark);
        for (const auto &[layer, s] : lt.selfSeconds)
            reqTimes.selfSeconds[layer] += s;
        reqTimes.rootSeconds += lt.rootSeconds;
        for (const auto &[name, d] : lt.durations)
            reqTimes.durations[name].insert(reqTimes.durations[name].end(),
                                            d.begin(), d.end());
    }
    tr.enable(false);
    h.stop();
    verifyFresh(h, rep);

    const auto parse = reqTimes.durations.find("trace.parse");
    rep.metric("serve.submit_ms",
               median(reqTimes.durations["serve.submit"]) * 1e3, "ms");
    rep.metric("serve.service_ms", median(traced.serviceMs), "ms");
    rep.metric("serve.queue_ms", median(traced.queueMs), "ms");
    rep.metric("loadgen.lag_ms", median(traced.lagMs), "ms");
    rep.metric("loadgen.p50_ms", median(plainP50), "ms");
    rep.metric("loadgen.p99_ms", median(plainP99), "ms");
    rep.metric("trace.parse_ms",
               parse == reqTimes.durations.end() ? 0.0
                                                 : 1e3 * median(parse->second),
               "ms");
    rep.metric("runner.program_cache_hit_ratio",
               ratio(caches.programHits, caches.programMisses), "ratio");
    rep.metric("sim.phase_cache_hit_ratio",
               ratio(caches.phaseHits, caches.phaseMisses), "ratio");
    rep.metric("tracing.overhead_frac",
               median(tracedP50) / median(plainP50) - 1.0, "ratio");
    rep.metric("tracing.covered_frac", reportLayerShares(reqTimes, rep),
               "ratio");
}

} // namespace perfbench
