/**
 * @file
 * ufc_serve daemon core: admission control, degradation tiers, worker
 * scheduling, and the request handlers.  See server.h for the design.
 */

#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.h"
#include "common/parallel.h"
#include "metrics/metrics.h"
#include "trace/serialize.h"
#include "workloads/workloads.h"

namespace ufc {
namespace serve {

using Clock = std::chrono::steady_clock;

namespace {

double
msSince(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

u64
fnv1a64(const std::string &s)
{
    u64 h = 14695981039346656037ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

// Site-cached registry instruments (see metrics.h: references are valid
// for the process lifetime; all no-ops while metrics are off).
metrics::Gauge &
queueDepthGauge()
{
    static metrics::Gauge &g = metrics::gauge(
        "ufc_serve_queue_depth", "jobs waiting in the admission queue");
    return g;
}

metrics::Gauge &
tierGauge()
{
    static metrics::Gauge &g = metrics::gauge(
        "ufc_serve_degrade_tier",
        "current degradation tier (0 normal .. 3 rejecting)");
    return g;
}

metrics::Gauge &
connGauge()
{
    static metrics::Gauge &g = metrics::gauge("ufc_serve_connections",
                                              "open client connections");
    return g;
}

metrics::Counter &
shedCounter()
{
    static metrics::Counter &c = metrics::counter(
        "ufc_serve_shed_total",
        "submissions shed by overload (queue_full + shed_compile)");
    return c;
}

metrics::Counter &
rejectedCounter()
{
    static metrics::Counter &c = metrics::counter(
        "ufc_serve_rejected_total", "all non-admitted submissions");
    return c;
}

metrics::Counter &
submittedCounter()
{
    static metrics::Counter &c = metrics::counter(
        "ufc_serve_submitted_total", "jobs accepted into the queue");
    return c;
}

metrics::Counter &
completedCounter()
{
    static metrics::Counter &c = metrics::counter(
        "ufc_serve_completed_total", "jobs finished successfully");
    return c;
}

metrics::Counter &
failedJobsCounter()
{
    static metrics::Counter &c = metrics::counter(
        "ufc_serve_failed_total", "jobs that settled failed/timed_out");
    return c;
}

metrics::Counter &
protocolErrorCounter()
{
    static metrics::Counter &c = metrics::counter(
        "ufc_serve_protocol_errors_total",
        "malformed frames, JSON or requests");
    return c;
}

metrics::Histogram &
latencyHistogram()
{
    static metrics::Histogram &h = metrics::histogram(
        "ufc_serve_request_latency_us",
        "submit-to-terminal latency per accepted job");
    return h;
}

/// Workload names `submit` accepts; `scale` is each generator's leading
/// size knob (0 keeps the serving default, chosen small enough that a
/// request is seconds, not minutes, of host time).
const char *const kWorkloadNames[] = {
    "pbs", "tfhe_nn", "helr", "bootstrap", "resnet20", "sorting", "knn",
};

bool
knownWorkload(const std::string &name)
{
    for (const char *w : kWorkloadNames)
        if (name == w)
            return true;
    return false;
}

trace::Trace
makeWorkloadTrace(const std::string &name, i64 scale)
{
    const auto c2 = ckks::CkksParams::c2();
    const auto t1 = tfhe::TfheParams::t1();
    const int n = static_cast<int>(scale);
    if (name == "pbs")
        return workloads::pbsThroughput(t1, n > 0 ? n : 256);
    if (name == "tfhe_nn")
        return workloads::tfheNn(t1, n > 0 ? n : 2, 64);
    if (name == "helr")
        return workloads::helr(c2, n > 0 ? n : 3);
    if (name == "bootstrap")
        return workloads::ckksBootstrapping(c2, n > 0 ? n : 1);
    if (name == "resnet20")
        return workloads::resnet20(c2);
    if (name == "sorting")
        return workloads::sorting(c2, n > 0 ? n : 16384);
    if (name == "knn")
        return workloads::hybridKnn(c2, tfhe::TfheParams::t2(),
                                    n > 0 ? n : 1024, 64, 8);
    UFC_THROW(ConfigError, "unknown workload '" << name << "'");
}

} // namespace

struct Server::TokenBucket
{
    double tokens = 0.0;
    Clock::time_point last{};
};

struct Server::JobRecord
{
    enum class State { Queued, Running, Done, Failed, Cancelled };

    std::string id;
    u64 seq = 0;
    std::string tenant;
    std::string label;
    /// Admission key for the tier-2 warm-set: machine + trace identity.
    std::string specKey;

    // Resolved submission fields (validated before admission).
    std::string machine;
    std::string workload;
    i64 scale = 0;
    std::string traceFile;
    std::string traceText;
    u64 maxCycles = 0;
    int retries = 0;
    bool lint = false;
    bool lintShed = false;
    i64 holdMs = 0;

    Clock::time_point submitTime{};
    Clock::time_point deadline{}; ///< epoch = none

    State state = State::Queued;
    sim::RunResult result;
    runner::JobOutcome outcome;

    static const char *
    stateName(State s)
    {
        switch (s) {
        case State::Queued:
            return "queued";
        case State::Running:
            return "running";
        case State::Done:
            return "done";
        case State::Failed:
            return "failed";
        case State::Cancelled:
            return "cancelled";
        }
        return "unknown";
    }
};

Server::Server(const ServeConfig &cfg)
    : cfg_(cfg), programCache_(cfg.programCacheMaxEntries)
{
    UFC_EXPECT(cfg_.workers >= 1 && cfg_.workers <= kMaxWorkers,
               ConfigError,
               "ufc_serve needs 1 to " << kMaxWorkers
                                       << " worker threads, got "
                                       << cfg_.workers);
    UFC_EXPECT(cfg_.maxConnections <= kMaxConnections, ConfigError,
               "ufc_serve accepts at most " << kMaxConnections
                                            << " connections, got "
                                            << cfg_.maxConnections);
    UFC_EXPECT(cfg_.queueCapacity >= 1, ConfigError,
               "ufc_serve needs a queue capacity of at least 1");
    for (const char *machine : sim::kModelNames)
        models_[machine] = sim::makeModel(machine);
    startTime_ = Clock::now();
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    UFC_EXPECT(!cfg_.socketPath.empty(), ConfigError,
               "ufc_serve needs a socket path");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    UFC_EXPECT(cfg_.socketPath.size() < sizeof(addr.sun_path), ConfigError,
               "socket path '" << cfg_.socketPath
                               << "' exceeds the AF_UNIX limit of "
                               << sizeof(addr.sun_path) - 1 << " bytes");
    std::memcpy(addr.sun_path, cfg_.socketPath.c_str(),
                cfg_.socketPath.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    UFC_EXPECT(fd >= 0, ConfigError,
               "socket() failed: " << std::strerror(errno));
    ::unlink(cfg_.socketPath.c_str()); // stale socket from a dead daemon
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int e = errno;
        ::close(fd);
        UFC_THROW(ConfigError, "bind('" << cfg_.socketPath << "') failed: "
                                        << std::strerror(e));
    }
    if (::listen(fd, 128) != 0) {
        const int e = errno;
        ::close(fd);
        ::unlink(cfg_.socketPath.c_str());
        UFC_THROW(ConfigError,
                  "listen() failed: " << std::strerror(e));
    }
    listenFd_.store(fd, std::memory_order_release);

    acceptThread_ = std::thread(&Server::acceptLoop, this);
    workers_.reserve(static_cast<std::size_t>(cfg_.workers));
    for (int i = 0; i < cfg_.workers; ++i)
        workers_.emplace_back(&Server::workerLoop, this, i);
}

void
Server::beginDrain()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        draining_ = true;
    }
    queueCv_.notify_all();
    terminalCv_.notify_all();
}

bool
Server::drainRequested() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return draining_;
}

void
Server::awaitDrained()
{
    std::unique_lock<std::mutex> lk(mu_);
    terminalCv_.wait(lk, [&] {
        return stopping_ || (queue_.empty() && running_ == 0);
    });
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_)
            return;
        stopping_ = true;
        // Queued jobs that will never run settle as cancelled so the
        // final report accounts for every accepted job.
        for (const std::string &id : queue_) {
            auto it = records_.find(id);
            if (it == records_.end() ||
                it->second->state != JobRecord::State::Queued)
                continue;
            JobRecord &rec = *it->second;
            rec.state = JobRecord::State::Cancelled;
            rec.outcome.status = runner::JobStatus::Skipped;
            rec.outcome.attempts = 0;
            rec.outcome.errorKind = "Cancelled";
            rec.outcome.message = "daemon stopped before this job ran";
            terminalOrder_.push_back(id);
            ++stats_.cancelled;
        }
        queue_.clear();
        queueDepthGauge().set(0);
    }
    queueCv_.notify_all();
    terminalCv_.notify_all();

    // Claim the listening fd so the accept thread stops getting new
    // connections; shutdown() unblocks its in-flight accept().
    const int lfd = listenFd_.exchange(-1, std::memory_order_acq_rel);
    if (lfd >= 0) {
        ::shutdown(lfd, SHUT_RDWR);
        ::close(lfd);
    }
    if (acceptThread_.joinable())
        acceptThread_.join();

    {
        std::unique_lock<std::mutex> lk(connMu_);
        for (const int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
        connCv_.wait(lk, [&] { return activeConns_ == 0; });
    }
    for (std::thread &w : workers_)
        if (w.joinable())
            w.join();
    workers_.clear();

    if (!cfg_.socketPath.empty())
        ::unlink(cfg_.socketPath.c_str());
}

// ---------------------------------------------------------------------------
// Socket plumbing

void
Server::acceptLoop()
{
    for (;;) {
        const int lfd = listenFd_.load(std::memory_order_acquire);
        if (lfd < 0)
            return; // stop() already claimed the socket
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listening socket shut down by stop()
        }
        bool admit = false;
        int connsAfterAdmit = 0;
        {
            std::lock_guard<std::mutex> lk(connMu_);
            if (activeConns_ < cfg_.maxConnections) {
                ++activeConns_;
                connFds_.insert(fd);
                admit = true;
            }
            connsAfterAdmit = activeConns_;
        }
        if (!admit) {
            try {
                writeFrame(fd, errorResponse(
                                   "OverloadError", kCodeTooManyConns,
                                   "connection limit reached", 100.0)
                                   .dump());
            } catch (const Error &) {
            }
            ::close(fd);
            continue;
        }
        connGauge().set(connsAfterAdmit);
        // Detached: the epilogue below touches only connMu_-guarded
        // members, which stop() keeps alive until activeConns_ drains.
        std::thread([this, fd] {
            connectionLoop(fd);
            std::lock_guard<std::mutex> lk(connMu_);
            connFds_.erase(fd);
            ::close(fd);
            --activeConns_;
            connGauge().set(activeConns_);
            connCv_.notify_all();
        }).detach();
    }
}

void
Server::connectionLoop(int fd)
{
    std::string payload;
    for (;;) {
        try {
            if (!readFrame(fd, payload, cfg_.maxFrameBytes))
                return; // peer closed cleanly
        } catch (const OverloadError &e) {
            // Oversized length prefix: answer, then close — the stream
            // is desynchronized (the body was never read).
            protocolErrorCounter().inc();
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++stats_.protocolErrors;
            }
            try {
                writeFrame(fd, errorResponse(e.kind(), kCodeOversizedFrame,
                                             e.what())
                                   .dump());
            } catch (const Error &) {
            }
            return;
        } catch (const Error &) {
            // Truncated frame or I/O error: client died mid-request.
            protocolErrorCounter().inc();
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++stats_.protocolErrors;
            }
            return;
        }
        const std::string resp = handleRequestText(payload);
        try {
            writeFrame(fd, resp);
        } catch (const Error &) {
            return; // peer gone; the job (if admitted) still runs
        }
    }
}

// ---------------------------------------------------------------------------
// Request dispatch

std::string
Server::handleRequestText(const std::string &requestJson)
{
    try {
        const JsonValue req = parseJson(requestJson);
        const std::string op = req.getString("op");
        if (op == "submit")
            return handleSubmit(req).dump();
        if (op == "status")
            return handleStatus(req).dump();
        if (op == "result")
            return handleResult(req).dump();
        if (op == "cancel")
            return handleCancel(req).dump();
        if (op == "health")
            return handleHealth().dump();
        if (op == "metrics")
            return handleMetrics().dump();
        if (op == "drain")
            return handleDrain().dump();
        UFC_THROW(ConfigError, "unknown op '" << op << "'");
    } catch (const Error &e) {
        protocolErrorCounter().inc();
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.protocolErrors;
        }
        return errorResponse(e.kind(), kCodeBadRequest, e.what()).dump();
    } catch (const std::exception &e) {
        protocolErrorCounter().inc();
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.protocolErrors;
        }
        return errorResponse("Error", kCodeBadRequest, e.what()).dump();
    }
}

JsonValue
Server::handleSubmit(const JsonValue &req)
{
    const JsonValue *jobv = req.find("job");
    UFC_EXPECT(jobv != nullptr && jobv->isObject(), ConfigError,
               "submit needs a \"job\" object");

    // Validate and resolve the job spec before touching admission state;
    // a malformed spec is the client's fault, not overload.
    auto rec = std::make_shared<JobRecord>();
    rec->tenant = req.getString("tenant", "default");
    rec->machine = jobv->getString("machine", "ufc");
    if (models_.find(rec->machine) == models_.end())
        return errorResponse("ConfigError", kCodeBadJob,
                             "unknown machine '" + rec->machine +
                                 "' (ufc|sharp|strix|composed)");
    rec->workload = jobv->getString("workload");
    rec->traceFile = jobv->getString("trace_file");
    rec->traceText = jobv->getString("trace_text");
    const int sources = (rec->workload.empty() ? 0 : 1) +
                        (rec->traceFile.empty() ? 0 : 1) +
                        (rec->traceText.empty() ? 0 : 1);
    if (sources != 1)
        return errorResponse("ConfigError", kCodeBadJob,
                             "job needs exactly one of workload, "
                             "trace_file, trace_text");
    if (!rec->workload.empty() && !knownWorkload(rec->workload))
        return errorResponse("ConfigError", kCodeBadJob,
                             "unknown workload '" + rec->workload + "'");
    rec->scale = jobv->getInt("scale", 0);
    if (rec->scale < 0 || rec->scale > 1000000)
        return errorResponse("ConfigError", kCodeBadJob,
                             "scale out of range [0, 1e6]");
    const i64 maxCycles = jobv->getInt("max_cycles", 0);
    if (maxCycles < 0)
        return errorResponse("ConfigError", kCodeBadJob,
                             "max_cycles must be >= 0");
    rec->maxCycles = static_cast<u64>(maxCycles);
    const i64 retries = jobv->getInt("retries", cfg_.maxRetries);
    if (retries < 0 || retries > 10)
        return errorResponse("ConfigError", kCodeBadJob,
                             "retries out of range [0, 10]");
    rec->retries = static_cast<int>(retries);
    rec->holdMs = jobv->getInt("hold_ms", 0);
    if (rec->holdMs < 0 || rec->holdMs > 30000)
        return errorResponse("ConfigError", kCodeBadJob,
                             "hold_ms out of range [0, 30000]");
    const double deadlineMs =
        jobv->getDouble("deadline_ms", cfg_.defaultDeadlineMs);
    if (deadlineMs < 0.0 || deadlineMs > 3600000.0)
        return errorResponse("ConfigError", kCodeBadJob,
                             "deadline_ms out of range [0, 3.6e6]");
    const bool wantLint = jobv->getBool("lint", cfg_.lintPreflight);

    if (!rec->workload.empty())
        rec->specKey = rec->machine + "|w:" + rec->workload + ":" +
                       std::to_string(rec->scale);
    else if (!rec->traceFile.empty())
        rec->specKey = rec->machine + "|f:" + rec->traceFile;
    else
        rec->specKey = rec->machine +
                       "|t:" + std::to_string(fnv1a64(rec->traceText));

    const Clock::time_point now = Clock::now();

    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_ || draining_) {
        ++stats_.rejected;
        rejectedCounter().inc();
        return errorResponse("OverloadError", kCodeDraining,
                             "daemon is draining; no new jobs", -1.0);
    }

    // Per-tenant token bucket: an aggressive client starves only itself.
    TokenBucket *bucket = nullptr;
    if (cfg_.tenantBurst > 0.0) {
        auto it = tenants_.find(rec->tenant);
        if (it == tenants_.end()) {
            auto b = std::make_unique<TokenBucket>();
            b->tokens = cfg_.tenantBurst;
            b->last = now;
            it = tenants_.emplace(rec->tenant, std::move(b)).first;
        }
        bucket = it->second.get();
        const double dt =
            std::chrono::duration<double>(now - bucket->last).count();
        bucket->last = now;
        bucket->tokens = std::min(
            cfg_.tenantBurst,
            bucket->tokens + dt * cfg_.tenantRatePerSec);
        if (bucket->tokens < 1.0) {
            ++stats_.rateLimited;
            ++stats_.rejected;
            rejectedCounter().inc();
            const double waitMs =
                cfg_.tenantRatePerSec > 0.0
                    ? (1.0 - bucket->tokens) / cfg_.tenantRatePerSec *
                          1000.0
                    : 1000.0;
            return errorResponse(
                "OverloadError", kCodeRateLimited,
                "tenant '" + rec->tenant + "' is over its rate",
                std::max(1.0, waitMs));
        }
    }

    const int tier = tierLocked();
    tierGauge().set(tier);
    if (tier >= 3) {
        ++stats_.shed;
        ++stats_.rejected;
        shedCounter().inc();
        rejectedCounter().inc();
        return errorResponse("OverloadError", kCodeQueueFull,
                             "admission queue is full",
                             retryAfterMsLocked());
    }
    if (tier >= 2 && warmSpecs_.find(rec->specKey) == warmSpecs_.end()) {
        ++stats_.shed;
        ++stats_.rejected;
        shedCounter().inc();
        rejectedCounter().inc();
        return errorResponse(
            "OverloadError", kCodeShedCompile,
            "degraded: only warm (already-compiled) specs are admitted",
            retryAfterMsLocked());
    }
    rec->lint = wantLint && tier < 1;
    rec->lintShed = wantLint && !rec->lint;
    if (rec->lintShed)
        ++stats_.lintShed;

    if (bucket != nullptr)
        bucket->tokens -= 1.0;

    rec->seq = nextId_++;
    rec->id = "job-" + std::to_string(rec->seq);
    rec->label = jobv->getString("label", rec->id);
    rec->result.label = rec->label; // placeholder until the run fills it
    rec->submitTime = now;
    if (deadlineMs > 0.0)
        rec->deadline = now + std::chrono::microseconds(static_cast<i64>(
                                  deadlineMs * 1000.0));

    records_[rec->id] = rec;
    queue_.push_back(rec->id);
    ++stats_.submitted;
    submittedCounter().inc();
    queueDepthGauge().set(static_cast<i64>(queue_.size()));
    queueCv_.notify_one();

    JsonValue resp = JsonValue::makeObject();
    resp.set("ok", JsonValue::makeBool(true));
    resp.set("id", JsonValue::makeString(rec->id));
    resp.set("queue_depth",
             JsonValue::makeInt(static_cast<i64>(queue_.size())));
    resp.set("tier", JsonValue::makeInt(tier));
    if (rec->lintShed)
        resp.set("lint_shed", JsonValue::makeBool(true));
    return resp;
}

JsonValue
Server::handleStatus(const JsonValue &req)
{
    const std::string id = req.getString("id");
    std::lock_guard<std::mutex> lk(mu_);
    auto it = records_.find(id);
    if (it == records_.end())
        return errorResponse("ConfigError", kCodeUnknownId,
                             "unknown or expired job id '" + id + "'");
    const JobRecord &rec = *it->second;
    JsonValue resp = JsonValue::makeObject();
    resp.set("ok", JsonValue::makeBool(true));
    resp.set("id", JsonValue::makeString(rec.id));
    resp.set("state", JsonValue::makeString(JobRecord::stateName(rec.state)));
    if (rec.state == JobRecord::State::Done ||
        rec.state == JobRecord::State::Failed ||
        rec.state == JobRecord::State::Cancelled) {
        resp.set("status", JsonValue::makeString(
                               runner::jobStatusName(rec.outcome.status)));
        resp.set("attempts", JsonValue::makeInt(rec.outcome.attempts));
        if (!rec.outcome.errorKind.empty())
            resp.set("error_kind",
                     JsonValue::makeString(rec.outcome.errorKind));
    }
    return resp;
}

JsonValue
Server::handleResult(const JsonValue &req)
{
    const std::string id = req.getString("id");
    const bool wait = req.getBool("wait", false);
    const double timeoutMs =
        std::min(req.getDouble("timeout_ms", 30000.0), 300000.0);

    std::unique_lock<std::mutex> lk(mu_);
    auto it = records_.find(id);
    if (it == records_.end())
        return errorResponse("ConfigError", kCodeUnknownId,
                             "unknown or expired job id '" + id + "'");
    std::shared_ptr<JobRecord> rec = it->second;

    auto terminal = [&] {
        return rec->state == JobRecord::State::Done ||
               rec->state == JobRecord::State::Failed ||
               rec->state == JobRecord::State::Cancelled;
    };
    if (!terminal() && wait) {
        const auto until =
            Clock::now() + std::chrono::microseconds(static_cast<i64>(
                               std::max(0.0, timeoutMs) * 1000.0));
        terminalCv_.wait_until(lk, until,
                               [&] { return terminal() || stopping_; });
    }
    if (!terminal())
        return errorResponse("OverloadError", kCodeWaitTimeout,
                             "job '" + id + "' is still " +
                                 JobRecord::stateName(rec->state),
                             1000.0);

    if (rec->state == JobRecord::State::Done) {
        // Round-trip the run's canonical serialization through our own
        // parser so the embedded object is byte-stable dump-to-dump.
        const std::string resultJson = rec->result.toJson();
        JsonValue resp = JsonValue::makeObject();
        resp.set("ok", JsonValue::makeBool(true));
        resp.set("id", JsonValue::makeString(id));
        resp.set("state", JsonValue::makeString("done"));
        resp.set("status", JsonValue::makeString(
                               runner::jobStatusName(rec->outcome.status)));
        resp.set("attempts", JsonValue::makeInt(rec->outcome.attempts));
        resp.set("result", parseJson(resultJson));
        return resp;
    }

    const char *code = rec->state == JobRecord::State::Cancelled
                           ? "cancelled"
                           : kCodeJobFailed;
    JsonValue resp = errorResponse(rec->outcome.errorKind.empty()
                                       ? "SimError"
                                       : rec->outcome.errorKind,
                                   code, rec->outcome.message);
    resp.set("id", JsonValue::makeString(id));
    resp.set("state", JsonValue::makeString(JobRecord::stateName(rec->state)));
    resp.set("status", JsonValue::makeString(
                           runner::jobStatusName(rec->outcome.status)));
    resp.set("attempts", JsonValue::makeInt(rec->outcome.attempts));
    if (!rec->outcome.recentEvents.empty()) {
        JsonValue ev = JsonValue::makeArray();
        for (const std::string &line : rec->outcome.recentEvents)
            ev.push(JsonValue::makeString(line));
        resp.set("recent_events", std::move(ev));
    }
    return resp;
}

JsonValue
Server::handleCancel(const JsonValue &req)
{
    const std::string id = req.getString("id");
    std::lock_guard<std::mutex> lk(mu_);
    auto it = records_.find(id);
    if (it == records_.end())
        return errorResponse("ConfigError", kCodeUnknownId,
                             "unknown or expired job id '" + id + "'");
    JobRecord &rec = *it->second;
    if (rec.state != JobRecord::State::Queued)
        return errorResponse("ConfigError", kCodeNotCancellable,
                             "job '" + id + "' is " +
                                 JobRecord::stateName(rec.state) +
                                 "; only queued jobs can be cancelled");
    rec.state = JobRecord::State::Cancelled;
    rec.outcome.status = runner::JobStatus::Skipped;
    rec.outcome.attempts = 0;
    rec.outcome.errorKind = "Cancelled";
    rec.outcome.message = "cancelled by client";
    // The id stays in queue_; workers skip cancelled records on pop.
    terminalOrder_.push_back(id);
    ++stats_.cancelled;
    terminalCv_.notify_all();

    JsonValue resp = JsonValue::makeObject();
    resp.set("ok", JsonValue::makeBool(true));
    resp.set("id", JsonValue::makeString(id));
    resp.set("state", JsonValue::makeString("cancelled"));
    return resp;
}

JsonValue
Server::handleHealth()
{
    std::lock_guard<std::mutex> lk(mu_);
    JsonValue resp = JsonValue::makeObject();
    resp.set("ok", JsonValue::makeBool(true));
    resp.set("status", JsonValue::makeString(
                           draining_ ? "draining" : "serving"));
    resp.set("protocol", JsonValue::makeInt(kProtocolVersion));
    resp.set("uptime_s",
             JsonValue::makeDouble(
                 std::chrono::duration<double>(Clock::now() - startTime_)
                     .count()));
    resp.set("queue_depth",
             JsonValue::makeInt(static_cast<i64>(queue_.size())));
    resp.set("queue_capacity",
             JsonValue::makeInt(static_cast<i64>(cfg_.queueCapacity)));
    resp.set("running", JsonValue::makeInt(running_));
    resp.set("workers", JsonValue::makeInt(cfg_.workers));
    resp.set("tier", JsonValue::makeInt(tierLocked()));
    resp.set("ewma_job_ms", JsonValue::makeDouble(ewmaJobMs_));

    JsonValue st = JsonValue::makeObject();
    st.set("submitted", JsonValue::makeInt(static_cast<i64>(
                            stats_.submitted)));
    st.set("completed", JsonValue::makeInt(static_cast<i64>(
                            stats_.completed)));
    st.set("failed", JsonValue::makeInt(static_cast<i64>(stats_.failed)));
    st.set("cancelled",
           JsonValue::makeInt(static_cast<i64>(stats_.cancelled)));
    st.set("shed", JsonValue::makeInt(static_cast<i64>(stats_.shed)));
    st.set("rate_limited",
           JsonValue::makeInt(static_cast<i64>(stats_.rateLimited)));
    st.set("rejected",
           JsonValue::makeInt(static_cast<i64>(stats_.rejected)));
    st.set("lint_shed",
           JsonValue::makeInt(static_cast<i64>(stats_.lintShed)));
    st.set("expired",
           JsonValue::makeInt(static_cast<i64>(stats_.expired)));
    st.set("protocol_errors",
           JsonValue::makeInt(static_cast<i64>(stats_.protocolErrors)));
    resp.set("stats", std::move(st));

    JsonValue caches = JsonValue::makeObject();
    caches.set("program_hits", JsonValue::makeInt(static_cast<i64>(
                                   programCache_.hits())));
    caches.set("program_compiles", JsonValue::makeInt(static_cast<i64>(
                                       programCache_.compiles())));
    caches.set("program_evictions", JsonValue::makeInt(static_cast<i64>(
                                        programCache_.evictions())));
    caches.set("result_hits", JsonValue::makeInt(static_cast<i64>(
                                  programCache_.runHits())));
    caches.set("result_misses", JsonValue::makeInt(static_cast<i64>(
                                    programCache_.runMisses())));
    std::size_t traces = 0;
    {
        std::lock_guard<std::mutex> lk(traceMu_);
        traces = traceCache_.size();
    }
    caches.set("traces", JsonValue::makeInt(static_cast<i64>(traces)));
    resp.set("caches", std::move(caches));
    return resp;
}

JsonValue
Server::handleMetrics()
{
    std::ostringstream os;
    metrics::writePrometheus(os);
    JsonValue resp = JsonValue::makeObject();
    resp.set("ok", JsonValue::makeBool(true));
    resp.set("prometheus", JsonValue::makeString(os.str()));
    return resp;
}

JsonValue
Server::handleDrain()
{
    beginDrain();
    std::lock_guard<std::mutex> lk(mu_);
    JsonValue resp = JsonValue::makeObject();
    resp.set("ok", JsonValue::makeBool(true));
    resp.set("draining", JsonValue::makeBool(true));
    resp.set("pending", JsonValue::makeInt(static_cast<i64>(
                            queue_.size() + running_)));
    return resp;
}

// ---------------------------------------------------------------------------
// Job execution

void
Server::workerLoop(int workerIndex)
{
    (void)workerIndex;
    // Claim pool-worker status: nested kernel fan-out inside the models
    // runs inline, so the daemon's true concurrency is cfg_.workers (see
    // parallel.h WorkerScope).
    ThreadPool::WorkerScope scope;
    for (;;) {
        std::shared_ptr<JobRecord> rec;
        {
            std::unique_lock<std::mutex> lk(mu_);
            queueCv_.wait(lk, [&] {
                return stopping_ || draining_ || !queue_.empty();
            });
            if (stopping_)
                return;
            if (queue_.empty()) {
                if (draining_)
                    return;
                continue;
            }
            const std::string id = queue_.front();
            queue_.pop_front();
            queueDepthGauge().set(static_cast<i64>(queue_.size()));
            auto it = records_.find(id);
            if (it == records_.end() ||
                it->second->state != JobRecord::State::Queued) {
                // Cancelled while queued (or expired): nothing to run.
                if (queue_.empty() && running_ == 0)
                    terminalCv_.notify_all();
                continue;
            }
            rec = it->second;
            rec->state = JobRecord::State::Running;
            ++running_;
        }
        executeJob(rec);
        finishJob(rec);
    }
}

void
Server::executeJob(const std::shared_ptr<JobRecord> &rec)
{
    // Intentional service-time inflation for backpressure/drain tests;
    // sliced so stop() is never held up for long.
    for (i64 held = 0; held < rec->holdMs; held += 10) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (stopping_)
                break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<i64>(10, rec->holdMs - held)));
    }

    sim::RunResult result;
    result.label = rec->label;
    runner::JobOutcome outcome;

    // The admission-time deadline covers queue wait: a request that
    // expired while queued fails fast without burning a worker on it.
    if (rec->deadline != Clock::time_point{} &&
        Clock::now() >= rec->deadline) {
        outcome.status = runner::JobStatus::TimedOut;
        outcome.attempts = 0;
        outcome.errorKind = "SimError";
        outcome.message = "deadline expired while queued";
    } else {
        try {
            runner::Job job;
            job.label = rec->label;
            job.model = models_.at(rec->machine);
            if (!rec->workload.empty()) {
                const std::string key =
                    "w:" + rec->workload + ":" +
                    std::to_string(rec->scale);
                {
                    std::lock_guard<std::mutex> lk(traceMu_);
                    auto it = traceCache_.find(key);
                    if (it != traceCache_.end())
                        job.trace = it->second;
                }
                if (!job.trace) {
                    auto tr = std::make_shared<const trace::Trace>(
                        makeWorkloadTrace(rec->workload, rec->scale));
                    std::lock_guard<std::mutex> lk(traceMu_);
                    // First inserter wins; a racing generation built the
                    // identical trace anyway.  Any client may name any
                    // scale, so the oldest traces go first past the
                    // bound (a job holds its own reference).
                    auto ins = traceCache_.emplace(key, tr);
                    job.trace = ins.first->second;
                    if (ins.second) {
                        traceOrder_.push_back(key);
                        const std::size_t bound =
                            cfg_.programCacheMaxEntries;
                        while (bound > 0 && traceOrder_.size() > bound) {
                            traceCache_.erase(traceOrder_.front());
                            traceOrder_.pop_front();
                        }
                    }
                }
            } else if (!rec->traceFile.empty()) {
                // Loaded inside the job's isolation: a corrupt file
                // fails only this job.
                job.traceFile = rec->traceFile;
            } else {
                std::istringstream is(rec->traceText);
                job.trace = std::make_shared<const trace::Trace>(
                    trace::readTrace(is));
            }
            job.options.label = rec->label;
            job.options.maxCycles = rec->maxCycles;
            job.options.lintTraces = rec->lint;
            if (rec->deadline != Clock::time_point{})
                job.options.hostDeadline = rec->deadline;

            runner::RunnerConfig rc;
            rc.maxRetries = rec->retries;
            rc.retryBackoff = cfg_.retryBackoff;
            const runner::ExperimentRunner jobRunner(rc);
            jobRunner.runOne(job, static_cast<std::size_t>(rec->seq),
                             result, outcome, &programCache_);
        } catch (const Error &e) {
            // Trace generation / parse faults outside runOne's isolation.
            outcome.status = runner::JobStatus::Failed;
            outcome.attempts = 1;
            outcome.errorKind = e.kind();
            outcome.message = e.what();
        }
    }

    std::lock_guard<std::mutex> lk(mu_);
    rec->result = std::move(result);
    rec->outcome = std::move(outcome);
}

void
Server::finishJob(const std::shared_ptr<JobRecord> &rec)
{
    std::lock_guard<std::mutex> lk(mu_);
    rec->state = rec->outcome.ok() ? JobRecord::State::Done
                                   : JobRecord::State::Failed;
    if (rec->outcome.ok()) {
        ++stats_.completed;
        completedCounter().inc();
        warmSpecs_.insert(rec->specKey); // tier-2 admission set
    } else {
        ++stats_.failed;
        failedJobsCounter().inc();
    }
    --running_;

    const double jobMs = msSince(rec->submitTime, Clock::now());
    ewmaJobMs_ = ewmaJobMs_ <= 0.0 ? jobMs
                                   : 0.8 * ewmaJobMs_ + 0.2 * jobMs;
    latencyHistogram().record(static_cast<u64>(jobMs * 1000.0));

    terminalOrder_.push_back(rec->id);
    // Bounded retention: a long-lived daemon must not accumulate every
    // result it ever produced.
    while (terminalOrder_.size() > cfg_.resultRetention) {
        records_.erase(terminalOrder_.front());
        terminalOrder_.pop_front();
        ++stats_.expired;
    }
    terminalCv_.notify_all();
}

// ---------------------------------------------------------------------------
// Introspection

double
Server::retryAfterMsLocked() const
{
    const double perJobMs = ewmaJobMs_ > 0.0 ? ewmaJobMs_ : 100.0;
    const double depth =
        static_cast<double>(queue_.size()) + running_;
    const double est =
        depth * perJobMs / std::max(1, cfg_.workers);
    return std::min(10000.0, std::max(25.0, est));
}

int
Server::tierLocked() const
{
    const double occ = cfg_.queueCapacity > 0
                           ? static_cast<double>(queue_.size()) /
                                 static_cast<double>(cfg_.queueCapacity)
                           : 0.0;
    if (occ >= 1.0)
        return 3;
    if (occ >= cfg_.shedCompileAt)
        return 2;
    if (occ >= cfg_.shedLintAt)
        return 1;
    return 0;
}

runner::BatchResult
Server::reportBatch() const
{
    std::lock_guard<std::mutex> lk(mu_);
    runner::BatchResult batch;
    batch.results.reserve(terminalOrder_.size());
    batch.outcomes.reserve(terminalOrder_.size());
    for (const std::string &id : terminalOrder_) {
        auto it = records_.find(id);
        if (it == records_.end())
            continue;
        batch.results.push_back(it->second->result);
        batch.outcomes.push_back(it->second->outcome);
    }
    return batch;
}

ServeStats
Server::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

int
Server::degradeTier() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return tierLocked();
}

} // namespace serve
} // namespace ufc
