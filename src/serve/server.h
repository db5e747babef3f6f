/**
 * @file
 * `ufc_serve`: a fault-contained, long-lived simulation daemon.
 *
 * The experiment runner made one *batch* fault-tolerant; this server
 * makes the *process* a service: it accepts simulation jobs over a
 * local AF_UNIX socket (length-prefixed JSON frames, serve/protocol.h),
 * executes them through the runner's per-job isolation machinery
 * (ExperimentRunner::runOne) on a fixed set of worker threads, and
 * keeps the trace/compile/result/twiddle caches warm across requests — the
 * paper's 130-job sweep becomes steady-state traffic instead of a
 * cold-start CLI invocation per batch.
 *
 * ## The service envelope
 *
 *  - **Bounded admission queue.**  Submissions beyond the configured
 *    capacity are rejected with a typed OverloadError response carrying
 *    a `retry_after_ms` hint derived from the observed service rate;
 *    queue depth and RSS stay bounded no matter the offered load.
 *  - **Per-tenant fair admission.**  Each tenant draws from a token
 *    bucket (burst + refill rate); an aggressive client exhausts its
 *    own bucket and gets `rate_limited` rejections while other tenants
 *    continue to be admitted.
 *  - **Graceful degradation tiers** by queue occupancy: tier 1 sheds
 *    the lint pre-flight from admitted jobs; tier 2 additionally sheds
 *    jobs that would require a *fresh* compile (only specs the warm
 *    caches have already seen are admitted); tier 3 (full) rejects.
 *  - **Per-request deadlines** layered on the PR-4 watchdogs: the
 *    deadline covers queue wait too — a request that expires while
 *    queued fails fast without occupying a worker.
 *  - **Bounded retries with seeded backoff** (common/backoff.h)
 *    instead of immediate re-runs.
 *  - **Clean drain**: `drain` (or SIGTERM in the CLI wrapper) stops
 *    admission, finishes queued + in-flight jobs, and leaves results
 *    queryable until stop(); the CLI then flushes a final
 *    `ufc.report/v2` envelope plus Prometheus metrics and exits 0.
 *  - **Fault containment**: malformed frames, hostile JSON, oversized
 *    payloads, corrupt traces and mid-request disconnects each cost
 *    one error response (or one closed connection), never the process;
 *    failed jobs attach the flight-recorder tail as a post-mortem.
 *
 * ## Threading
 *
 * One accept thread, one handler thread per connection (bounded by
 * maxConnections), and `workers` job-executor threads.  Executors run
 * under ThreadPool::WorkerScope so nested kernel fan-out stays inline:
 * the worker count is the true process concurrency.  Results are
 * bit-identical to a serial `sweep_all` run of the same jobs — jobs
 * share nothing but immutable models and thread-safe caches (the
 * `serve` ctest label locks this down).
 */

#ifndef UFC_SERVE_SERVER_H
#define UFC_SERVE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/backoff.h"
#include "runner/runner.h"
#include "serve/json.h"
#include "serve/protocol.h"

namespace ufc {
namespace serve {

/// Upper bounds on ServeConfig::workers and ServeConfig::maxConnections:
/// the daemon starts one thread per worker and one per admitted
/// connection, so a mistyped count must fail instead of asking the OS
/// for that many threads.
constexpr int kMaxWorkers = 256;
constexpr int kMaxConnections = 1024;

/** Daemon knobs (all have serving-ready defaults except socketPath). */
struct ServeConfig
{
    /// Filesystem path of the AF_UNIX listening socket (required; a
    /// stale file at the path is unlinked before bind).
    std::string socketPath;
    /// Job-executor threads (the true process concurrency), at most
    /// kMaxWorkers.
    int workers = 2;
    /// Admission queue bound; submissions beyond it are shed.
    std::size_t queueCapacity = 64;
    /// Cap on one frame's payload, both directions.
    u32 maxFrameBytes = kDefaultMaxFrameBytes;
    /// Concurrent connections, at most kMaxConnections; excess gets an
    /// overload response.
    int maxConnections = 64;
    /// Default extra attempts for failed jobs (a submit may lower it).
    int maxRetries = 0;
    /// Backoff schedule between retry attempts.
    BackoffPolicy retryBackoff;
    /// Default per-request deadline in ms, queue wait included
    /// (0 = none; a submit's deadline_ms overrides).
    double defaultDeadlineMs = 0.0;
    /// Token-bucket fair admission per tenant: burst capacity and
    /// refill rate.  burst <= 0 disables tenant limiting.
    double tenantBurst = 64.0;
    double tenantRatePerSec = 32.0;
    /// Degradation thresholds as queue-occupancy fractions.
    double shedLintAt = 0.5;
    double shedCompileAt = 0.75;
    /// Run the lint pre-flight on admitted jobs below tier 1.
    bool lintPreflight = false;
    /// Bound on the persistent ProgramCache and on the generated-trace
    /// cache, in entries each (0 = unbounded); both evict FIFO.
    std::size_t programCacheMaxEntries = 256;
    /// Terminal job records retained for `result` queries and the final
    /// report; older ones are expired FIFO so a week of traffic cannot
    /// grow RSS without bound.
    std::size_t resultRetention = 8192;
};

/** Cumulative admission/lifecycle counters (monotone; health + tests). */
struct ServeStats
{
    u64 submitted = 0;  ///< accepted into the queue
    u64 completed = 0;  ///< terminal ok (incl. retried_ok)
    u64 failed = 0;     ///< terminal failed/timed_out
    u64 cancelled = 0;  ///< cancelled while queued
    u64 shed = 0;       ///< queue_full + shed_compile rejections
    u64 rateLimited = 0;///< tenant token-bucket rejections
    u64 rejected = 0;   ///< all non-admitted submits
    u64 lintShed = 0;   ///< admitted jobs whose lint pre-flight was shed
    u64 expired = 0;    ///< terminal records evicted by resultRetention
    u64 protocolErrors = 0; ///< malformed frames/JSON/requests
};

/** The daemon.  Construct, start(), then beginDrain()+awaitDrained()
 *  +stop() to shut down cleanly. */
class Server
{
  public:
    explicit Server(const ServeConfig &cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind the socket and spawn the accept + worker threads; throws
     *  ufc::ConfigError when the socket cannot be created. */
    void start();

    /** Stop admitting new jobs (idempotent; submissions now get a
     *  `draining` rejection).  Triggered by the `drain` protocol op or
     *  the CLI's SIGTERM handler. */
    void beginDrain();

    /** True once beginDrain() ran (locally or via the protocol). */
    bool drainRequested() const;

    /** Block until the queue is empty and no job is running.  Results
     *  stay queryable until stop(). */
    void awaitDrained();

    /** Close every connection, join every thread, unlink the socket.
     *  Queued jobs that never ran are marked cancelled (the final
     *  report accounts for every accepted job). */
    void stop();

    /**
     * Dispatch one request document and return the response document
     * (both serialized JSON).  The socket layer calls this per frame;
     * tests call it directly to drive admission control in-process.
     * Never throws: any error becomes an error response.
     */
    std::string handleRequestText(const std::string &requestJson);

    /** Snapshot of the retained terminal jobs as a runner BatchResult,
     *  in completion order — the payload of the final ufc.report/v2. */
    runner::BatchResult reportBatch() const;

    ServeStats stats() const;
    const ServeConfig &config() const { return cfg_; }

    /** Current degradation tier (0 = normal .. 3 = rejecting). */
    int degradeTier() const;

  private:
    struct JobRecord;
    struct TokenBucket;

    JsonValue handleSubmit(const JsonValue &req);
    JsonValue handleStatus(const JsonValue &req);
    JsonValue handleResult(const JsonValue &req);
    JsonValue handleCancel(const JsonValue &req);
    JsonValue handleHealth();
    JsonValue handleMetrics();
    JsonValue handleDrain();

    void acceptLoop();
    void connectionLoop(int fd);
    void workerLoop(int workerIndex);
    void executeJob(const std::shared_ptr<JobRecord> &rec);
    void finishJob(const std::shared_ptr<JobRecord> &rec);

    /// Admission-time estimate of when capacity frees up (ms).
    double retryAfterMsLocked() const;
    int tierLocked() const;
    std::shared_ptr<JobRecord> findRecord(const std::string &id);

    ServeConfig cfg_;

    // Immutable after construction: the machine registry the
    // ProgramCache keys point into.
    std::unordered_map<std::string,
                       std::shared_ptr<const sim::AcceleratorModel>>
        models_;

    // Warm caches shared across requests.  Generated traces are keyed
    // "w:<workload>:<scale>"; traceOrder_ holds those keys in insertion
    // order for the FIFO bound.
    runner::ProgramCache programCache_;
    std::mutex traceMu_;
    std::unordered_map<std::string,
                       std::shared_ptr<const trace::Trace>>
        traceCache_;
    std::deque<std::string> traceOrder_;

    // Admission + lifecycle state, guarded by mu_.
    mutable std::mutex mu_;
    std::condition_variable queueCv_;    ///< workers wait for jobs
    std::condition_variable terminalCv_; ///< result waiters + drain
    std::deque<std::string> queue_;      ///< queued record ids
    std::unordered_map<std::string, std::shared_ptr<JobRecord>> records_;
    std::deque<std::string> terminalOrder_; ///< retention + report order
    std::unordered_map<std::string, std::unique_ptr<TokenBucket>>
        tenants_;
    std::unordered_set<std::string> warmSpecs_; ///< tier-2 admission set
    ServeStats stats_;
    u64 nextId_ = 1;
    int running_ = 0;        ///< jobs currently executing
    double ewmaJobMs_ = 0.0; ///< service-time estimate for retry_after
    bool draining_ = false;
    bool stopping_ = false;

    // Socket plumbing. The listening fd is shared between stop() and the
    // accept thread, which blocks in accept() on it without holding a lock.
    std::atomic<int> listenFd_{-1};
    std::thread acceptThread_;
    std::vector<std::thread> workers_;
    std::mutex connMu_;
    std::condition_variable connCv_;
    std::unordered_set<int> connFds_;
    int activeConns_ = 0;
    std::chrono::steady_clock::time_point startTime_;
};

} // namespace serve
} // namespace ufc

#endif // UFC_SERVE_SERVER_H
