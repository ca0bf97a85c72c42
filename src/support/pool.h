//===- support/pool.h - Concurrent multi-engine serving pool ---*- C++ -*-===//
///
/// \file
/// EnginePool serves eval jobs from N worker threads, each owning a
/// private SchemeEngine — its own heap, stack segments, mark state,
/// stats, and trace buffer. Engines share nothing mutable (see DESIGN.md
/// §11 for the audit), so the pool needs no locking around evaluation
/// itself: the only synchronized state is the bounded MPMC job queue,
/// the per-worker telemetry shards, and the engine registry used for
/// cross-thread interrupts.
///
/// Jobs are source strings and results are external representations
/// (strings): Values are owned by a worker's heap and must not escape
/// its thread, so the API exchanges only plain data. Each job carries
/// its own EngineLimits (defaulted from PoolOptions), which is how a
/// serving deployment evicts stuck requests — a job that trips its
/// timeout/heap/stack budget fails alone; the worker engine recovers
/// and keeps serving (support/limits.h). Every job runs as a fiber on
/// its worker's engine, in blocking and cooperative mode alike (one
/// worker loop, one meaning for every limit; see EnableFibers).
///
/// Failure model (DESIGN.md §14): every job retires with exactly one
/// typed JobOutcome. The resilience layer has four pillars:
///
///  - *Worker supervision.* A catchable limit trip is business as usual,
///    but a failure that escalated past the PR 3 reserve
///    (SchemeEngine::lastErrorFatal — the program burned through its own
///    recovery slab) marks the engine wounded: the worker rebuilds its
///    engine in place (counted in WorkerRestarts, traced as a
///    "worker-restart" span in the replacement engine's ring). After
///    PoolOptions::BreakerThreshold *consecutive* fatal jobs the
///    worker's circuit breaker opens and it retires instead of
///    rebuild-looping; when the last live worker retires this way, the
///    pool stops accepting work and rejects what is queued, so no
///    submitter can hang on a dead pool.
///  - *Deadlines.* A job may carry an absolute deadline (relative
///    DeadlineMs fixed at submit). A job whose deadline passes while it
///    waits is shed from the queue without running (Outcome Expired);
///    one that is dequeued in time runs with its deadline armed at every
///    switch-in (and caps every park), so a job can never run past its
///    deadline by more than one safe-point interval.
///  - *Retry with backoff.* Opt-in (RetryPolicy) for idempotent jobs:
///    failures classified transient — an interrupt eviction or an
///    attempt whose fibers saw an injected fault (charged to the job's
///    account, so a co-resident job's fault never counts) — are re-run up
///    to MaxAttempts with capped exponential backoff, as are fiber-mode
///    jobs lost with an engine a co-resident job poisoned (one with no
///    attempt left fails as an Error naming the culprit's job id). Jitter
///    is deterministic per job id (retryBackoffMs is a pure function), so
///    chaos runs replay exactly. The job whose failure was fatal, and
///    ordinary errors, never retry; retries stop at the deadline and
///    during a non-drain shutdown.
///  - *Overload control.* With QueueWaitBudgetMs armed, the pool tracks
///    a sliding window of recent queue waits; while the window's p99
///    exceeds the budget, new submissions are shed at the door (Outcome
///    Shed, future resolves immediately — CoDel-style: admission is
///    controlled by experienced queueing delay, not queue length).
///
/// Serving telemetry (DESIGN.md §13): every job records its queue wait,
/// run time, and outcome into log-bucketed histograms; metricsText()/
/// metricsJson() export a Prometheus / `cmarks-metrics-v1` snapshot.
/// With PoolOptions::TraceCapacity set, every run slice of a job renders
/// as a named "job-<id>" span in a merged per-worker Perfetto timeline
/// (traceJson()); with PoolOptions::ProfileHz set, every worker runs the
/// safe-point sampling profiler and profileCollapsed() aggregates a
/// pool-wide flamegraph.
///
/// Consistency model of stats()/telemetry(): a job retires by publishing
/// its whole delta — outcome count, engine-stats delta, and histogram
/// samples — in one critical section on its worker's shard mutex, and
/// readers visit each shard under the same mutex. A read during load can
/// therefore never observe a torn, half-retired job (e.g. a completion
/// counted whose engine stats are missing). The shard mutex is
/// per-worker and only ever contended by a reader, so the retirement
/// path stays effectively uncontended at any worker count. Cross-worker
/// skew remains: jobs retiring while a reader walks the shards appear in
/// later shards but not earlier ones — totals are monotone
/// between-jobs-consistent snapshots, not a global stop-the-world cut.
///
/// Typical use:
/// \code
///   cmk::PoolOptions Opts;
///   Opts.Workers = 4;
///   Opts.DefaultJobLimits.TimeoutMs = 100;
///   Opts.QueueWaitBudgetMs = 50;        // overload -> Shed at the door
///   cmk::EnginePool Pool(Opts);
///   auto F = Pool.submit("(+ 1 2)",     // queued past 500ms -> Expired
///                        cmk::SubmitOptions().deadlineMs(500));
///   cmk::JobResult R = F.get();   // R.Outcome == JobOutcome::Ok, "3"
///   std::string Prom = Pool.metricsText();   // scrape-style export
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_SUPPORT_POOL_H
#define CMARKS_SUPPORT_POOL_H

#include "api/scheme.h"
#include "support/limits.h"
#include "support/metrics.h"
#include "support/stats.h"
#include "support/trace.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cmk {

/// Typed disposition of one pool job. Every future the pool hands out
/// resolves with exactly one of these; the pool's telemetry counts every
/// job in exactly one slot of PoolStats::ByOutcome, so hosts dispatch on
/// the enum instead of string-matching error text.
enum class JobOutcome : uint8_t {
  Ok,               ///< Ran and returned a value.
  Error,            ///< Ran and raised an ordinary Scheme/VM error.
  TrippedHeap,      ///< Evicted: heap byte budget exhausted.
  TrippedStack,     ///< Evicted: stack segment budget exhausted.
  TrippedTimeout,   ///< Evicted: run-time budget or deadline exhausted.
  TrippedInterrupt, ///< Evicted: interruptAll()/requestInterrupt.
  Expired,          ///< Deadline passed while queued; never ran.
  Shed,             ///< Admission control refused it at submit; never queued.
  Rejected,         ///< Pool shut down before it could run.
};

/// Number of JobOutcome values: the size of a per-outcome table.
constexpr int NumJobOutcomes = static_cast<int>(JobOutcome::Rejected) + 1;

/// Stable kebab-case name ("ok", "tripped-heap", "shed", ...), used for
/// metric labels and log lines.
const char *jobOutcomeName(JobOutcome O);

/// The process exit code serving frontends map each outcome to (shared
/// by examples/server.cpp, tools/chaos_pool.cpp, and the REPL's
/// --deadline handling): 0 ok, 1 error, 3 resource trip, 4 shed,
/// 5 expired, 6 rejected, 130 interrupt.
int jobOutcomeExitCode(JobOutcome O);

/// Maps a failed evaluation's ErrorKind to the matching outcome
/// (Runtime -> Error, limit trips -> Tripped*).
JobOutcome jobOutcomeOfErrorKind(ErrorKind K);

/// Outcome of one pool job, delivered through its future. Always
/// delivered: shutdown fulfills (rejects) queued jobs rather than
/// breaking their promises.
struct JobResult {
  bool Ok = false;
  /// Typed disposition; the authoritative classification.
  JobOutcome Outcome = JobOutcome::Error;
  /// write-style external representation of the result ("" on failure).
  std::string Output;
  /// Error message when !Ok ("engine pool is shut down" for rejections).
  std::string Error;
  /// Classification when !Ok: Runtime for ordinary errors (and for jobs
  /// lost with an engine a co-resident job poisoned), or the limit trip
  /// kind (heap/stack/timeout/interrupt) for evicted jobs. None for jobs
  /// that never ran (Expired/Shed).
  ErrorKind Kind = ErrorKind::None;
  /// Evaluation attempts actually made (0 for jobs that never ran,
  /// >1 when a RetryPolicy re-ran a transient failure).
  uint32_t Attempts = 0;
  /// Index of the worker that ran the job (0 for rejected jobs).
  uint32_t Worker = 0;
  /// Monotonic pool-wide job id (assigned at submit; 0 for jobs rejected
  /// or shed before entering the queue). The same id labels the job's
  /// "job-<id>" trace span, so a slow request in a Perfetto timeline can
  /// be joined back to its result.
  uint64_t Id = 0;
};

/// Opt-in retry policy for idempotent jobs. Only failures the pool
/// classifies as *transient* retry: an interrupt eviction or a failure
/// whose attempt recorded injected faults (support/faults.h). Ordinary
/// errors, limit trips, and fatal (beyond-reserve) failures never
/// retry — they are deterministic properties of the job.
struct RetryPolicy {
  uint32_t MaxAttempts = 1;  ///< Total attempts; <=1 disables retry.
  uint64_t BaseBackoffMs = 1;///< Backoff before attempt 2; doubles per
                             ///< attempt (capped at MaxBackoffMs).
  uint64_t MaxBackoffMs = 100;
  bool Jitter = true;        ///< Randomize each backoff in
                             ///< [backoff/2, backoff], deterministically
                             ///< seeded by (job id, attempt).
};

/// The backoff (ms) slept before re-running attempt \p Attempt + 1 of
/// job \p JobId. Pure and deterministic: the same (policy, id, attempt)
/// triple always yields the same delay, so fault-schedule replays and
/// tests see identical retry timing.
uint64_t retryBackoffMs(const RetryPolicy &P, uint64_t JobId,
                        uint32_t Attempt);

/// Per-submit knobs beyond the source text. Unset limits inherit
/// PoolOptions::DefaultJobLimits; the default retry policy never retries
/// (retrying is an idempotency claim only the submitter can make).
struct SubmitOptions {
  bool HasLimits = false; ///< Set via limits(); false = pool default.
  EngineLimits Limits;
  RetryPolicy Retry;
  /// Deadline relative to submit, in ms (fixed to an absolute instant at
  /// submit). 0 = none.
  uint64_t DeadlineMs = 0;

  SubmitOptions &limits(const EngineLimits &L) {
    Limits = L;
    HasLimits = true;
    return *this;
  }
  SubmitOptions &retry(const RetryPolicy &R) {
    Retry = R;
    return *this;
  }
  SubmitOptions &deadlineMs(uint64_t Ms) {
    DeadlineMs = Ms;
    return *this;
  }
};

/// Pool construction parameters.
struct PoolOptions {
  /// Worker threads (= engines). 0 picks std::thread::hardware_concurrency.
  unsigned Workers = 0;
  /// Bounded job-queue capacity; submit() blocks while the queue is full
  /// (backpressure).
  size_t QueueCapacity = 256;
  /// Engine template: every worker constructs its engine from this
  /// (variant, compiler options, prelude).
  EngineOptions Engine;
  /// Budgets installed for jobs submitted without explicit limits. The
  /// zero default means ungoverned; serving deployments should at least
  /// arm TimeoutMs so a stuck request cannot retire a worker.
  EngineLimits DefaultJobLimits;
  /// Worker supervision: on the Nth *consecutive* fatal (beyond-reserve)
  /// job failure the worker's circuit breaker opens and it retires
  /// instead of rebuilding again (so a threshold of 3 absorbs two
  /// supervised restarts first). Guards against a poisoned traffic mix
  /// turning the pool into a rebuild loop. 0 disables the breaker.
  uint32_t BreakerThreshold = 3;
  /// Overload control: when nonzero, the pool sheds new submissions
  /// (Outcome Shed) while the sliding queue-wait p99 exceeds this budget
  /// (ms). 0 disables admission control.
  uint64_t QueueWaitBudgetMs = 0;
  /// Sliding-window size (recent dequeues) for the admission p99.
  /// Clamped to [8, 1024]. Note: below 100 samples the p99 degenerates
  /// to the window max — deliberately conservative under overload.
  uint32_t AdmissionWindow = 64;
  /// When nonzero, every worker engine records its trace ring (this many
  /// events) and jobs are bracketed by named "job-<id>" spans;
  /// traceJson() merges the per-worker rings into one Perfetto timeline
  /// (complete after shutdown()).
  uint32_t TraceCapacity = 0;
  /// When nonzero, every worker runs the safe-point sampling profiler at
  /// this rate (Hz, SamplingProfiler::DefaultCapacity samples per worker
  /// ring); profileCollapsed() aggregates a pool-wide collapsed flamegraph
  /// (complete after shutdown()).
  uint32_t ProfileHz = 0;
  /// Cooperative fiber multiplexing (DESIGN.md §16). In both modes every
  /// job runs as a fiber under its own limits: TimeoutMs governs *on-CPU*
  /// time (parked time is excluded), HeapBytes and MaxLiveSegments the
  /// heap and stack segments charged to the job's fibers, and deadlines
  /// stay wall-clock. Off (blocking), a worker runs one job at a time and
  /// a job that waits (sleep-ms, channel wait) holds its worker. On, a
  /// worker admits up to MaxFibersPerWorker jobs over its one engine, and
  /// a job that waits parks, releasing the worker to run the others, so
  /// M >> N jobs with backend-style waits multiplex over N workers.
  bool EnableFibers = false;
  /// Max jobs admitted per worker with EnableFibers (0 = 64); blocking
  /// mode admits one.
  uint32_t MaxFibersPerWorker = 64;
};

/// Pool-wide statistics snapshot (stats()).
struct PoolStats {
  uint64_t JobsSubmitted = 0; ///< Accepted into the queue.
  /// Resolved jobs by outcome, indexed by JobOutcome: each resolved
  /// future counts in exactly one slot.
  uint64_t ByOutcome[NumJobOutcomes] = {};
  uint64_t WorkerRestarts = 0; ///< Engines rebuilt after fatal failures.
  uint64_t BreakerOpens = 0;  ///< Workers retired by their circuit breaker.
  uint64_t RetriesAttempted = 0; ///< Re-runs of transient failures.
  uint64_t QueueHighWater = 0; ///< Max queue depth observed.
  /// Aggregated runtime event counters (support/stats.h) across every
  /// worker engine, accumulated as jobs retire. In-flight jobs appear
  /// once they finish.
  VMStats Engines;
};

/// Full telemetry snapshot (telemetry()): PoolStats plus latency
/// histograms, queue gauges, and trace/profile meta-telemetry. Same
/// consistency model as stats().
struct PoolTelemetry {
  PoolStats Stats;
  LogHistogram QueueWaitUs; ///< Per-dequeued-job submit -> dequeue wait
                            ///< (µs); includes jobs that expired there.
  LogHistogram RunUs;       ///< Per-run-job evaluation time (µs), summed
                            ///< across retry attempts (backoff excluded).
  uint64_t TraceDropped = 0; ///< Trace-ring events lost to wraparound,
                             ///< summed across workers (detects truncated
                             ///< Perfetto exports).
  uint64_t ProfileSamples = 0; ///< Samples captured across workers.
  uint64_t ProfileDropped = 0; ///< Samples lost to ring wraparound.
  uint64_t QueueDepth = 0;     ///< Jobs waiting right now.
  uint64_t InFlight = 0;       ///< Jobs evaluating right now.
  uint64_t LiveWorkers = 0;    ///< Workers still serving (breakers shut).
};

/// A fixed-size pool of worker threads with one private SchemeEngine
/// each, fed by a bounded MPMC queue. Thread-safe: submit/stats/
/// telemetry/metrics*/interruptAll may be called concurrently from any
/// thread.
class EnginePool {
public:
  explicit EnginePool(const PoolOptions &Opts = PoolOptions());
  ~EnginePool(); ///< shutdown(/*Drain=*/true).
  EnginePool(const EnginePool &) = delete;
  EnginePool &operator=(const EnginePool &) = delete;

  /// Enqueues \p Source under the default job limits, with no deadline
  /// or retry. Blocks while the queue is full; returns an
  /// already-rejected future after shutdown, and an already-shed future
  /// under admission pressure.
  std::future<JobResult> submit(std::string Source);

  /// Enqueues \p Source with job-specific budgets (overrides, not merges,
  /// the defaults).
  std::future<JobResult> submit(std::string Source, const EngineLimits &L);

  /// Enqueues \p Source with per-job limits, deadline, and retry policy.
  std::future<JobResult> submit(std::string Source, const SubmitOptions &SO);

  /// Stops the pool and joins the workers. Drain=true finishes queued
  /// jobs first; Drain=false rejects them (their futures resolve with
  /// Outcome Rejected), along with fiber-mode jobs parked at the time.
  /// Running jobs always finish their slice — in blocking mode the whole
  /// job — so combine with interruptAll() to evict them promptly.
  /// Submitters blocked on backpressure are woken and rejected in both
  /// modes. Idempotent; the first call's Drain wins.
  void shutdown(bool Drain = true);

  /// Asks every currently-running evaluation to stop at its next safe
  /// point (delivered as a catchable exn:interrupt?, see support/
  /// limits.h). Idle engines are unaffected: a pending interrupt is
  /// cleared when the next run re-arms governance.
  void interruptAll();

  unsigned workerCount() const {
    return static_cast<unsigned>(Threads.size());
  }

  /// Thread-safe snapshot of the pool-wide counters and the aggregated
  /// per-engine runtime stats (see the consistency model above).
  PoolStats stats() const;

  /// Thread-safe full telemetry snapshot: stats() plus merged latency
  /// histograms and queue gauges.
  PoolTelemetry telemetry() const;

  /// Prometheus text exposition of the current telemetry snapshot.
  std::string metricsText() const;
  /// The same snapshot as a `cmarks-metrics-v1` JSON document
  /// (tools/metrics_report.py validates it).
  std::string metricsJson() const;

  /// Merged per-worker Perfetto timeline (PoolOptions::TraceCapacity).
  /// Each engine incarnation's ring is snapshotted when the engine
  /// retires (worker exit or supervised restart), so restarted-away
  /// engines appear as soon as they die; the currently-serving engines'
  /// rings appear after shutdown().
  std::string traceJson() const;
  bool dumpTrace(const std::string &Path) const;

  /// Pool-wide collapsed-stack profile (PoolOptions::ProfileHz),
  /// flamegraph.pl/speedscope-compatible. Complete after shutdown().
  std::string profileCollapsed() const;
  bool dumpProfile(const std::string &Path) const;

private:
  struct Job {
    uint64_t Id = 0;
    std::string Source;
    EngineLimits Limits;
    RetryPolicy Retry;
    std::promise<JobResult> Promise;
    uint64_t EnqueueNs = 0;
    uint64_t DeadlineNs = 0; ///< Absolute (nowNanos clock); 0 = none.
  };

  /// Per-worker telemetry shard. The worker retires every job under Mu
  /// (uncontended unless a reader is merging); readers take Mu per shard.
  struct WorkerShard {
    mutable std::mutex Mu;
    LogHistogram QueueWaitUs;
    LogHistogram RunUs;
    uint64_t ByOutcome[NumJobOutcomes] = {};
    uint64_t WorkerRestarts = 0;
    uint64_t BreakerOpens = 0;
    uint64_t RetriesAttempted = 0;
    VMStats Engines;
    /// Cumulative trace/profile meta-telemetry. The *Prior fields hold
    /// the totals of retired engine incarnations; the headline fields
    /// add the live engine's contribution on top.
    uint64_t TraceDropped = 0;
    uint64_t ProfileSamples = 0;
    uint64_t ProfileDropped = 0;
    uint64_t TraceDroppedPrior = 0;
    uint64_t ProfileSamplesPrior = 0;
    uint64_t ProfileDroppedPrior = 0;
    /// Ring snapshots of every retired engine incarnation, in order
    /// (TraceCapacity mode). Entry 0 is the original engine.
    std::vector<TraceBuffer> TraceSnaps;
    /// Folded collapsed-stack counts (ProfileHz mode), merged across
    /// incarnations.
    std::map<std::string, uint64_t> ProfileFold;
  };

  /// The worker loop, both modes: admits queued jobs as fibers (up to one,
  /// or MaxFibersPerWorker with EnableFibers), slices the scheduler,
  /// retries or retires finished jobs, and supervises the engine.
  void workerMain(unsigned Idx);
  std::unique_ptr<SchemeEngine> buildWorkerEngine(unsigned Idx,
                                                  uint32_t Incarnation);
  void retireEngine(SchemeEngine &Engine, unsigned Idx);
  void expireJob(Job &J, unsigned Idx, uint64_t WaitNs);
  static void rejectJob(Job &J);
  void shedJob(Job &J, uint64_t WindowP99Us);
  /// Rejects everything queued (shutdown, or last worker retired).
  void rejectQueuedJobs();
  void noteQueueWait(uint64_t WaitUs);
  /// Sliding-window queue-wait p99 in µs (0 until the window has at
  /// least MinAdmissionSamples entries, or with admission control off).
  uint64_t admissionP99Us() const;
  MetricsRegistry buildMetrics() const;

  static constexpr size_t MinAdmissionSamples = 8;

  PoolOptions Opts;
  std::vector<std::thread> Threads;
  std::vector<std::unique_ptr<WorkerShard>> Shards;

  // Bounded MPMC queue.
  mutable std::mutex QueueMu;
  std::condition_variable NotEmpty; ///< Waited on by workers.
  std::condition_variable NotFull;  ///< Waited on by blocked submitters.
  std::deque<Job> Queue;
  bool Stopping = false;    ///< Guarded by QueueMu.
  bool DrainOnStop = true;  ///< Guarded by QueueMu.
  uint64_t HighWater = 0;   ///< Guarded by QueueMu.
  uint64_t NextJobId = 1;   ///< Guarded by QueueMu.
  unsigned LiveWorkers = 0; ///< Guarded by QueueMu.

  // Shutdown join serialization (never held while touching QueueMu).
  std::mutex JoinMu;
  bool Joined = false; ///< Guarded by JoinMu.

  // Engine registry for cross-thread interrupts. Slot Idx is published
  // by worker Idx after construction and cleared before destruction.
  mutable std::mutex EnginesMu;
  std::vector<SchemeEngine *> Engines;

  // Counters kept off the workers: submissions, and the outcomes of jobs
  // resolved at the door or by shutdown (shed, rejected). The retire side
  // lives in the shards.
  mutable std::mutex StatsMu;
  uint64_t JobsSubmitted = 0;              ///< Guarded by StatsMu.
  uint64_t ByOutcome[NumJobOutcomes] = {}; ///< Guarded by StatsMu.

  // Admission-control sliding window of recent queue waits (µs).
  mutable std::mutex AdmissionMu;
  std::vector<uint32_t> AdmissionWaitsUs; ///< Ring; guarded by AdmissionMu.
  size_t AdmissionNext = 0;               ///< Guarded by AdmissionMu.
  size_t AdmissionCount = 0;              ///< Guarded by AdmissionMu.

  std::atomic<uint64_t> InFlight{0};
};

} // namespace cmk

#endif // CMARKS_SUPPORT_POOL_H
