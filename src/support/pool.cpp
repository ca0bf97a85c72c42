//===- support/pool.cpp - Concurrent multi-engine serving pool ------------===//

#include "support/pool.h"
#include "support/profiler.h"
#include "support/rng.h"
#include "support/timing.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

using namespace cmk;

namespace {

/// Fieldwise Agg += Delta over every counter in the stats table.
void accumulateStats(VMStats &Agg, const VMStats &Delta) {
  int N = 0;
  const StatsCounterDesc *Table = statsCounters(N);
  for (int I = 0; I < N; ++I)
    Agg.*(Table[I].Field) += Delta.*(Table[I].Field);
}

} // namespace

const char *cmk::jobOutcomeName(JobOutcome O) {
  switch (O) {
  case JobOutcome::Ok:
    return "ok";
  case JobOutcome::Error:
    return "error";
  case JobOutcome::TrippedHeap:
    return "tripped-heap";
  case JobOutcome::TrippedStack:
    return "tripped-stack";
  case JobOutcome::TrippedTimeout:
    return "tripped-timeout";
  case JobOutcome::TrippedInterrupt:
    return "tripped-interrupt";
  case JobOutcome::Expired:
    return "expired";
  case JobOutcome::Shed:
    return "shed";
  case JobOutcome::Rejected:
    return "rejected";
  }
  return "?";
}

int cmk::jobOutcomeExitCode(JobOutcome O) {
  switch (O) {
  case JobOutcome::Ok:
    return 0;
  case JobOutcome::Error:
    return 1;
  case JobOutcome::TrippedHeap:
  case JobOutcome::TrippedStack:
  case JobOutcome::TrippedTimeout:
    return 3;
  case JobOutcome::TrippedInterrupt:
    return 130;
  case JobOutcome::Shed:
    return 4;
  case JobOutcome::Expired:
    return 5;
  case JobOutcome::Rejected:
    return 6;
  }
  return 1;
}

JobOutcome cmk::jobOutcomeOfErrorKind(ErrorKind K) {
  switch (K) {
  case ErrorKind::HeapLimit:
    return JobOutcome::TrippedHeap;
  case ErrorKind::StackLimit:
    return JobOutcome::TrippedStack;
  case ErrorKind::Timeout:
    return JobOutcome::TrippedTimeout;
  case ErrorKind::Interrupt:
    return JobOutcome::TrippedInterrupt;
  case ErrorKind::None:
  case ErrorKind::Runtime:
    break;
  }
  return JobOutcome::Error;
}

uint64_t cmk::retryBackoffMs(const RetryPolicy &P, uint64_t JobId,
                             uint32_t Attempt) {
  if (Attempt == 0)
    Attempt = 1;
  uint64_t Cap = P.MaxBackoffMs ? P.MaxBackoffMs : P.BaseBackoffMs;
  uint64_t Backoff = P.BaseBackoffMs;
  // Saturating base << (attempt-1), capped.
  for (uint32_t I = 1; I < Attempt && Backoff < Cap; ++I)
    Backoff = Backoff > (Cap >> 1) ? Cap : Backoff * 2;
  if (Backoff > Cap)
    Backoff = Cap;
  if (!P.Jitter || Backoff == 0)
    return Backoff;
  // Deterministic per (job, attempt): replays of a chaos schedule see the
  // exact same sleep sequence.
  Rng R(JobId * 0x9e3779b97f4a7c15ULL + Attempt);
  uint64_t Half = Backoff / 2;
  return Half + R.nextBelow(Backoff - Half + 1);
}

EnginePool::EnginePool(const PoolOptions &O) : Opts(O) {
  unsigned N = Opts.Workers;
  if (N == 0) {
    N = std::thread::hardware_concurrency();
    if (N == 0)
      N = 1;
  }
  if (Opts.QueueCapacity == 0)
    Opts.QueueCapacity = 1;
  if (Opts.QueueWaitBudgetMs) {
    uint32_t W = Opts.AdmissionWindow;
    W = std::max<uint32_t>(8, std::min<uint32_t>(W ? W : 64, 1024));
    AdmissionWaitsUs.assign(W, 0);
  }
  Engines.assign(N, nullptr);
  Shards.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Shards.emplace_back(std::make_unique<WorkerShard>());
  LiveWorkers = N;
  Threads.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([this, I] { workerMain(I); });
}

EnginePool::~EnginePool() { shutdown(/*Drain=*/true); }

std::unique_ptr<SchemeEngine> EnginePool::buildWorkerEngine(
    unsigned Idx, uint32_t Incarnation) {
  // The engine is constructed on the worker thread so its heap, stacks,
  // and prelude bootstrap never touch another thread.
  auto E = std::make_unique<SchemeEngine>(Opts.Engine);
  // A fleet of engines sharing one CMARKS_FAULT_SPEC would otherwise
  // inject in lockstep; the salt keeps schedules distinct but still a
  // pure function of (spec, worker, incarnation).
  E->faults().reseed(static_cast<uint64_t>(Idx) * 1000003u + Incarnation);
  // Jobs carry their own budgets (per-fiber time, per-account heap and
  // segments); the engine itself stays ungoverned.
  E->limits() = EngineLimits();
  E->enableFiberPool(Opts.EnableFibers);
  if (Opts.TraceCapacity)
    E->startTrace(Opts.TraceCapacity);
  if (Opts.ProfileHz)
    E->vm().profiler().start(E->vm(), Opts.ProfileHz);
  {
    std::lock_guard<std::mutex> L(EnginesMu);
    Engines[Idx] = E.get();
  }
  return E;
}

void EnginePool::retireEngine(SchemeEngine &Engine, unsigned Idx) {
  // Snapshot the engine's observability state into the pool-owned shard
  // before it dies so traceJson()/profileCollapsed() stay valid across
  // supervised restarts and after shutdown. The profiler's sampler
  // thread must stop before the fold (and before the VM is destroyed).
  SamplingProfiler &Prof = Engine.vm().profiler();
  Prof.stop();
  WorkerShard &S = *Shards[Idx];
  std::lock_guard<std::mutex> L(S.Mu);
  S.TraceDroppedPrior += Engine.trace().dropped();
  S.ProfileSamplesPrior += Prof.total();
  S.ProfileDroppedPrior += Prof.dropped();
  S.TraceDropped = S.TraceDroppedPrior;
  S.ProfileSamples = S.ProfileSamplesPrior;
  S.ProfileDropped = S.ProfileDroppedPrior;
  if (Opts.TraceCapacity)
    S.TraceSnaps.push_back(Engine.trace());
  if (Opts.ProfileHz)
    Prof.foldInto(S.ProfileFold);
}

void EnginePool::workerMain(unsigned Idx) {
  // The one worker loop (DESIGN.md §16): every job runs as a fiber on this
  // worker's engine, under its own budgets. Blocking mode admits one job
  // at a time, whose waits block the worker inside its slice; fiber mode
  // admits up to MaxFibersPerWorker and parks their waits.
  const uint32_t Cap = !Opts.EnableFibers             ? 1
                       : Opts.MaxFibersPerWorker != 0 ? Opts.MaxFibersPerWorker
                                                      : 64;
  uint32_t Incarnation = 0;
  std::unique_ptr<SchemeEngine> Engine = buildWorkerEngine(Idx, Incarnation);
  WorkerShard &S = *Shards[Idx];

  /// One admitted job, keyed by its current fiber id (a retry respawns it
  /// under a fresh id).
  struct ActiveJob {
    Job J;
    uint64_t WaitNs = 0;
    uint32_t Attempt = 1;
    /// Compile plus on-CPU ns, summed across attempts: parked time is
    /// exactly what is not charged.
    uint64_t RunNs = 0;
  };
  std::map<uint64_t, ActiveJob> Active;
  std::vector<std::pair<ActiveJob, JobResult>> Finished;
  uint64_t Retries = 0;
  VMStats StatsMark = Engine->stats();
  uint32_t ConsecutiveFatal = 0;
  bool BreakerOpened = false;

  auto AbortRequested = [&] {
    std::lock_guard<std::mutex> L(QueueMu);
    return Stopping && !DrainOnStop;
  };
  auto Fail = [&](ActiveJob A, JobOutcome O, std::string Err, ErrorKind K) {
    JobResult R;
    R.Outcome = O;
    R.Error = std::move(Err);
    R.Kind = K;
    Finished.emplace_back(std::move(A), std::move(R));
  };
  auto FailAllActive = [&](JobOutcome O, const std::string &Err,
                           ErrorKind K) {
    for (auto &KV : Active)
      Fail(std::move(KV.second), O, Err, K);
    Active.clear();
  };
  // Compiles attempt A.Attempt and spawns it to first run after DelayNs;
  // a source that does not read or compile fails the job right here.
  auto Spawn = [&](ActiveJob A, uint64_t DelayNs) {
    std::string Err;
    uint64_t T0 = nowNanos();
    uint64_t FiberId = Engine->spawnFiberJob(A.J.Source, A.J.Limits, A.J.Id,
                                             A.J.DeadlineNs, DelayNs, &Err);
    A.RunNs += nowNanos() - T0;
    if (FiberId)
      Active.emplace(FiberId, std::move(A));
    else
      Fail(std::move(A), JobOutcome::Error, std::move(Err),
           ErrorKind::Runtime);
  };
  // The one retry rule: only a transient failure re-runs — an interrupt
  // eviction, an attempt that saw injected faults, or a job lost with a
  // co-resident's dying engine — after a deterministic backoff, never past
  // its deadline or during a non-drain shutdown. Returns the backoff in
  // ns, or -1 for no retry.
  auto RetryDelayNs = [&](const ActiveJob &A, bool Transient) -> int64_t {
    uint32_t MaxAttempts = A.J.Retry.MaxAttempts ? A.J.Retry.MaxAttempts : 1;
    if (!Transient || A.Attempt >= MaxAttempts || AbortRequested())
      return -1;
    uint64_t BackoffNs = retryBackoffMs(A.J.Retry, A.J.Id, A.Attempt) * 1000000;
    if (A.J.DeadlineNs && nowNanos() + BackoffNs >= A.J.DeadlineNs)
      return -1; // The retry could not finish in time anyway.
    return static_cast<int64_t>(BackoffNs);
  };
  // Re-runs A after DelayNs; the scheduler's timer wheel serves as the
  // backoff sleep.
  auto Retry = [&](ActiveJob A, int64_t DelayNs) {
    ++A.Attempt;
    ++Retries;
    Spawn(std::move(A), static_cast<uint64_t>(DelayNs));
  };
  // Retires the finished jobs: their outcome counts, histogram samples,
  // and the engine-stats delta that produced them publish in one shard
  // critical section (the consistency model in pool.h), then the futures
  // resolve.
  auto Publish = [&] {
    VMStats Now = Engine->stats();
    VMStats Delta = Now.delta(StatsMark);
    StatsMark = Now;
    {
      std::lock_guard<std::mutex> L(S.Mu);
      accumulateStats(S.Engines, Delta);
      S.TraceDropped = S.TraceDroppedPrior + Engine->trace().dropped();
      S.ProfileSamples = S.ProfileSamplesPrior + Engine->profiler().total();
      S.ProfileDropped = S.ProfileDroppedPrior + Engine->profiler().dropped();
      S.RetriesAttempted += Retries;
      for (auto &[A, R] : Finished) {
        ++S.ByOutcome[static_cast<int>(R.Outcome)];
        if (R.Outcome == JobOutcome::Rejected)
          continue; // Cut off by shutdown: no latency to report.
        S.QueueWaitUs.record(A.WaitNs / 1000);
        S.RunUs.record(A.RunNs / 1000);
      }
    }
    Retries = 0;
    for (auto &[A, R] : Finished) {
      R.Ok = R.Outcome == JobOutcome::Ok;
      R.Attempts = A.Attempt;
      R.Worker = Idx;
      R.Id = A.J.Id;
      InFlight.fetch_sub(1, std::memory_order_relaxed);
      A.J.Promise.set_value(std::move(R));
    }
    Finished.clear();
  };

  for (;;) {
    if (AbortRequested())
      break;

    // Admit queued jobs into free slots.
    while (Active.size() < Cap) {
      Job J;
      {
        std::lock_guard<std::mutex> L(QueueMu);
        if (Queue.empty())
          break;
        J = std::move(Queue.front());
        Queue.pop_front();
      }
      NotFull.notify_one();
      uint64_t DequeueNs = nowNanos();
      uint64_t WaitNs = DequeueNs > J.EnqueueNs ? DequeueNs - J.EnqueueNs : 0;
      if (Opts.QueueWaitBudgetMs)
        noteQueueWait(WaitNs / 1000);
      if (J.DeadlineNs && DequeueNs >= J.DeadlineNs) {
        // Shed from the queue without running: the deadline already
        // passed, so any work done now is wasted and delays live jobs.
        expireJob(J, Idx, WaitNs);
        continue;
      }
      InFlight.fetch_add(1, std::memory_order_relaxed);
      ActiveJob A;
      A.J = std::move(J);
      A.WaitNs = WaitNs;
      Spawn(std::move(A), 0);
    }

    if (Active.empty()) {
      Publish(); // Jobs whose source did not compile.
      std::unique_lock<std::mutex> L(QueueMu);
      if (Stopping && Queue.empty())
        break;
      NotEmpty.wait(L, [&] { return Stopping || !Queue.empty(); });
      continue;
    }

    // One scheduler slice: fibers run until a job retires or everything
    // is parked (blocking mode: until its one job retires).
    Value Status = Engine->runFiberSlice();
    bool SliceFailed = !Engine->ok();
    bool Fatal = SliceFailed && Engine->lastErrorFatal();
    if (SliceFailed && !Fatal)
      Engine->failCurrentFiber();
    if (!SliceFailed)
      ConsecutiveFatal = 0;

    for (FiberJobInfo &Info : Engine->takeFinishedFiberJobs()) {
      auto It = Active.find(Info.Id);
      if (It == Active.end())
        continue;
      ActiveJob A = std::move(It->second);
      Active.erase(It);
      A.RunNs += Info.RunNs;
      int64_t DelayNs = -1;
      if (!Info.Ok)
        DelayNs = RetryDelayNs(A, Info.Kind == ErrorKind::Interrupt ||
                                      Info.FaultsInjected > 0);
      if (DelayNs >= 0) {
        Retry(std::move(A), DelayNs);
        continue;
      }
      JobResult R;
      R.Outcome = Info.Ok ? JobOutcome::Ok : jobOutcomeOfErrorKind(Info.Kind);
      (Info.Ok ? R.Output : R.Error) = std::move(Info.Output);
      R.Kind = Info.Kind;
      Finished.emplace_back(std::move(A), std::move(R));
    }

    if (Fatal) {
      // Beyond-reserve failure: every admitted job lived in the dying
      // engine's heap. The job that overran fails with it; co-resident
      // victims re-run on the rebuilt engine when their policy allows, and
      // otherwise fail as errors of their own that name the culprit.
      // Supervise: rebuild the engine in place, or open the breaker.
      ++ConsecutiveFatal;
      bool OpenBreaker = Opts.BreakerThreshold &&
                         ConsecutiveFatal >= Opts.BreakerThreshold;
      uint64_t Culprit = Engine->currentJobId();
      std::string Lost = "lost with its worker engine: co-resident job " +
                         std::to_string(Culprit) + " failed fatally (" +
                         Engine->lastError() + ")";
      std::vector<std::pair<ActiveJob, int64_t>> Victims;
      for (auto &KV : Active) {
        ActiveJob &A = KV.second;
        if (A.J.Id == Culprit) {
          Fail(std::move(A), jobOutcomeOfErrorKind(Engine->lastErrorKind()),
               Engine->lastError(), Engine->lastErrorKind());
          continue;
        }
        int64_t DelayNs = OpenBreaker ? -1 : RetryDelayNs(A, true);
        if (DelayNs >= 0)
          Victims.emplace_back(std::move(A), DelayNs);
        else
          Fail(std::move(A), JobOutcome::Error, Lost, ErrorKind::Runtime);
      }
      Active.clear();
      if (OpenBreaker) {
        Publish();
        std::lock_guard<std::mutex> L(S.Mu);
        ++S.BreakerOpens;
        BreakerOpened = true;
        break;
      }
      Publish();
      uint64_t T0 = nowNanos();
      {
        std::lock_guard<std::mutex> L(EnginesMu);
        Engines[Idx] = nullptr;
      }
      // The restart span closes the retired incarnation's ring, which
      // nothing records into once it is snapshotted; in the replacement's
      // ring the next jobs' events would wrap it away.
      CMK_TRACE_EV(Engine->vm().trace(), WorkerRestartBegin, Idx);
      retireEngine(*Engine, Idx);
      Engine.reset();
      Engine = buildWorkerEngine(Idx, ++Incarnation);
      StatsMark = Engine->stats();
      {
        std::lock_guard<std::mutex> L(S.Mu);
        ++S.WorkerRestarts;
        if (Opts.TraceCapacity) {
          TraceBuffer &Retired = S.TraceSnaps.back();
          uint64_t Dropped = Retired.dropped();
          Retired.record(TraceEv::WorkerRestartEnd, nowNanos() - T0);
          S.TraceDroppedPrior += Retired.dropped() - Dropped;
        }
      }
      for (auto &[A, DelayNs] : Victims)
        Retry(std::move(A), DelayNs);
      continue;
    }
    Publish();

    // Everything parked: sleep until the earliest timer or work for a free
    // slot, in <=10ms chunks so interrupts stay responsive.
    if (Engine->fiberHasRunnable() || Status != Engine->heap().intern("idle"))
      continue;
    uint64_t TimerNs = Engine->fiberNextTimerDelayNs();
    if (Engine->fiberInterruptPending() && TimerNs != 0) {
      // interruptAll() with everything parked: force the earliest sleeper
      // due now; its first safe point delivers the trip.
      Engine->fiberWakeEarliest();
      continue;
    }
    std::unique_lock<std::mutex> L(QueueMu);
    // Drain shutdown with only untimed parks left: no new job can ever
    // unpark them, so they can never finish.
    if (Stopping && Queue.empty() && TimerNs == 0)
      break;
    uint64_t WaitNs = TimerNs == 0 || TimerNs > 10000000 ? 10000000 : TimerNs;
    NotEmpty.wait_for(L, std::chrono::nanoseconds(WaitNs), [&] {
      return (Stopping && !DrainOnStop) ||
             (Active.size() < Cap && !Queue.empty());
    });
  }

  // Non-drain shutdown, breaker, or unfinishable parks: resolve whatever
  // is still admitted.
  FailAllActive(JobOutcome::Rejected, "engine pool is shut down",
                ErrorKind::Runtime);
  Publish();
  {
    std::lock_guard<std::mutex> L(EnginesMu);
    Engines[Idx] = nullptr;
  }
  retireEngine(*Engine, Idx);
  Engine.reset();
  bool LastOut = false;
  {
    std::lock_guard<std::mutex> L(QueueMu);
    --LiveWorkers;
    // The last live worker retiring through its breaker turns the pool
    // off: nothing is left to serve, so queued jobs and blocked
    // submitters must be rejected, not stranded.
    if (BreakerOpened && LiveWorkers == 0 && !Stopping) {
      Stopping = true;
      DrainOnStop = false;
      LastOut = true;
    }
  }
  if (LastOut) {
    NotEmpty.notify_all();
    NotFull.notify_all();
    rejectQueuedJobs();
  }
}

void EnginePool::expireJob(Job &J, unsigned Idx, uint64_t WaitNs) {
  JobResult R;
  R.Ok = false;
  R.Outcome = JobOutcome::Expired;
  R.Error = "job deadline expired before it ran";
  R.Kind = ErrorKind::None;
  R.Worker = Idx;
  R.Id = J.Id;
  {
    WorkerShard &S = *Shards[Idx];
    std::lock_guard<std::mutex> L(S.Mu);
    // The wait still happened (and is exactly why the job expired); the
    // run did not, so only the wait histogram records it.
    S.QueueWaitUs.record(WaitNs / 1000);
    ++S.ByOutcome[static_cast<int>(JobOutcome::Expired)];
  }
  J.Promise.set_value(std::move(R));
}

void EnginePool::rejectJob(Job &J) {
  JobResult R;
  R.Ok = false;
  R.Outcome = JobOutcome::Rejected;
  R.Error = "engine pool is shut down";
  R.Kind = ErrorKind::Runtime;
  R.Id = J.Id;
  J.Promise.set_value(std::move(R));
}

void EnginePool::shedJob(Job &J, uint64_t WindowP99Us) {
  JobResult R;
  R.Ok = false;
  R.Outcome = JobOutcome::Shed;
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf),
                "admission control: queue-wait p99 %" PRIu64
                "us exceeds the %" PRIu64 "ms budget; job shed",
                WindowP99Us, Opts.QueueWaitBudgetMs);
  R.Error = Buf;
  J.Promise.set_value(std::move(R));
}

void EnginePool::rejectQueuedJobs() {
  // Whatever is still queued (non-drain shutdown, jobs that raced in
  // before Stopping was visible, or a pool whose last worker retired)
  // gets rejected, never dropped: every future the pool handed out
  // resolves.
  std::deque<Job> Leftover;
  {
    std::lock_guard<std::mutex> L(QueueMu);
    Leftover.swap(Queue);
  }
  for (Job &J : Leftover)
    rejectJob(J);
  if (!Leftover.empty()) {
    std::lock_guard<std::mutex> L(StatsMu);
    ByOutcome[static_cast<int>(JobOutcome::Rejected)] += Leftover.size();
  }
}

void EnginePool::noteQueueWait(uint64_t WaitUs) {
  std::lock_guard<std::mutex> L(AdmissionMu);
  if (AdmissionWaitsUs.empty())
    return;
  uint32_t V = WaitUs > UINT32_MAX ? UINT32_MAX
                                   : static_cast<uint32_t>(WaitUs);
  AdmissionWaitsUs[AdmissionNext] = V;
  AdmissionNext = (AdmissionNext + 1) % AdmissionWaitsUs.size();
  if (AdmissionCount < AdmissionWaitsUs.size())
    ++AdmissionCount;
}

uint64_t EnginePool::admissionP99Us() const {
  std::lock_guard<std::mutex> L(AdmissionMu);
  if (AdmissionCount < MinAdmissionSamples)
    return 0;
  // Entries [0, AdmissionCount) are exactly the valid ones, wrapped or
  // not (AdmissionCount saturates at the ring size).
  std::vector<uint32_t> W(AdmissionWaitsUs.begin(),
                          AdmissionWaitsUs.begin() +
                              static_cast<ptrdiff_t>(AdmissionCount));
  size_t Idx = (W.size() * 99 + 99) / 100; // ceil(0.99 N)
  if (Idx > 0)
    --Idx;
  std::nth_element(W.begin(), W.begin() + static_cast<ptrdiff_t>(Idx),
                   W.end());
  return W[Idx];
}

std::future<JobResult> EnginePool::submit(std::string Source) {
  return submit(std::move(Source), SubmitOptions());
}

std::future<JobResult> EnginePool::submit(std::string Source,
                                          const EngineLimits &L) {
  SubmitOptions SO;
  SO.limits(L);
  return submit(std::move(Source), SO);
}

std::future<JobResult> EnginePool::submit(std::string Source,
                                          const SubmitOptions &SO) {
  Job J;
  J.Source = std::move(Source);
  J.Limits = SO.HasLimits ? SO.Limits : Opts.DefaultJobLimits;
  J.Retry = SO.Retry;
  std::future<JobResult> F = J.Promise.get_future();

  if (Opts.QueueWaitBudgetMs) {
    uint64_t P99Us = admissionP99Us();
    if (P99Us > Opts.QueueWaitBudgetMs * 1000) {
      // Shed at the door: recent jobs waited longer than the budget, so
      // this one would too. Resolving immediately beats queueing work
      // that is doomed to expire.
      {
        std::lock_guard<std::mutex> L(StatsMu);
        ++ByOutcome[static_cast<int>(JobOutcome::Shed)];
      }
      shedJob(J, P99Us);
      return F;
    }
  }

  bool Rejected = false;
  {
    std::unique_lock<std::mutex> Lk(QueueMu);
    NotFull.wait(Lk, [&] {
      return Stopping || Queue.size() < Opts.QueueCapacity;
    });
    if (Stopping) {
      Rejected = true;
    } else {
      J.Id = NextJobId++;
      J.EnqueueNs = nowNanos();
      J.DeadlineNs = SO.DeadlineMs ? J.EnqueueNs + SO.DeadlineMs * 1000000 : 0;
      Queue.push_back(std::move(J));
      if (Queue.size() > HighWater)
        HighWater = Queue.size();
    }
  }
  if (Rejected) {
    rejectJob(J);
    std::lock_guard<std::mutex> L(StatsMu);
    ++ByOutcome[static_cast<int>(JobOutcome::Rejected)];
    return F;
  }
  {
    std::lock_guard<std::mutex> L(StatsMu);
    ++JobsSubmitted;
  }
  NotEmpty.notify_one();
  return F;
}

void EnginePool::shutdown(bool Drain) {
  {
    std::lock_guard<std::mutex> L(QueueMu);
    if (!Stopping) {
      Stopping = true;
      DrainOnStop = Drain;
    }
  }
  // Wake the workers *and* any submitter blocked on backpressure: with
  // Stopping set, blocked submits resolve as rejections in both drain
  // modes instead of waiting for queue space that may never come.
  NotEmpty.notify_all();
  NotFull.notify_all();
  {
    // JoinMu serializes concurrent shutdown callers on the join itself:
    // the first performs it, later callers block here until the workers
    // are really gone, then see Joined and skip.
    std::lock_guard<std::mutex> L(JoinMu);
    if (!Joined) {
      for (std::thread &T : Threads)
        T.join();
      Joined = true;
    }
  }
  rejectQueuedJobs();
}

void EnginePool::interruptAll() {
  std::lock_guard<std::mutex> L(EnginesMu);
  for (SchemeEngine *E : Engines)
    if (E)
      E->requestInterrupt();
}

PoolStats EnginePool::stats() const { return telemetry().Stats; }

PoolTelemetry EnginePool::telemetry() const {
  PoolTelemetry T;
  PoolStats &PS = T.Stats;
  {
    std::lock_guard<std::mutex> L(StatsMu);
    PS.JobsSubmitted = JobsSubmitted;
    std::copy(std::begin(ByOutcome), std::end(ByOutcome), PS.ByOutcome);
  }
  {
    std::lock_guard<std::mutex> L(QueueMu);
    PS.QueueHighWater = HighWater;
    T.QueueDepth = Queue.size();
    T.LiveWorkers = LiveWorkers;
  }
  T.InFlight = InFlight.load(std::memory_order_relaxed);
  for (const std::unique_ptr<WorkerShard> &SP : Shards) {
    const WorkerShard &S = *SP;
    std::lock_guard<std::mutex> L(S.Mu);
    T.QueueWaitUs.merge(S.QueueWaitUs);
    T.RunUs.merge(S.RunUs);
    for (int I = 0; I < NumJobOutcomes; ++I)
      PS.ByOutcome[I] += S.ByOutcome[I];
    PS.WorkerRestarts += S.WorkerRestarts;
    PS.BreakerOpens += S.BreakerOpens;
    PS.RetriesAttempted += S.RetriesAttempted;
    T.TraceDropped += S.TraceDropped;
    T.ProfileSamples += S.ProfileSamples;
    T.ProfileDropped += S.ProfileDropped;
    accumulateStats(PS.Engines, S.Engines);
  }
  return T;
}

MetricsRegistry EnginePool::buildMetrics() const {
  PoolTelemetry T = telemetry();
  const PoolStats &S = T.Stats;
  MetricsRegistry R;

  R.gauge("cmarks_pool_workers", "Worker threads (= engines) in the pool", {},
          static_cast<double>(Threads.size()));
  R.gauge("cmarks_pool_live_workers",
          "Workers still serving (circuit breakers shut)", {},
          static_cast<double>(T.LiveWorkers));
  R.gauge("cmarks_pool_queue_depth", "Jobs waiting in the queue right now",
          {}, static_cast<double>(T.QueueDepth));
  R.gauge("cmarks_pool_queue_capacity", "Bounded job-queue capacity", {},
          static_cast<double>(Opts.QueueCapacity));
  R.gauge("cmarks_pool_queue_high_water", "Maximum queue depth observed", {},
          static_cast<double>(S.QueueHighWater));
  R.gauge("cmarks_pool_inflight_jobs", "Jobs evaluating right now", {},
          static_cast<double>(T.InFlight));

  auto Count = [&](JobOutcome O) { return S.ByOutcome[static_cast<int>(O)]; };
  R.counter("cmarks_pool_jobs_submitted_total",
            "Jobs accepted into the queue", {}, S.JobsSubmitted);
  R.counter("cmarks_pool_jobs_rejected_total",
            "Jobs rejected because the pool stopped", {},
            Count(JobOutcome::Rejected));

  // Rejected jobs have their own family above.
  for (int I = 0; I < NumJobOutcomes; ++I)
    if (static_cast<JobOutcome>(I) != JobOutcome::Rejected)
      R.counter("cmarks_pool_jobs_total", "Retired jobs by outcome",
                {{"outcome", jobOutcomeName(static_cast<JobOutcome>(I))}},
                S.ByOutcome[I]);

  R.counter("cmarks_pool_jobs_expired_total",
            "Jobs whose deadline passed while queued (never ran)", {},
            Count(JobOutcome::Expired));
  R.counter("cmarks_pool_jobs_shed_total",
            "Jobs refused by admission control at submit", {},
            Count(JobOutcome::Shed));
  R.counter("cmarks_pool_worker_restarts_total",
            "Worker engines rebuilt after fatal (beyond-reserve) failures",
            {}, S.WorkerRestarts);
  R.counter("cmarks_pool_breaker_opens_total",
            "Workers retired by their restart circuit breaker", {},
            S.BreakerOpens);
  R.counter("cmarks_pool_retries_total",
            "Re-runs of transiently-failed jobs (RetryPolicy)", {},
            S.RetriesAttempted);

  R.histogram("cmarks_pool_queue_wait_seconds",
              "Per-job submit-to-dequeue wait", {}, T.QueueWaitUs, 1e-6);
  R.histogram("cmarks_pool_job_run_seconds", "Per-job evaluation time", {},
              T.RunUs, 1e-6);

  R.counter("cmarks_pool_trace_dropped_events_total",
            "Trace-ring events lost to wraparound across workers", {},
            T.TraceDropped);
  R.counter("cmarks_pool_profile_samples_total",
            "Profile samples captured across workers", {}, T.ProfileSamples);
  R.counter("cmarks_pool_profile_dropped_samples_total",
            "Profile samples lost to ring wraparound across workers", {},
            T.ProfileDropped);

  int N = 0;
  const StatsCounterDesc *Table = statsCounters(N);
  for (int I = 0; I < N; ++I)
    R.counter("cmarks_engine_events_total",
              "Runtime event counters summed across worker engines",
              {{"event", Table[I].Name}}, S.Engines.*(Table[I].Field));
  return R;
}

std::string EnginePool::metricsText() const {
  return buildMetrics().prometheusText();
}

std::string EnginePool::metricsJson() const {
  return buildMetrics().json("pool");
}

std::string EnginePool::traceJson() const {
  // Each engine incarnation retired its ring into its shard under the
  // shard mutex; copy under the same mutex (the vector can grow while a
  // supervised restart retires another incarnation concurrently).
  std::deque<TraceBuffer> Copies;
  std::vector<const TraceBuffer *> Buffers;
  std::vector<std::string> Names;
  for (size_t I = 0; I < Shards.size(); ++I) {
    const WorkerShard &S = *Shards[I];
    std::lock_guard<std::mutex> L(S.Mu);
    for (size_t K = 0; K < S.TraceSnaps.size(); ++K) {
      char Name[40];
      if (K == 0)
        std::snprintf(Name, sizeof(Name), "worker-%zu", I);
      else
        std::snprintf(Name, sizeof(Name), "worker-%zu/r%zu", I, K);
      Names.push_back(Name);
      Copies.push_back(S.TraceSnaps[K]);
      Buffers.push_back(&Copies.back());
    }
  }
  return mergedTraceJson(Buffers, Names);
}

bool EnginePool::dumpTrace(const std::string &Path) const {
  return writeFile(Path, traceJson());
}

std::string EnginePool::profileCollapsed() const {
  std::map<std::string, uint64_t> Merged;
  for (const std::unique_ptr<WorkerShard> &SP : Shards) {
    const WorkerShard &S = *SP;
    std::lock_guard<std::mutex> L(S.Mu);
    for (const auto &KV : S.ProfileFold)
      Merged[KV.first] += KV.second;
  }
  return SamplingProfiler::collapsedText(Merged);
}

bool EnginePool::dumpProfile(const std::string &Path) const {
  return writeFile(Path, profileCollapsed());
}
