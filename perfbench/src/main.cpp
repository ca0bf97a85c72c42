//===- perfbench/src/main.cpp - cmscheme end-to-end benchmark --------------===//
///
/// \file
/// One binary, four workloads, two modes:
///
///   perfbench --workload <apps|continuations|serve|serve-fibers>
///             --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
///
/// --trace 0 measures the end-to-end metrics with nothing recorded but
/// per-operation latencies. --trace 1 is the separate traced run: it
/// drives every layer boundary from outside (reader, compiler, VM, pool
/// jobs) with in-memory spans, reads the counters the engine exports
/// (VMStats, HeapStats, EnginePool::telemetry()), and reports the
/// per-layer metrics plus the tracing overhead against an untraced pass.
///
/// The last stdout line is one JSON object: correct / attempted / failed /
/// metrics, plus the provenance block and extras that run.py files away.
///
//===----------------------------------------------------------------------===//

#include "programs.h"

#include "api/scheme.h"
#include "reader/reader.h"
#include "runtime/printer.h"
#include "support/pool.h"
#include "support/rng.h"
#include "support/timing.h"

#include <dirent.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace cmk;
using namespace perfbench;

namespace {

// --- Build gate -------------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool SanitizerBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||     \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool SanitizerBuild = true;
#else
constexpr bool SanitizerBuild = false;
#endif
#else
constexpr bool SanitizerBuild = false;
#endif

// support/trace.h and support/faults.h default both toggles to 0.
constexpr bool TraceBuild = CMARKS_TRACE != 0;
constexpr bool FaultBuild = CMARKS_FAULTS != 0;
#if defined(CMARKS_THREADED)
constexpr bool ThreadedBuild = true;
#else
constexpr bool ThreadedBuild = false;
#endif
#if defined(NDEBUG)
constexpr bool OptimizedBuild = true;
#else
constexpr bool OptimizedBuild = false;
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNum(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

std::string provenanceJson() {
  return std::string("{\"build_type\": ") + jsonStr(PERFBENCH_BUILD_TYPE) +
         ", \"cmarks_stats\": " + (statsDetailEnabled() ? "true" : "false") +
         ", \"cmarks_trace\": " + (TraceBuild ? "true" : "false") +
         ", \"cmarks_faults\": " + (FaultBuild ? "true" : "false") +
         ", \"cmarks_threaded\": " + (ThreadedBuild ? "true" : "false") +
         ", \"ndebug\": " + (OptimizedBuild ? "true" : "false") +
         ", \"sanitizer\": " + (SanitizerBuild ? "true" : "false") +
         ", \"compiler\": " + jsonStr(__VERSION__) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         "}";
}

// --- Measurement helpers ----------------------------------------------------------

/// Process start, as near as the program sees it: priority-101
/// constructors run before every C++ static initialiser of the executable,
/// the statically linked cmarks library's included.
uint64_t ProcessStartNs = 0;
__attribute__((constructor(101))) void noteProcessStart() {
  ProcessStartNs = nowNanos();
}

double cpuOf(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

/// Process CPU seconds (getrusage).
double cpuSeconds() { return cpuOf(RUSAGE_SELF); }

/// Process CPU seconds minus the calling thread's: the pool loops call
/// this from the load-generating thread, which is not the system under
/// test.
double serverCpuSeconds() { return cpuOf(RUSAGE_SELF) - cpuOf(RUSAGE_THREAD); }

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// Moves the benchmark's threads from core to core. On a shared host each
/// core slows down and recovers on its own (a busy neighbour on its
/// sibling hyperthread), for seconds at a time, so a thread that stays on
/// one core inherits that core's spell; threads that visit every allowed
/// core in turn, one core each, shifting every RotateNs, see their
/// average. Interleaved runs of apps on such a host spread 0.3
/// (IQR/median) without this and 0.09 with it, at the same median.
class CoreRotation {
public:
  /// Rotates the calling thread alone, or with \p AllThreads every thread
  /// of the process (the pool's workers and the load thread).
  explicit CoreRotation(bool AllThreads) : AllThreads(AllThreads) {
    sched_getaffinity(0, sizeof Allowed, &Allowed);
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Allowed))
        Cpus.push_back(C);
  }
  /// Threads created while a rotation runs would inherit one core, so
  /// every thread gets the whole allowed set back.
  ~CoreRotation() {
    for (pid_t Tid : threads())
      sched_setaffinity(Tid, sizeof Allowed, &Allowed);
  }

  /// Shifts every rotated thread to its next core once RotateNs have
  /// passed since the last shift.
  void tick() {
    uint64_t Now = nowNanos();
    if (Cpus.size() < 2 || Now - LastNs < RotateNs)
      return;
    LastNs = Now;
    ++Step;
    std::vector<pid_t> Tids = threads();
    for (size_t I = 0; I < Tids.size(); ++I) {
      cpu_set_t Set;
      CPU_ZERO(&Set);
      CPU_SET(Cpus[(I + Step) % Cpus.size()], &Set);
      sched_setaffinity(Tids[I], sizeof Set, &Set);
    }
  }

private:
  static constexpr uint64_t RotateNs = 50'000'000;

  std::vector<pid_t> threads() const {
    std::vector<pid_t> Tids;
    if (!AllThreads) {
      Tids.push_back(0); // The calling thread.
      return Tids;
    }
    if (DIR *D = opendir("/proc/self/task")) {
      while (dirent *E = readdir(D))
        if (pid_t Tid = static_cast<pid_t>(std::atoi(E->d_name)))
          Tids.push_back(Tid);
      closedir(D);
    }
    std::sort(Tids.begin(), Tids.end());
    return Tids;
  }

  bool AllThreads;
  cpu_set_t Allowed;
  std::vector<int> Cpus;
  size_t Step = 0;
  uint64_t LastNs = 0;
};

/// Linear-interpolated percentile of \p V (sorted in place).
double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - static_cast<double>(Lo));
}

double median(std::vector<double> V) { return percentile(V, 50); }

double ms(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

double seconds(uint64_t Ns) { return static_cast<double>(Ns) / 1e9; }

/// Every set-up a run performs (engine or pool builds). setup_s is the
/// time from process start to the first build plus the median build: each
/// build is a whole set-up, and the median keeps one slow build from
/// setting the figure. The single process-start-to-first-ready time is
/// reported beside it.
struct SetupClock {
  std::vector<double> BuildS;
  uint64_t FirstBeginNs = 0, FirstReadyNs = 0;

  void note(uint64_t Begin, uint64_t Ready) {
    if (BuildS.empty()) {
      FirstBeginNs = Begin;
      FirstReadyNs = Ready;
    }
    BuildS.push_back(seconds(Ready - Begin));
  }
  double setupS() const {
    return seconds(FirstBeginNs - ProcessStartNs) + median(BuildS);
  }
  double firstReadyS() const { return seconds(FirstReadyNs - ProcessStartNs); }
};

/// Correctness tally: every operation the run attempted, and every one
/// whose outcome differed from its expected one.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void note(bool Ok, const Op &O, const std::string &Got) {
    ++Attempted;
    if (Ok)
      return;
    if (++Failed <= 5)
      std::fprintf(stderr, "perfbench: %s returned %s, expected %s%s\n",
                   O.Class, Got.c_str(),
                   O.Healthy ? O.Expected.c_str()
                             : jobOutcomeName(O.Outcome),
                   O.Healthy ? "" : " outcome");
  }
};

// --- Spans --------------------------------------------------------------------------

enum class Layer : uint8_t { Op, Read, Compile, Run, Job };
const char *layerName(Layer L) {
  switch (L) {
  case Layer::Op:
    return "op";
  case Layer::Read:
    return "reader";
  case Layer::Compile:
    return "compiler";
  case Layer::Run:
    return "vm";
  case Layer::Job:
    return "pool-job";
  }
  return "?";
}

/// One layer-boundary span. Spans of one operation share OpIdx; Read,
/// Compile and Run are children of that operation's Op span.
struct Span {
  uint32_t OpIdx;
  Layer L;
  uint64_t Begin, End;
};

struct SpanLog {
  std::vector<Span> Spans;
  uint64_t Epoch = nowNanos();

  void add(uint32_t Op, Layer L, uint64_t B, uint64_t E) {
    Spans.push_back({Op, L, B, E});
  }
  /// Chrome trace-event JSON (loadable in ui.perfetto.dev).
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fputs("{\"traceEvents\": [\n", F);
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                   "%d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %u}}",
                   I ? ",\n" : "", layerName(S.L), S.L == Layer::Job ? 2 : 1,
                   static_cast<double>(S.Begin - Epoch) / 1e3,
                   static_cast<double>(S.End - S.Begin) / 1e3, S.OpIdx);
    }
    std::fputs("\n]}\n", F);
    return std::fclose(F) == 0;
  }
};

/// Self time per layer: a span's duration minus what its children cover.
/// Children (reader/compiler/vm) have none of their own.
std::map<Layer, uint64_t> selfTimes(const SpanLog &Log) {
  std::map<Layer, uint64_t> Self;
  for (const Span &S : Log.Spans)
    Self[S.L] += S.End - S.Begin;
  uint64_t Children =
      Self[Layer::Read] + Self[Layer::Compile] + Self[Layer::Run];
  if (Self.count(Layer::Op))
    Self[Layer::Op] -= std::min(Self[Layer::Op], Children);
  return Self;
}

// --- Engine-driven operations -------------------------------------------------------

/// Per-compile attachment categories and sizes, summed over a pass.
struct CompileCounts {
  uint64_t Forms = 0, SourceBytes = 0;
  uint64_t Tail = 0, NonTailCall = 0, NonTailNoCall = 0;
};

struct EvalResult {
  bool Ok = false;
  bool Fatal = false;
  ErrorKind Kind = ErrorKind::None;
  std::string Text; ///< Written value, or the error message.
};

/// The read -> compile -> apply sequence SchemeEngine::eval performs,
/// with one span around each call into a layer.
EvalResult evalTraced(SchemeEngine &E, const std::string &Src, uint32_t OpIdx,
                      SpanLog &Log, CompileCounts &CC) {
  EvalResult R;
  Heap &H = E.heap();
  uint64_t T0 = nowNanos();
  struct OpSpan {
    SpanLog &Log;
    uint32_t OpIdx;
    uint64_t T0;
    ~OpSpan() { Log.add(OpIdx, Layer::Op, T0, nowNanos()); }
  } Guard{Log, OpIdx, T0};
  try {
    RootedValues Forms(H);
    std::string Err;
    for (Value V : readAllFromString(H, Src, &Err))
      Forms.push(V);
    uint64_t T1 = nowNanos();
    Log.add(OpIdx, Layer::Read, T0, T1);
    CC.SourceBytes += Src.size();
    if (!Err.empty()) {
      R.Text = "read error: " + Err;
      return R;
    }
    GCRoot Result(H, Value::voidValue());
    for (size_t I = 0; I < Forms.size(); ++I) {
      uint64_t C0 = nowNanos();
      GCRoot Closure(H, E.compiler().compileToplevel(Forms[I], &Err));
      if (!Err.empty()) {
        R.Text = "compile error: " + Err;
        return R;
      }
      Closure.set(H.makeClosure(Closure.get(), 0));
      const AttachPassStats &AS = E.compiler().lastAttachStats();
      ++CC.Forms;
      CC.Tail += AS.TailOps;
      CC.NonTailCall += AS.NonTailWithCallOps;
      CC.NonTailNoCall += AS.NonTailNoCallOps;
      uint64_t C1 = nowNanos();
      Log.add(OpIdx, Layer::Compile, C0, C1);
      bool Ok = false;
      Value V = E.vm().applyProcedure(Closure.get(), nullptr, 0, Ok);
      Log.add(OpIdx, Layer::Run, C1, nowNanos());
      if (!Ok) {
        R.Text = E.vm().errorMessage();
        R.Kind = E.vm().errorKind();
        R.Fatal = E.vm().errorFatal();
        E.vm().clearError();
        return R;
      }
      Result.set(V);
    }
    R.Ok = true;
    R.Text = writeToString(Result.get());
  } catch (const ResourceExhausted &Ex) {
    R.Text = Ex.What;
    R.Kind = errorKindOf(Ex.Kind);
    R.Fatal = true;
    E.vm().clearError();
  }
  return R;
}

/// Whether an in-engine result matches what the op expects.
bool matches(const Op &O, const EvalResult &R) {
  if (O.Healthy)
    return R.Ok && R.Text == O.Expected;
  return !R.Ok && jobOutcomeOfErrorKind(R.Kind) == O.Outcome;
}

struct EngineWorkload {
  const char *Definitions;
  std::vector<Op> Variants;
  /// Rounds one engine session runs (about a second here). Every session
  /// starts on a freshly built engine: an engine's heap grows with the
  /// operations it has run, so one long session would drift.
  uint32_t SessionRounds;
};

/// Builds an engine, loads the workload's definitions, and warms it with
/// the smallest variant of each program.
std::unique_ptr<SchemeEngine> buildEngine(const EngineWorkload &W, Tally &T) {
  auto E = std::make_unique<SchemeEngine>(EngineVariant::Builtin);
  E->eval(W.Definitions);
  if (!E->ok()) {
    std::fprintf(stderr, "perfbench: definitions failed: %s\n",
                 E->lastError().c_str());
    std::exit(1);
  }
  for (size_t I = 0; I < W.Variants.size(); I += 3) {
    const Op &O = W.Variants[I];
    std::string Got = E->evalToString(O.Source);
    T.note(E->ok() && Got == O.Expected, O, E->ok() ? Got : E->lastError());
  }
  return E;
}

/// Sessions in each pool capacity and open-loop phase: each on a freshly
/// built pool, so engine heaps (which grow with the requests they serve)
/// stay the same size in every run.
constexpr int CapacitySessions = 3, OpenLoopSessions = 5;
/// Pool metrics are medians over short slices of every session (open-loop
/// time slices for latency, request-count slices for CPU per request,
/// capacity slices for throughput): a burst of host stalls moves a few
/// slices, not the result.
constexpr uint64_t SlicesPerSession = 8;
constexpr uint64_t CapacitySliceNs = 250'000'000;

/// An engine run: sessions until --seconds have passed (at least three),
/// each on a freshly built engine running the same fixed number of rounds.
/// Throughput, p50 and CPU per op are medians over the sessions, so a slow
/// spell of a shared host that covers less than half the run does not
/// move them.
struct SessionRun {
  SetupClock Setup;
  std::vector<double> LatMs; ///< Every operation, for the tail.
  std::vector<double> OpsPerS, P50Ms, CpuMsPerOp; ///< One per session.
  uint64_t Ops = 0;
};

SessionRun runSessions(const EngineWorkload &W, uint64_t Seed, double Seconds,
                       Tally &T) {
  SessionRun SR;
  CoreRotation Cores(false);
  RoundStream S(W.Variants, Seed);
  size_t Ops = W.Variants.size() * W.SessionRounds;
  uint64_t End = nowNanos() + static_cast<uint64_t>(Seconds * 1e9);
  while (SR.Setup.BuildS.size() < 3 || nowNanos() < End) {
    Cores.tick();
    uint64_t T0 = nowNanos();
    std::unique_ptr<SchemeEngine> E = buildEngine(W, T);
    uint64_t T1 = nowNanos();
    double Cpu0 = cpuSeconds();
    std::vector<double> Lat;
    for (size_t I = 0; I < Ops; ++I) {
      Cores.tick();
      const Op &O = S.next();
      uint64_t B = nowNanos();
      Value V = E->eval(O.Source);
      Lat.push_back(ms(nowNanos() - B));
      bool Ok = E->ok();
      std::string Got = Ok ? writeToString(V) : E->lastError();
      T.note(Ok && Got == O.Expected, O, Got);
    }
    double WallS = seconds(nowNanos() - T1), CpuS = cpuSeconds() - Cpu0;
    SR.OpsPerS.push_back(static_cast<double>(Ops) / WallS);
    SR.CpuMsPerOp.push_back(1e3 * CpuS / static_cast<double>(Ops));
    SR.LatMs.insert(SR.LatMs.end(), Lat.begin(), Lat.end());
    SR.P50Ms.push_back(percentile(Lat, 50));
    SR.Ops += Ops;
    SR.Setup.note(T0, T1);
  }
  return SR;
}

// --- Pool-driven requests ------------------------------------------------------------

struct PoolWorkload {
  bool Fibers;
  std::function<Op(Rng &, uint64_t)> Next;
  double OpenLoopRate;  ///< Requests per second, Poisson.
  double SloMs;         ///< Latency limit for slo_pct.
  unsigned Outstanding; ///< Requests kept in flight in the capacity phase.
  /// Capacity-phase requests per requested second. Both phases do fixed
  /// work, so memory figures do not scale with speed.
  double CapacityPerSecond;
};

/// Shares of --seconds given to the open-loop and capacity phases.
constexpr double OpenLoopShare = 0.55, CapacityShare = 0.35;

constexpr unsigned PoolWorkers = 3, MaxFibersPerWorker = 128;

PoolOptions poolOptions(const PoolWorkload &W) {
  PoolOptions PO;
  PO.Workers = PoolWorkers;
  PO.QueueCapacity = 1 << 16;
  PO.DefaultJobLimits.TimeoutMs = 1000;
  // Armed, but never opened by this mix: escalators are 3 in 3000
  // requests, far from 8 in a row on one worker.
  PO.BreakerThreshold = 8;
  PO.EnableFibers = W.Fibers;
  PO.MaxFibersPerWorker = MaxFibersPerWorker;
  return PO;
}

bool poolMatches(const Op &O, const JobResult &R) {
  return R.Outcome == O.Outcome && (!O.Healthy || R.Output == O.Expected);
}

std::string poolGot(const JobResult &R) {
  return R.Ok ? R.Output
              : std::string(jobOutcomeName(R.Outcome)) + ": " + R.Error;
}

/// Sleeps until \p UntilNs, at most 20 µs, while polling futures. The
/// timer slack set in main keeps a short nap close to what it asks for;
/// a completion is noticed at most one nap late, on every request alike.
void nap(uint64_t UntilNs) {
  uint64_t Now = nowNanos();
  uint64_t Ns = UntilNs > Now ? std::min<uint64_t>(UntilNs - Now, 20000) : 0;
  if (Ns)
    std::this_thread::sleep_for(std::chrono::nanoseconds(Ns));
}

bool ready(std::future<JobResult> &F) {
  return F.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Builds a pool and brings every worker engine up: a result from worker
/// i proves engine i is constructed (prelude loaded), so keep submitting
/// cheap healthy requests until each worker has answered, then run a
/// short seeded warm-up stream.
std::unique_ptr<EnginePool> buildPool(const PoolWorkload &W, uint64_t Seed,
                                      Tally &T) {
  auto P = std::make_unique<EnginePool>(poolOptions(W));
  std::vector<bool> Seen(PoolWorkers, false);
  size_t SeenCount = 0;
  Rng R(Seed ^ 0x5eed5eedULL);
  while (SeenCount < PoolWorkers) {
    std::future<JobResult> F = P->submit("(+ 1 2)");
    JobResult JR = F.get();
    Op O;
    O.Class = "warm-probe";
    O.Expected = "3";
    T.note(poolMatches(O, JR), O, poolGot(JR));
    if (JR.Worker < PoolWorkers && !Seen[JR.Worker]) {
      Seen[JR.Worker] = true;
      ++SeenCount;
    }
  }
  std::vector<std::pair<Op, std::future<JobResult>>> Warm;
  for (uint64_t I = 0; I < 10 * PoolWorkers; ++I) {
    Op O = W.Next(R, 0); // Index 0: never hostile, no backend waits.
    std::future<JobResult> F = P->submit(O.Source, SubmitOptions().limits(O.Limits));
    Warm.emplace_back(std::move(O), std::move(F));
  }
  for (auto &[O, F] : Warm) {
    JobResult JR = F.get();
    T.note(poolMatches(O, JR), O, poolGot(JR));
  }
  return P;
}

struct Inflight {
  Op O;
  uint64_t DueNs, SubmitNs;
  std::future<JobResult> F;
};

/// Closed-loop capacity session: keeps W.Outstanding requests in flight
/// so no worker is ever idle, for a fixed number of requests. Adds the
/// completion rate of each whole CapacitySliceNs slice of the time the
/// window was full to \p SliceOpsPerS.
void runCapacity(EnginePool &P, const PoolWorkload &W, Rng &R,
                 uint64_t &Index, double Seconds,
                 std::vector<double> &SliceOpsPerS, Tally &T) {
  uint64_t Total = static_cast<uint64_t>(W.CapacityPerSecond * Seconds);
  uint64_t Submitted = 0;
  std::vector<Inflight> Slots;
  auto Submit = [&] {
    ++Submitted;
    Op O = W.Next(R, Index++);
    std::future<JobResult> F =
        P.submit(O.Source, SubmitOptions().limits(O.Limits));
    return Inflight{std::move(O), 0, 0, std::move(F)};
  };
  for (unsigned I = 0; I < W.Outstanding; ++I)
    Slots.push_back(Submit());
  size_t Before = SliceOpsPerS.size();
  uint64_t SliceStart = nowNanos(), SliceDone = 0;
  CoreRotation Cores(true);
  while (Submitted < Total) {
    Cores.tick();
    bool Any = false;
    for (Inflight &S : Slots) {
      if (Submitted == Total || !ready(S.F))
        continue;
      JobResult JR = S.F.get();
      T.note(poolMatches(S.O, JR), S.O, poolGot(JR));
      ++SliceDone;
      S = Submit();
      Any = true;
    }
    uint64_t Now = nowNanos();
    if (Now - SliceStart >= CapacitySliceNs) {
      SliceOpsPerS.push_back(static_cast<double>(SliceDone) /
                             seconds(Now - SliceStart));
      SliceStart = Now;
      SliceDone = 0;
    }
    if (!Any)
      nap(Now + 20000);
  }
  if (SliceOpsPerS.size() == Before) // Too short for one whole slice.
    SliceOpsPerS.push_back(static_cast<double>(SliceDone) /
                           seconds(nowNanos() - SliceStart));
  for (Inflight &S : Slots) {
    JobResult JR = S.F.get();
    T.note(poolMatches(S.O, JR), S.O, poolGot(JR));
  }
}

struct OpenLoop {
  std::vector<double> HealthyLatMs; ///< Due time -> resolved, healthy only.
  std::vector<double> LateMs;       ///< Due time -> submitted.
  uint64_t Requests = 0, MetSlo = 0;
  double WallS = 0;
  /// Sum of every request's due -> resolved time; over WallS it is the
  /// mean number of requests in flight (Little's law).
  double LatSumS = 0;
  /// Healthy latency p50 and p90 of each of SlicesPerSession equal time
  /// slices (by resolve time); each slice holds hundreds of requests.
  std::vector<double> SliceP50s, SliceP90s;
  /// Server CPU (load thread excluded) per request over each run of
  /// N / SlicesPerSession resolved requests.
  std::vector<double> SliceCpuMsPerOp;
};

/// Open-loop phase at W.OpenLoopRate with seeded exponential gaps. Each
/// request is timed from when it was due, so a stall is charged to every
/// request it delays. With \p Log set, one Job span per request records
/// submit -> resolve.
OpenLoop runOpenLoop(EnginePool &P, const PoolWorkload &W, Rng &R,
                     uint64_t &Index, double Seconds, Tally &T,
                     SpanLog *Log, std::vector<Op> *Stream) {
  OpenLoop L;
  size_t N = static_cast<size_t>(W.OpenLoopRate * Seconds);
  std::vector<Op> Ops;
  std::vector<uint64_t> Due;
  double At = 0;
  for (size_t I = 0; I < N; ++I) {
    double U = (static_cast<double>(R.next() >> 11) + 1.0) / 9007199254740993.0;
    At += -std::log(U) / W.OpenLoopRate;
    Due.push_back(static_cast<uint64_t>(At * 1e9));
    Ops.push_back(W.Next(R, Index++));
  }
  // Sample buffers are sized and touched up front: a page fault in the
  // load thread can wait behind a worker's munmap and make it late.
  L.HealthyLatMs.assign(N, 0.0);
  L.LateMs.assign(N, 0.0);
  std::vector<uint64_t> DoneNs(N, 0);
  size_t Healthy = 0;
  std::vector<Inflight> Pending; ///< In submit order.
  Pending.reserve(1024);
  double SliceCpu0 = serverCpuSeconds();
  size_t CpuSlice = std::max<size_t>(N / SlicesPerSession, 1);
  uint64_t Start = nowNanos();
  size_t Next = 0;
  CoreRotation Cores(true);
  while (Next < N || !Pending.empty()) {
    Cores.tick();
    uint64_t Now = nowNanos();
    bool Any = false;
    while (Next < N && Start + Due[Next] <= Now) {
      uint64_t DueAbs = Start + Due[Next];
      L.LateMs[Next] = ms(Now - DueAbs);
      const Op &O = Ops[Next];
      std::future<JobResult> F =
          P.submit(O.Source, SubmitOptions().limits(O.Limits));
      Pending.push_back({O, DueAbs, nowNanos(), std::move(F)});
      ++Next;
      Any = true;
    }
    for (size_t I = 0; I < Pending.size();) {
      if (!ready(Pending[I].F)) {
        ++I;
        continue;
      }
      uint64_t Done = nowNanos();
      JobResult JR = Pending[I].F.get();
      const Op &O = Pending[I].O;
      bool Ok = poolMatches(O, JR);
      T.note(Ok, O, poolGot(JR));
      double Lat = ms(Done - Pending[I].DueNs);
      L.LatSumS += Lat / 1e3;
      if (O.Healthy) {
        DoneNs[Healthy] = Done;
        L.HealthyLatMs[Healthy++] = Lat;
      }
      if (Ok && Lat <= W.SloMs)
        ++L.MetSlo;
      if (++L.Requests % CpuSlice == 0) {
        double Cpu = serverCpuSeconds();
        L.SliceCpuMsPerOp.push_back(1e3 * (Cpu - SliceCpu0) /
                                    static_cast<double>(CpuSlice));
        SliceCpu0 = Cpu;
      }
      if (Log)
        Log->add(static_cast<uint32_t>(JR.Id), Layer::Job, Pending[I].SubmitNs,
                 Done);
      Pending.erase(Pending.begin() + static_cast<std::ptrdiff_t>(I));
      Any = true;
    }
    if (!Any)
      nap(Next < N ? Start + Due[Next] : Now + 20000);
  }
  L.HealthyLatMs.resize(Healthy);
  L.WallS = static_cast<double>(nowNanos() - Start) / 1e9;
  std::vector<std::vector<double>> Slices(SlicesPerSession);
  uint64_t Span = std::max<uint64_t>(nowNanos() - Start, 1);
  for (size_t I = 0; I < Healthy; ++I)
    Slices[std::min<uint64_t>((DoneNs[I] - Start) * SlicesPerSession / Span,
                              SlicesPerSession - 1)]
        .push_back(L.HealthyLatMs[I]);
  for (std::vector<double> &S : Slices) {
    L.SliceP50s.push_back(percentile(S, 50));
    L.SliceP90s.push_back(percentile(S, 90));
  }
  if (Stream)
    *Stream = std::move(Ops);
  return L;
}

// --- Metrics ------------------------------------------------------------------------

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Report {
  std::vector<Metric> Metrics;
  std::vector<Metric> Extras;
  std::string Counts; ///< Raw traced-pass counters (exact-repeat check).

  void add(const std::string &N, double V, const std::string &U) {
    Metrics.push_back({N, V, U});
  }
  void extra(const std::string &N, double V, const std::string &U) {
    Extras.push_back({N, V, U});
  }
};

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (size_t I = 0; I < Ms.size(); ++I)
    Out += std::string(I ? ", " : "") + jsonStr(Ms[I].Name) +
           ": {\"value\": " + jsonNum(Ms[I].Value) +
           ", \"unit\": " + jsonStr(Ms[I].Unit) + "}";
  return Out + "}";
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Inputs to the per-layer table, gathered differently per workload.
struct LayerInputs {
  uint64_t Ops = 0;
  std::map<Layer, uint64_t> Self; ///< Span self time per layer (ns).
  CompileCounts CC;
  VMStats Vm;        ///< Counter delta over the traced work.
  HeapStats HeapD;   ///< Heap counter delta (engine-side replay).
  uint64_t BytesInUsePeak = 0, PooledSegBytes = 0;
  bool HavePool = false;
  PoolTelemetry Pool; ///< Traced pool phase.
  uint64_t Restarts = 0, Retries = 0; ///< Pool, traced phase.
  double PoolWallS = 0, LatP50Ms = 0, GenLateP99Ms = 0;
  double FailPct = 0, SloPct = 0, OverheadPct = 0;
};

std::string countsJson(const LayerInputs &In, bool WithHeap) {
  const VMStats &S = In.Vm;
  const CompileCounts &CC = In.CC;
  std::string Out = "{\"ops\": " + std::to_string(In.Ops);
  int N = 0;
  const StatsCounterDesc *Table = statsCounters(N);
  for (int I = 0; I < N; ++I)
    Out += ", " + jsonStr(Table[I].Name) + ": " +
           std::to_string(S.*(Table[I].Field));
  if (WithHeap)
    Out += ", \"heap-collections\": " + std::to_string(In.HeapD.Collections) +
           ", \"heap-bytes-allocated\": " +
           std::to_string(In.HeapD.BytesAllocated) +
           ", \"heap-oneshot-promotions\": " +
           std::to_string(In.HeapD.OneShotPromotions) +
           ", \"heap-bytes-in-use-peak\": " + std::to_string(In.BytesInUsePeak) +
           ", \"heap-pooled-segment-bytes\": " +
           std::to_string(In.PooledSegBytes);
  Out += ", \"compile-forms\": " + std::to_string(CC.Forms) +
         ", \"compile-attach-tail\": " + std::to_string(CC.Tail) +
         ", \"compile-attach-nontail-call\": " + std::to_string(CC.NonTailCall) +
         ", \"compile-attach-nontail-nocall\": " +
         std::to_string(CC.NonTailNoCall) + "}";
  return Out;
}

void addLayerMetrics(Report &Rep, const LayerInputs &In) {
  double Ops = static_cast<double>(std::max<uint64_t>(In.Ops, 1));
  auto PerOp = [&](uint64_t V) { return static_cast<double>(V) / Ops; };
  const VMStats &S = In.Vm;
  uint64_t Read = In.Self.count(Layer::Read) ? In.Self.at(Layer::Read) : 0;
  uint64_t Comp = In.Self.count(Layer::Compile) ? In.Self.at(Layer::Compile) : 0;
  uint64_t Run = In.Self.count(Layer::Run) ? In.Self.at(Layer::Run) : 0;
  uint64_t Glue = In.Self.count(Layer::Op) ? In.Self.at(Layer::Op) : 0;

  Rep.add("trace.ops", static_cast<double>(In.Ops), "count");
  Rep.add("trace.overhead_pct", In.OverheadPct, "%");
  Rep.add("trace.read_compile_pct",
          100.0 * ratio(static_cast<double>(Read + Comp),
                        static_cast<double>(Read + Comp + Run + Glue)),
          "%");
  Rep.add("run.fail_pct", In.FailPct, "%");
  Rep.add("run.slo_pct", In.SloPct, "%");

  Rep.add("reader.ns_per_op", PerOp(Read), "ns");
  Rep.add("reader.bytes_per_op", PerOp(In.CC.SourceBytes), "bytes");
  Rep.add("compiler.ns_per_op", PerOp(Comp), "ns");
  Rep.add("compiler.forms_per_op", PerOp(In.CC.Forms), "count/op");
  Rep.add("compiler.attach_tail_ops", PerOp(In.CC.Tail), "count/op");
  Rep.add("compiler.attach_nontail_call_ops", PerOp(In.CC.NonTailCall),
          "count/op");
  Rep.add("compiler.attach_nontail_nocall_ops", PerOp(In.CC.NonTailNoCall),
          "count/op");
  Rep.add("vm.run_ns_per_op", PerOp(Run), "ns");
  Rep.add("vm.safe_point_polls", PerOp(S.SafePointPolls), "count/op");

  uint64_t Underflows = S.UnderflowFusions + S.UnderflowCopies;
  uint64_t SegRequests = S.SegmentAllocs + S.SegmentRecycles;
  Rep.add("stacks.reifications", PerOp(S.Reifications), "count/op");
  Rep.add("stacks.reify_for_attach_call", PerOp(S.ReifyForAttachCall), "count/op");
  Rep.add("stacks.reify_for_capture", PerOp(S.ReifyForCapture), "count/op");
  Rep.add("stacks.reify_tail_frame", PerOp(S.ReifyTailFrame), "count/op");
  Rep.add("stacks.underflow_fusions", PerOp(S.UnderflowFusions), "count/op");
  Rep.add("stacks.underflow_copies", PerOp(S.UnderflowCopies), "count/op");
  Rep.add("stacks.fuse_ratio",
          ratio(static_cast<double>(S.UnderflowFusions), static_cast<double>(Underflows)),
          "ratio");
  Rep.add("stacks.oneshot_promotions", PerOp(S.OneShotPromotions), "count/op");
  Rep.add("stacks.segment_allocs", PerOp(S.SegmentAllocs), "count/op");
  Rep.add("stacks.segment_recycles", PerOp(S.SegmentRecycles), "count/op");
  Rep.add("stacks.recycle_ratio",
          ratio(static_cast<double>(S.SegmentRecycles), static_cast<double>(SegRequests)),
          "ratio");
  Rep.add("stacks.segment_slots_allocated", PerOp(S.SegmentSlotsAllocated),
          "count/op");
  Rep.add("stacks.segment_overflows", PerOp(S.SegmentOverflows), "count/op");

  Rep.add("control.captures", PerOp(S.ContinuationCaptures), "count/op");
  Rep.add("control.applies", PerOp(S.ContinuationApplies), "count/op");
  Rep.add("control.pass_through_records", PerOp(S.PassThroughRecords), "count/op");
  Rep.add("fibers.spawns", PerOp(S.FiberSpawns), "count/op");
  Rep.add("fibers.parks", PerOp(S.FiberParks), "count/op");

  Rep.add("marks.frame_creates", PerOp(S.MarkFrameCreates), "count/op");
  Rep.add("marks.frame_extends", PerOp(S.MarkFrameExtends), "count/op");
  Rep.add("marks.frame_rebinds", PerOp(S.MarkFrameRebinds), "count/op");
  Rep.add("marks.first_lookups", PerOp(S.MarkFirstLookups), "count/op");
  Rep.add("marks.cache_hit_ratio",
          ratio(static_cast<double>(S.MarkFirstCacheHits),
                static_cast<double>(S.MarkFirstLookups)),
          "ratio");
  Rep.add("marks.cells_walked_per_lookup",
          ratio(static_cast<double>(S.MarkFirstCellsWalked),
                static_cast<double>(S.MarkFirstLookups)),
          "count");
  Rep.add("marks.set_captures", PerOp(S.MarkSetCaptures), "count/op");

  uint64_t NurseryBlocks = S.NurseryResets + S.NurseryPromotions;
  Rep.add("heap.collections", PerOp(In.HeapD.Collections), "count/op");
  Rep.add("heap.bytes_allocated_per_op", PerOp(In.HeapD.BytesAllocated), "bytes");
  Rep.add("heap.bytes_in_use_peak", static_cast<double>(In.BytesInUsePeak), "bytes");
  Rep.add("heap.nursery_allocs", PerOp(S.NurseryAllocs), "count/op");
  Rep.add("heap.nursery_blocks_swept", PerOp(NurseryBlocks), "count/op");
  Rep.add("heap.nursery_reset_ratio",
          ratio(static_cast<double>(S.NurseryResets), static_cast<double>(NurseryBlocks)),
          "ratio");
  Rep.add("heap.pooled_segment_bytes", static_cast<double>(In.PooledSegBytes),
          "bytes");

  Rep.add("limits.heap_trips", PerOp(S.LimitHeapTrips), "count/op");
  Rep.add("limits.timeout_trips", PerOp(S.LimitTimeoutTrips), "count/op");

  const PoolTelemetry &P = In.Pool;
  double QW50 = In.HavePool ? P.QueueWaitUs.percentile(50) / 1e3 : 0;
  double Run50 = In.HavePool ? P.RunUs.percentile(50) / 1e3 : 0;
  Rep.add("pool.queue_wait_p50_ms", QW50, "ms");
  Rep.add("pool.queue_wait_p99_ms",
          In.HavePool ? P.QueueWaitUs.percentile(99) / 1e3 : 0, "ms");
  Rep.add("pool.run_p50_ms", Run50, "ms");
  Rep.add("pool.run_p99_ms", In.HavePool ? P.RunUs.percentile(99) / 1e3 : 0,
          "ms");
  Rep.add("pool.busy_pct",
          In.HavePool ? 100.0 * ratio(static_cast<double>(P.RunUs.sum()) / 1e6,
                                      PoolWorkers * In.PoolWallS)
                      : 0,
          "%");
  Rep.add("pool.park_p50_ms",
          In.HavePool ? std::max(0.0, In.LatP50Ms - QW50 - Run50) : 0, "ms");
  Rep.add("pool.worker_restarts",
          PerOp(In.Restarts),
          "count/op");
  Rep.add("pool.retries",
          PerOp(In.Retries),
          "count/op");
  Rep.add("pool.queue_high_water",
          In.HavePool ? static_cast<double>(P.Stats.QueueHighWater) : 0, "count");
  Rep.add("pool.generator_late_ms", In.HavePool ? In.GenLateP99Ms : 0, "ms");
}

void printLayerTable(const char *Workload, const LayerInputs &In) {
  uint64_t Total = 0;
  for (const auto &KV : In.Self)
    if (KV.first != Layer::Job)
      Total += KV.second;
  std::printf("layer self time, %s, %llu traced ops:\n", Workload,
              static_cast<unsigned long long>(In.Ops));
  for (const auto &KV : In.Self) {
    double PerOp = static_cast<double>(KV.second) /
                   static_cast<double>(std::max<uint64_t>(In.Ops, 1));
    if (KV.first == Layer::Job)
      std::printf("  %-9s %12.0f ns/op  (submit -> resolve, pool phase)\n",
                  layerName(KV.first), PerOp);
    else
      std::printf("  %-9s %12.0f ns/op  %6.2f%%\n", layerName(KV.first), PerOp,
                  100.0 * ratio(static_cast<double>(KV.second),
                                static_cast<double>(Total)));
  }
  std::printf("  tracing overhead: %+.2f%% of untraced op time\n",
              In.OverheadPct);
}

// --- Workloads ----------------------------------------------------------------------

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string SpansOut;
};

EngineWorkload engineWorkload(const std::string &Name) {
  if (Name == "apps")
    return {appsDefinitions(), appsVariants(), 18};
  return {continuationsDefinitions(), continuationsVariants(), 15};
}

PoolWorkload poolWorkload(const std::string &Name) {
  // Open-loop rates are fixed, not derived from the capacity a run
  // measures, so a faster build sees the same offered load. serve's rate
  // keeps the blocking workers lightly loaded (about 15% of capacity here),
  // so p50 reads service time, not queueing. serve-fibers' requests mostly
  // wait on their sleeps: at its rate about 42 are in flight on 3 workers.
  // Its capacity window fills every fiber slot twice over.
  if (Name == "serve")
    return {false, nextServeOp, 2500, 10, 4 * PoolWorkers, 17000};
  return {true,
          [](Rng &R, uint64_t I) { return nextServeFibersOp(R, I == 0); },
          4000, 40, 2 * MaxFibersPerWorker * PoolWorkers, 9000};
}

void runEngine(const Args &A, Report &Rep, Tally &T, SpanLog &Log) {
  EngineWorkload W = engineWorkload(A.Workload);
  if (!A.Trace) {
    SessionRun SR = runSessions(W, A.Seed, A.Seconds, T);
    double Ops = static_cast<double>(SR.Ops);
    Rep.add("setup_s", SR.Setup.setupS(), "s");
    Rep.add("throughput_ops_s", median(SR.OpsPerS), "ops/s");
    Rep.add("latency_p50_ms", median(SR.P50Ms), "ms");
    Rep.add("cpu_ms_per_op", median(SR.CpuMsPerOp), "ms");
    Rep.add("peak_rss_mb", peakRssMb(), "MB");
    Rep.extra("latency_p90_ms", percentile(SR.LatMs, 90), "ms");
    Rep.extra("latency_p99_ms", percentile(SR.LatMs, 99), "ms");
    Rep.extra("setup_first_ready_s", SR.Setup.firstReadyS(), "s");
    Rep.extra("sessions", static_cast<double>(SR.Setup.BuildS.size()), "count");
    Rep.extra("latency_samples", Ops, "count");
    return;
  }

  // The traced pass runs between two untraced passes over the same op
  // prefix; every pass starts from a freshly built engine, so the traced
  // counters repeat exactly and the overhead compares like with like.
  uint32_t TracedOps = static_cast<uint32_t>(W.Variants.size() * W.SessionRounds);
  CoreRotation Cores(false);
  auto UntracedPass = [&] {
    std::unique_ptr<SchemeEngine> U = buildEngine(W, T);
    RoundStream S(W.Variants, A.Seed);
    uint64_t T0 = nowNanos();
    for (uint32_t I = 0; I < TracedOps; ++I) {
      Cores.tick();
      const Op &O = S.next();
      std::string Got = U->evalToString(O.Source);
      T.note(U->ok() && Got == O.Expected, O, U->ok() ? Got : U->lastError());
    }
    return static_cast<double>(nowNanos() - T0);
  };
  double UntracedNs = UntracedPass();
  std::unique_ptr<SchemeEngine> E = buildEngine(W, T);
  LayerInputs In;
  VMStats Vm0 = E->stats();
  HeapStats H0 = E->heap().stats();
  RoundStream S(W.Variants, A.Seed);
  uint64_t T0 = nowNanos();
  for (uint32_t I = 0; I < TracedOps; ++I) {
    Cores.tick();
    const Op &O = S.next();
    EvalResult ER = evalTraced(*E, O.Source, I, Log, In.CC);
    T.note(matches(O, ER), O, ER.Text);
    In.BytesInUsePeak = std::max(In.BytesInUsePeak, E->heap().bytesInUse());
  }
  double TracedNs = static_cast<double>(nowNanos() - T0);
  In.Ops = TracedOps;
  In.Vm = E->stats().delta(Vm0);
  const HeapStats &H1 = E->heap().stats();
  In.HeapD.Collections = H1.Collections - H0.Collections;
  In.HeapD.BytesAllocated = H1.BytesAllocated - H0.BytesAllocated;
  In.HeapD.OneShotPromotions = H1.OneShotPromotions - H0.OneShotPromotions;
  In.PooledSegBytes = E->heap().pooledSegmentBytes();
  E.reset();
  UntracedNs = (UntracedNs + UntracedPass()) / 2;
  In.Self = selfTimes(Log);
  In.OverheadPct = 100.0 * (TracedNs - UntracedNs) / UntracedNs;
  In.FailPct = 100.0 * ratio(static_cast<double>(T.Failed),
                             static_cast<double>(T.Attempted));
  printLayerTable(A.Workload.c_str(), In);
  addLayerMetrics(Rep, In);
  Rep.Counts = countsJson(In, true);
}

void runPool(const Args &A, Report &Rep, Tally &T, SpanLog &Log) {
  PoolWorkload W = poolWorkload(A.Workload);
  SetupClock Setup;
  auto Build = [&](uint64_t Salt) {
    uint64_t T0 = nowNanos();
    std::unique_ptr<EnginePool> P = buildPool(W, A.Seed + Salt, T);
    Setup.note(T0, nowNanos());
    return P;
  };
  Rng R(A.Seed);
  uint64_t Index = 1;

  constexpr int SetupRepeats = 9;
  std::unique_ptr<EnginePool> P;
  for (int I = 0; I < SetupRepeats; ++I) {
    P.reset();
    P = Build(static_cast<uint64_t>(I));
  }

  if (!A.Trace) {
    // Capacity first: besides the throughput figure it brings the process
    // to a steady state (allocator arenas, thread stacks) before latency
    // is measured.
    double SessionS = 0, ServerCpuS = 0;
    std::vector<double> SliceOpsPerS;
    for (int K = 0; K < CapacitySessions; ++K) {
      if (K) {
        P.reset();
        P = Build(SetupRepeats + static_cast<uint64_t>(K));
      }
      // Server CPU over the whole session, drain included, against the
      // workers' wall time shows whether the window kept every worker
      // busy (job run time alone would miss fiber scheduling).
      double Cpu0 = serverCpuSeconds();
      uint64_t T0 = nowNanos();
      runCapacity(*P, W, R, Index, CapacityShare * A.Seconds / CapacitySessions,
                  SliceOpsPerS, T);
      SessionS += seconds(nowNanos() - T0);
      ServerCpuS += serverCpuSeconds() - Cpu0;
    }
    OpenLoop L; // All open-loop sessions together.
    for (int K = 0; K < OpenLoopSessions; ++K) {
      P.reset();
      P = Build(SetupRepeats + CapacitySessions + static_cast<uint64_t>(K));
      OpenLoop S = runOpenLoop(*P, W, R, Index,
                               OpenLoopShare * A.Seconds / OpenLoopSessions, T,
                               nullptr, nullptr);
      L.HealthyLatMs.insert(L.HealthyLatMs.end(), S.HealthyLatMs.begin(),
                            S.HealthyLatMs.end());
      L.LateMs.insert(L.LateMs.end(), S.LateMs.begin(), S.LateMs.end());
      L.SliceP50s.insert(L.SliceP50s.end(), S.SliceP50s.begin(),
                         S.SliceP50s.end());
      L.SliceP90s.insert(L.SliceP90s.end(), S.SliceP90s.begin(),
                         S.SliceP90s.end());
      L.SliceCpuMsPerOp.insert(L.SliceCpuMsPerOp.end(),
                               S.SliceCpuMsPerOp.begin(),
                               S.SliceCpuMsPerOp.end());
      L.Requests += S.Requests;
      L.MetSlo += S.MetSlo;
      L.WallS += S.WallS;
      L.LatSumS += S.LatSumS;
    }
    double Capacity = median(SliceOpsPerS);
    double Inflight = ratio(L.LatSumS, L.WallS);
    Rep.add("setup_s", Setup.setupS(), "s");
    Rep.add("throughput_ops_s", Capacity, "ops/s");
    Rep.add("latency_p50_ms", median(L.SliceP50s), "ms");
    Rep.add("cpu_ms_per_op", median(L.SliceCpuMsPerOp), "ms");
    Rep.add("peak_rss_mb", peakRssMb(), "MB");
    Rep.extra("latency_p90_ms", median(L.SliceP90s), "ms");
    Rep.extra("latency_p99_ms", percentile(L.HealthyLatMs, 99), "ms");
    Rep.extra("slo_pct",
              100.0 * ratio(static_cast<double>(L.MetSlo),
                            static_cast<double>(L.Requests)),
              "%");
    Rep.extra("slo_limit_ms", W.SloMs, "ms");
    Rep.extra("open_loop_rate", W.OpenLoopRate, "1/s");
    Rep.extra("offered_load_pct", 100.0 * ratio(W.OpenLoopRate, Capacity), "%");
    Rep.extra("inflight_mean", Inflight, "count");
    Rep.extra("inflight_per_worker", Inflight / PoolWorkers, "count");
    Rep.extra("capacity_cpu_pct",
              100.0 * ratio(ServerCpuS, PoolWorkers * SessionS), "%");
    Rep.extra("setup_first_ready_s", Setup.firstReadyS(), "s");
    Rep.extra("capacity_slices", static_cast<double>(SliceOpsPerS.size()),
              "count");
    Rep.extra("latency_samples", static_cast<double>(L.HealthyLatMs.size()),
              "count");
    Rep.extra("generator_late_p99_ms", percentile(L.LateMs, 99), "ms");
    return;
  }

  // Untraced, traced, untraced open-loop phases on one warm pool. The
  // pool's histograms cover all three (same rate, same traffic shape);
  // the VM counters and the spans cover the traced phase alone.
  double Phase = 0.25 * A.Seconds;
  OpenLoop Before = runOpenLoop(*P, W, R, Index, Phase, T, nullptr, nullptr);
  LayerInputs In;
  In.HavePool = true;
  PoolStats BeforeTraced = P->stats();
  std::vector<Op> Stream;
  Tally Traced;
  OpenLoop L = runOpenLoop(*P, W, R, Index, Phase, Traced, &Log, &Stream);
  T.Attempted += Traced.Attempted;
  T.Failed += Traced.Failed;
  PoolStats AfterTraced = P->stats();
  OpenLoop After = runOpenLoop(*P, W, R, Index, Phase, T, nullptr, nullptr);
  In.Pool = P->telemetry();
  In.PoolWallS = Before.WallS + L.WallS + After.WallS;
  In.Vm = AfterTraced.Engines.delta(BeforeTraced.Engines);
  In.Restarts = AfterTraced.WorkerRestarts - BeforeTraced.WorkerRestarts;
  In.Retries = AfterTraced.RetriesAttempted - BeforeTraced.RetriesAttempted;
  In.Ops = L.Requests;
  In.LatP50Ms = percentile(L.HealthyLatMs, 50);
  In.GenLateP99Ms = percentile(L.LateMs, 99);
  double UntracedP50 = (percentile(Before.HealthyLatMs, 50) +
                        percentile(After.HealthyLatMs, 50)) /
                       2;
  In.OverheadPct = 100.0 * (In.LatP50Ms - UntracedP50) / UntracedP50;
  In.FailPct = 100.0 * ratio(static_cast<double>(Traced.Failed),
                             static_cast<double>(Traced.Attempted));
  In.SloPct = 100.0 * ratio(static_cast<double>(L.MetSlo),
                            static_cast<double>(L.Requests));
  P.reset();

  // Replay a prefix of the same request stream through one engine with
  // read / compile / run spans, so service time splits by layer. Heap
  // counters come from here; the VM counters above come from the pool.
  size_t Replay = std::min<size_t>(Stream.size(), W.Fibers ? 300 : 1500);
  SpanLog ReplayLog;
  auto E = std::make_unique<SchemeEngine>(EngineVariant::Builtin);
  HeapStats H0 = E->heap().stats();
  HeapStats Acc;
  for (size_t I = 0; I < Replay; ++I) {
    const Op &O = Stream[I];
    E->limits() = O.Limits;
    EvalResult ER = evalTraced(*E, O.Source, static_cast<uint32_t>(I),
                               ReplayLog, In.CC);
    T.note(matches(O, ER), O, ER.Text);
    In.BytesInUsePeak = std::max(In.BytesInUsePeak, E->heap().bytesInUse());
    if (ER.Fatal) {
      // Supervise like the pool: a wounded engine is rebuilt.
      const HeapStats &H1 = E->heap().stats();
      Acc.Collections += H1.Collections - H0.Collections;
      Acc.BytesAllocated += H1.BytesAllocated - H0.BytesAllocated;
      E = std::make_unique<SchemeEngine>(EngineVariant::Builtin);
      H0 = E->heap().stats();
    }
  }
  const HeapStats &H1 = E->heap().stats();
  Acc.Collections += H1.Collections - H0.Collections;
  Acc.BytesAllocated += H1.BytesAllocated - H0.BytesAllocated;
  // Replay counts are per replayed request; rescale to the pool's count.
  double Scale = ratio(static_cast<double>(In.Ops), static_cast<double>(Replay));
  auto Scaled = [Scale](uint64_t V) {
    return static_cast<uint64_t>(std::llround(static_cast<double>(V) * Scale));
  };
  In.HeapD.Collections = Scaled(Acc.Collections);
  In.HeapD.BytesAllocated = Scaled(Acc.BytesAllocated);
  In.PooledSegBytes = E->heap().pooledSegmentBytes();
  for (auto &KV : selfTimes(ReplayLog))
    In.Self[KV.first] = Scaled(KV.second);
  for (uint64_t *C : {&In.CC.Forms, &In.CC.SourceBytes, &In.CC.Tail,
                      &In.CC.NonTailCall, &In.CC.NonTailNoCall})
    *C = Scaled(*C);
  In.Self[Layer::Job] = 0;
  for (const Span &S : Log.Spans)
    In.Self[Layer::Job] += S.End - S.Begin;
  for (const Span &S : ReplayLog.Spans)
    Log.Spans.push_back(S);
  printLayerTable(A.Workload.c_str(), In);
  std::printf("  replayed %zu of %llu requests through one engine for the "
              "reader/compiler/vm split\n",
              Replay, static_cast<unsigned long long>(In.Ops));
  addLayerMetrics(Rep, In);
  Rep.Counts = countsJson(In, false);
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--spans-out")
      A.SpansOut = V;
    else
      return false;
  }
  return (Argc % 2 == 1) && A.Seconds > 0 &&
         (A.Workload == "apps" || A.Workload == "continuations" ||
          A.Workload == "serve" || A.Workload == "serve-fibers");
}

/// Reference self-check: the closed forms must reproduce known answers.
bool referencesHold() {
  return takRef(18, 12, 6) == 7 && queensRef(7) == 40 && queensRef(8) == 92 &&
         tripleRef(200) == 3434;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr, "usage: perfbench --workload <apps|continuations|"
                         "serve|serve-fibers> --seed <n> --seconds <s> "
                         "--trace <0|1> [--spans-out <file>]\n");
    return 2;
  }
  if (TraceBuild || FaultBuild || SanitizerBuild || !OptimizedBuild ||
      !ThreadedBuild || !statsDetailEnabled()) {
    std::fprintf(stderr, "perfbench: refusing to measure anything but the "
                         "production build (optimized, threaded dispatch, "
                         "stats on; no trace, faults or sanitizers): %s\n",
                 provenanceJson().c_str());
    return 2;
  }
  if (!referencesHold()) {
    std::fprintf(stderr, "perfbench: reference closed forms are wrong\n");
    return 1;
  }

  // Naps in the pool loops should last about what they ask for.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  Report Rep;
  Tally T;
  SpanLog Log;
  if (A.Workload == "apps" || A.Workload == "continuations")
    runEngine(A, Rep, T, Log);
  else
    runPool(A, Rep, T, Log);

  if (A.Trace && !A.SpansOut.empty() && !Log.write(A.SpansOut)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", A.SpansOut.c_str());
    return 1;
  }
  Rep.extra("fail_pct",
            100.0 * ratio(static_cast<double>(T.Failed),
                          static_cast<double>(T.Attempted)),
            "%");
  for (const Metric &M : Rep.Metrics)
    std::printf("  %-36s %14.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  for (const Metric &M : Rep.Extras)
    std::printf("  (extra) %-28s %14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s, \"extras\": %s, \"counts\": %s, "
              "\"provenance\": %s}\n",
              T.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed),
              metricsJson(Rep.Metrics).c_str(), metricsJson(Rep.Extras).c_str(),
              Rep.Counts.empty() ? "null" : Rep.Counts.c_str(),
              provenanceJson().c_str());
  return 0;
}
