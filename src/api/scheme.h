//===- api/scheme.h - Embedding API ----------------------------*- C++ -*-===//
///
/// \file
/// SchemeEngine is the public entry point of cmarks: it owns a VM and a
/// Compiler, loads the prelude, and evaluates source text. The engine's
/// configuration selects the paper's system variants (see DESIGN.md):
/// builtin attachments (default), the figure 6 ablations, the old-Racket
/// mark-stack comparator, and the continuation strategy modes used by the
/// ctak comparison.
///
/// Typical use:
/// \code
///   cmk::SchemeEngine Engine;
///   cmk::Value V = Engine.eval("(with-continuation-mark 'k 1"
///                              "  (continuation-mark-set-first #f 'k))");
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_API_SCHEME_H
#define CMARKS_API_SCHEME_H

#include "compiler/compiler.h"
#include "vm/vm.h"

#include <memory>
#include <string>

namespace cmk {

/// Pre-baked configurations for the evaluation's system variants.
enum class EngineVariant {
  Builtin,      ///< Full compiler + runtime support (the paper's system).
  NoOpt,        ///< Figure 6 "no opt": no attachment recognition.
  NoPrim,       ///< Figure 6 "no prim": no primitive recognition.
  No1cc,        ///< Figure 6 "no 1cc": no opportunistic one-shots.
  Unmod,        ///< Section 8.2 "unmod": no attachment support at all and
                ///< unconstrained cp0 (the pre-modification compiler).
  Imitate,      ///< Figure 3/4: attachments via the call/cc imitation.
  MarkStack,    ///< Old-Racket comparator: eager mark stack.
  HeapFrames,   ///< Frame-per-segment (Pycket-like) strategy.
  CopyOnCapture ///< Gambit/CHICKEN-like call/cc strategy.
};

struct EngineOptions {
  VMConfig VmCfg;
  CompilerOptions CompilerOpts;
  bool LoadPrelude = true;

  static EngineOptions forVariant(EngineVariant V);
};

/// A finished pool job collected from the fiber scheduler (see
/// vm/fibers.h and takeFinishedFiberJobs()).
struct FiberJobInfo {
  uint64_t Id = 0;
  bool Ok = false;
  std::string Output; ///< Written result, or the error message when !Ok.
  ErrorKind Kind = ErrorKind::None; ///< Classification when !Ok.
  uint64_t RunNs = 0; ///< On-CPU nanoseconds; parked time is excluded.
  /// Faults injected while the job's fibers ran (support/faults.h).
  uint64_t FaultsInjected = 0;
};

class SchemeEngine {
public:
  explicit SchemeEngine(const EngineOptions &Opts = EngineOptions());
  explicit SchemeEngine(EngineVariant V)
      : SchemeEngine(EngineOptions::forVariant(V)) {}
  ~SchemeEngine();
  SchemeEngine(const SchemeEngine &) = delete;
  SchemeEngine &operator=(const SchemeEngine &) = delete;

  /// Reads, compiles, and runs every form in \p Source; returns the last
  /// form's value. On failure returns undefined and sets lastError().
  Value eval(const std::string &Source);

  /// eval + write: the result's external representation ("" on error).
  std::string evalToString(const std::string &Source);

  /// eval that aborts the process on failure; for benchmarks.
  Value evalOrDie(const std::string &Source);

  /// Applies a procedure value to arguments on a fresh VM stack.
  Value apply(Value Fn, const std::vector<Value> &Args);

  bool ok() const { return LastError.empty(); }
  const std::string &lastError() const { return LastError; }

  /// Classification of the last failure: was it an ordinary runtime error
  /// or a resource-limit trip (heap/stack/timeout/interrupt)? Reset to
  /// ErrorKind::None by the next successful eval()/apply().
  ErrorKind lastErrorKind() const { return LastErrKind; }

  /// True when the last failure escalated past a reserve (the one
  /// sanctioned C++ exception, ResourceExhausted) instead of being
  /// delivered as a catchable trip. The engine is still internally
  /// consistent, but a supervisor should treat it as wounded: the
  /// program burned through the recovery slab, so per-run governance
  /// can no longer vouch for it (EnginePool rebuilds such workers).
  bool lastErrorFatal() const { return LastErrFatal; }

  /// Resource budgets enforced by the VM (see support/limits.h). Mutable
  /// between evaluations: raising or clearing a limit takes effect at the
  /// next eval()/apply().
  EngineLimits &limits() { return Machine.config().Limits; }

  /// Asks the engine to stop at the next safe point. Safe to call from
  /// another thread or a signal handler; the running program sees a
  /// catchable exn:interrupt? exception.
  void requestInterrupt() { Machine.requestInterrupt(); }

  /// Deterministic fault-injection control (support/faults.h). The
  /// constructor arms the CMARKS_FAULT_SPEC schedule, if set; the API can
  /// replace or disarm it.
  FaultInjector &faults() { return Machine.faults(); }

  VM &vm() { return Machine; }
  Heap &heap() { return Machine.heap(); }
  Compiler &compiler() { return Comp; }

  /// Runtime event counters accumulated since construction (or the last
  /// resetStats()). See support/stats.h for the counter inventory; the
  /// same numbers are reachable from Scheme via (runtime-stats).
  const VMStats &stats() const { return Machine.stats(); }

  /// Zeroes the event counters; typically called after setup code so a
  /// measurement sees only the workload's events.
  void resetStats() { Machine.stats().reset(); }

  /// Structured event tracing (see support/trace.h): startTrace() clears
  /// the ring buffer and records until stopTrace(); dumpTrace() exports
  /// what the ring holds as Chrome trace-event JSON, loadable in
  /// ui.perfetto.dev. The same controls are reachable from Scheme via
  /// (runtime-trace-start!) / (runtime-trace-stop!) / (runtime-trace-dump).
  void startTrace(uint32_t Capacity = 0) { Machine.trace().start(Capacity); }
  void stopTrace() { Machine.trace().stop(); }
  std::string traceToJson() const { return Machine.trace().toJson(); }
  /// Writes the trace JSON to \p Path; false on an I/O failure.
  bool dumpTrace(const std::string &Path);
  const TraceBuffer &trace() const { return Machine.trace(); }

  /// Safe-point sampling profiler (see support/profiler.h): a sampler
  /// thread pokes the engine at \p Hz; the VM captures the current
  /// procedure plus its `#%trace-key` mark stack at the next safe point.
  /// Near-zero overhead (no extra safe-point polls; counters are
  /// unperturbed). The same controls are reachable from Scheme via
  /// (profiler-start!) / (profiler-stop!) / (profiler-dump).
  void startProfiler(uint32_t Hz = SamplingProfiler::DefaultHz,
                     uint32_t Capacity = 0) {
    Machine.profiler().start(Machine, Hz, Capacity);
  }
  void stopProfiler() { Machine.profiler().stop(); }
  /// Collapsed-stack ("folded") profile text, one `frames count` line per
  /// distinct stack — flamegraph.pl / speedscope compatible.
  std::string profileCollapsed() const {
    return Machine.profiler().toCollapsed();
  }
  /// Writes the collapsed profile to \p Path; false on an I/O failure.
  bool dumpProfile(const std::string &Path);
  SamplingProfiler &profiler() { return Machine.profiler(); }

  /// Engine-level metrics snapshot (counters from (runtime-stats), heap
  /// gauges, trace/profile meta-telemetry) as Prometheus text or a
  /// `cmarks-metrics-v1` JSON document. EnginePool exports the pool-wide
  /// superset of the same schema.
  std::string metricsText() const;
  std::string metricsJson() const;

  /// --- Pool jobs as fibers (vm/fibers.h, DESIGN.md section 16) ---------
  ///
  /// A pool worker runs every job as a fiber over its one engine:
  /// spawnFiberJob() admits a job, runFiberSlice() runs fibers until a job
  /// finishes (or, cooperatively, until everything is parked), and
  /// takeFinishedFiberJobs() collects results. Parked jobs burn no budget.

  /// Makes this a pool worker's engine: finished job fibers retire the
  /// slice to the host, and governance preserves pending interrupts
  /// across slice boundaries. \p Cooperative slices also retire when
  /// everything is parked instead of blocking in idleWait, so a parked job
  /// holds no worker thread.
  void enableFiberPool(bool Cooperative) {
    Machine.Fibers.PoolHost = true;
    Machine.Fibers.CoopPool = Cooperative;
  }

  /// Compiles \p Source and spawns it as a job fiber (thunk list run by
  /// the prelude's #%run-thunks) governed by \p L: TimeoutMs budgets its
  /// on-CPU time, the heap and segment budgets its own account. Returns
  /// the fiber id, or 0 on a compile/read error (reported via
  /// \p CompileErr). \p DelayNs > 0 schedules the first run after a
  /// backoff (retry support).
  uint64_t spawnFiberJob(const std::string &Source, const EngineLimits &L,
                         uint64_t JobId, uint64_t DeadlineNs, uint64_t DelayNs,
                         std::string *CompileErr);

  /// Runs one scheduler slice: fibers execute until a job retires or, on a
  /// cooperative engine, all are parked. Returns the slice status symbol
  /// ('idle when nothing was runnable, 'retire after a job finished); on
  /// an engine error returns undefined with ok() false.
  Value runFiberSlice();

  /// A hard (uncatchable) VM error failed the last slice while a fiber was
  /// switched in: records it as that fiber's failure, classified by
  /// lastErrorKind(). The scheduler and every other fiber stay intact.
  void failCurrentFiber();

  /// Collects jobs finished since the last call, releasing their accounts.
  std::vector<FiberJobInfo> takeFinishedFiberJobs();

  bool fiberHasRunnable() const { return Machine.Fibers.hasRunnable(); }
  /// Pool job id of the fiber switched in when the last slice failed (0
  /// for none).
  uint64_t currentJobId() const { return Machine.Fibers.currentJobId(); }
  /// Nanoseconds until the earliest parked deadline (0 when no timers).
  uint64_t fiberNextTimerDelayNs() const {
    return Machine.Fibers.nextTimerDelayNs();
  }
  /// Forces the earliest timed sleeper due now (interrupt wake-up path).
  void fiberWakeEarliest() { Machine.Fibers.kickEarliestTimer(); }
  /// True when a host interrupt is pending but not yet consumed; fiber
  /// workers use this to wake a parked fiber so the trip is delivered at
  /// its first safe point instead of waiting out the park.
  bool fiberInterruptPending() const {
    return (Machine.AsyncSignals.load(std::memory_order_relaxed) &
            VM::SigInterrupt) != 0;
  }

  /// Protects a value from collection for the engine's lifetime.
  void protect(Value V) { Machine.addPermanentRoot(V); }

private:
  /// Reads every form of \p Source into \p Forms. Returns "" or the
  /// error, prefixed "read error: ".
  std::string readForms(const std::string &Source, RootedValues &Forms);
  /// Compiles one toplevel form into a closure of no arguments. On failure
  /// returns undefined and sets \p Err, prefixed "compile error: ".
  Value compileForm(Value Form, std::string &Err);

  /// Records a failure for lastError() and its kind and fatality; returns
  /// undefined, the failed call's result.
  Value fail(const std::string &Msg, ErrorKind Kind, bool Fatal = false);
  /// fail() with the VM's error, which it then clears.
  Value failFromVM();
  /// fail() with a reserve escalation, which is always fatal.
  Value failExhausted(const ResourceExhausted &Ex);

  VM Machine;
  Compiler Comp;
  std::string LastError;
  ErrorKind LastErrKind = ErrorKind::None;
  bool LastErrFatal = false;
};

} // namespace cmk

#endif // CMARKS_API_SCHEME_H
