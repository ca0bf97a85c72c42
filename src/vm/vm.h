//===- vm/vm.h - The bytecode VM with stack-based continuations -*- C++ -*-===//
///
/// \file
/// The cmarks virtual machine. Continuations use Chez Scheme's strategy
/// (paper section 5): frames live in heap-allocated stack segments; the
/// first frame of every stack returns to the underflow handler; capturing a
/// continuation splits the stack by installing an underflow record; applying
/// a continuation copies frames back (copy-on-application). Continuation
/// attachments (sections 6/7) add one marks register and a marks field per
/// underflow record; reification-for-marks creates opportunistic one-shot
/// records that the underflow handler can fuse back without copying.
///
/// Frame layout within a segment (indices relative to the frame pointer):
///   fp+0  saved fp (fixnum; dead in the bottom frame of a stack)
///   fp+1  return code (CodeObj value, or the underflow sentinel)
///   fp+2  return pc (fixnum)
///   fp+3  closure being run
///   fp+4+ arguments, then let-bound locals, then expression temporaries
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_VM_VM_H
#define CMARKS_VM_VM_H

#include "compiler/compiler.h"
#include "runtime/heap.h"
#include "runtime/symbols.h"
#include "runtime/value.h"
#include "support/faults.h"
#include "support/limits.h"
#include "support/profiler.h"
#include "support/stats.h"
#include "support/trace.h"
#include "vm/fibers.h"

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

namespace cmk {

class MetricsRegistry;

/// Strategy switches for the benchmark variants (DESIGN.md experiment
/// index). The default configuration is the paper's "builtin" system.
struct VMConfig {
  /// Paper section 6: create opportunistic one-shot records on reification
  /// and fuse on underflow. Off = the "no 1cc" variant of figure 6.
  bool EnableOneShots = true;
  /// Slots per stack segment.
  uint32_t SegmentSlots = 16 * 1024;
  /// Force a fresh segment on every call: emulates heap-allocated frames
  /// (Pycket-like) for the ctak comparison.
  bool HeapFrameMode = false;
  /// call/cc eagerly copies the captured frames (Gambit/CHICKEN-like
  /// copy-on-capture) instead of Chez's copy-on-application.
  bool CopyOnCapture = false;
  /// Old-Racket-style eager mark stack: with-continuation-mark pushes onto
  /// a side stack synchronized with frames; every return pays a check and
  /// continuation capture copies the whole mark stack.
  bool MarkStackMode = false;
  /// Paper section 5: recycle vacated stack segments through the heap's
  /// size-classed pool (and let the sweep route dead segments there)
  /// instead of paying malloc on every overflow/underflow. Off = every
  /// segment comes fresh from the allocator, for differential testing.
  bool EnableSegmentRecycling = true;
  /// Resource budgets (support/limits.h); zero fields disable. Mutable
  /// between runs through VM::config() / SchemeEngine::limits().
  EngineLimits Limits;
};

/// Entry of the old-Racket-style mark stack (MarkStackMode only).
struct MarkStackEntry {
  Value Seg;   ///< Segment identity of the owning frame.
  uint32_t Fp; ///< Frame pointer of the owning frame.
  Value Key;
  Value Val;
};

class VM : public GCRootSource, public GlobalEnv {
public:
  explicit VM(const VMConfig &Cfg = VMConfig());
  ~VM() override;

  Heap &heap() { return H; }
  WellKnown &wellKnown() { return WK; }
  VMConfig &config() { return Cfg; }
  VMStats &stats() { return Stats; }
  const VMStats &stats() const { return Stats; }
  TraceBuffer &trace() { return Trace; }
  const TraceBuffer &trace() const { return Trace; }

  // --- Running code ---------------------------------------------------------

  /// Applies a procedure to arguments on a fresh stack; returns the result.
  /// On a runtime error, *Ok is set to false and errorMessage() explains.
  /// \p BaseSlots sizes the fresh stack's first segment (0 = the
  /// configured SegmentSlots); deeper execution overflows into regular
  /// segments.
  Value applyProcedure(Value Fn, const Value *Args, uint32_t NArgs, bool &Ok,
                       uint32_t BaseSlots = 0);

  bool failed() const { return Failed; }
  const std::string &errorMessage() const { return ErrMsg; }
  /// Classification of the current error (limit trips vs. plain errors).
  ErrorKind errorKind() const { return ErrKind; }
  /// True when the current error escalated past a reserve (the run ended
  /// with a ResourceExhausted throw instead of a delivered, catchable
  /// trip). Supervisors treat such an engine as wounded: the program
  /// consumed through its own limit-trip handling, so the cheapest safe
  /// recovery is rebuilding the engine (see support/pool.h).
  bool errorFatal() const { return ErrFatal; }
  void clearError() {
    Failed = false;
    ErrMsg.clear();
    ErrKind = ErrorKind::None;
    ErrFatal = false;
  }

  /// Signals a Scheme-level runtime error; unwinds to applyProcedure.
  /// Appends a mark-based stack snapshot (the prelude's trace key) to the
  /// message when one is available.
  Value raiseError(const std::string &Msg);
  /// raiseError with an explicit classification (limit trips).
  Value raiseErrorKind(ErrorKind Kind, const std::string &Msg);

  // --- Resource governance (support/limits.h) --------------------------------

  /// Bits of the asynchronous host->engine signal word. Every safe-point
  /// site loads the word (relaxed) alongside its fuel decrement, so both
  /// signals are delivered at the very next site with zero extra
  /// hot-path cost over the old single interrupt flag.
  static constexpr uint32_t SigInterrupt = 1u << 0;
  static constexpr uint32_t SigSample = 1u << 1;

  /// Thread-safe, async-signal-safe cancellation: the dispatch loop's next
  /// safe point raises a catchable interrupt exception.
  void requestInterrupt() {
    AsyncSignals.fetch_or(SigInterrupt, std::memory_order_relaxed);
  }

  /// Thread-safe sampling poke (support/profiler.h): the next safe point
  /// captures one profile sample. Consuming the bit does NOT poll — fuel,
  /// SafePointPolls, and trip delivery are bit-for-bit unchanged whether
  /// the sampler runs or not.
  void pokeSample() {
    AsyncSignals.fetch_or(SigSample, std::memory_order_relaxed);
  }

  /// The safe-point sampling profiler attached to this engine.
  SamplingProfiler &profiler() { return Prof; }
  const SamplingProfiler &profiler() const { return Prof; }

  /// Pours an engine-level metrics snapshot (event counters, heap gauges,
  /// trace/profile meta-telemetry) into \p R; see support/metrics.h.
  void fillMetrics(MetricsRegistry &R) const;

  /// Per-engine fault injector (support/faults.h). Hooks are compiled in
  /// only under CMARKS_FAULTS, but configuration is always available.
  FaultInjector &faults() { return Faults; }

  /// The prelude registers its snapshot mark key here (via
  /// #%set-snapshot-key!) so raiseError can attach a stack snapshot.
  Value SnapshotKey = Value::undefined();

  // --- Fibers (vm/fibers.h) --------------------------------------------------

  /// Cooperative green threads multiplexed over this VM's continuation
  /// machinery; drives (spawn ...)/(yield) and the pool's fiber mode.
  FiberScheduler Fibers;

  /// Native-side trip delivery for blocking primitives (chunked sleep,
  /// idle waits): when an interrupt, budget trip, or passed deadline is
  /// pending, consumes it and schedules a tail call to the prelude's
  /// #%limit-raise (falling back to raiseErrorKind), exactly as the
  /// dispatch loop's safe point would. Returns true when a trip was
  /// delivered — the native must return immediately without scheduling
  /// anything else. Registers must be synced (native context).
  bool deliverTripFromNative();

  // --- Globals ---------------------------------------------------------------

  Value globalCell(Value Sym) override;
  void setGlobal(const std::string &Name, Value V);
  Value getGlobal(const std::string &Name);
  void defineNative(const std::string &Name, NativeFn Fn, int32_t MinArgs,
                    int32_t MaxArgs);

  // --- Native call-back protocol ---------------------------------------------

  /// Requests that \p Fn be applied, in tail position with respect to the
  /// running native's call, once the native returns. At most one pending
  /// call may be scheduled per native invocation.
  void scheduleTailCall(Value Fn, const Value *Args, uint32_t NArgs);

  // --- Continuation machinery (vm/stacks.cpp, vm/callcc.cpp) -----------------

  /// Reifies the current frame's continuation if needed (paper 7.2: tail
  /// attachment operations). After this, Regs frame returns to the
  /// underflow sentinel and NextK is this frame's record.
  void reifyCurrentFrame();

  /// Reifies at the current sp (call/cc-style split): the current frame and
  /// its temporaries become part of the captured stack. Returns the record.
  Value reifyAtSp(ContShot Shot);

  /// Reifies the continuation of the running native call and returns its
  /// record. In tail position (\p Tail) that continuation is the caller's
  /// frame's, so the frame is reified and NextK returned; otherwise the
  /// stack splits at sp, at the native's resume point.
  Value reifyNativeCall(bool Tail);

  /// Segment overflow (paper 5): the caller has reified, so [Base, Sp)
  /// holds at most the frame being moved, with its header at Base. Counts
  /// and traces the overflow, copies that frame to slot 0 of a fresh
  /// segment with room for \p Need slots, points Base/Fp/Sp at it, and
  /// recycles the vacated segment when no record still holds it.
  void moveToFreshSegment(uint32_t Need);

  /// Handles a return through the underflow sentinel; pushes \p Result on
  /// the restored stack. Returns false when the continuation chain is empty
  /// (the run is complete and \p Result is final).
  bool underflow(Value Result);

  /// Applies continuation record \p K to \p Result: replaces the current
  /// stack with the captured one (copying; paper 5).
  void applyContinuation(Value K, Value Result);

  /// Like applyContinuation but delivers no value: restores the machine to
  /// \p K's resume point. The caller schedules what runs there (used by
  /// prompt aborts to invoke the handler in the prompt's continuation).
  void jumpToContinuation(Value K);

  /// The marks of the innermost record: the current continuation's
  /// attachments without those of the frame that returns through it.
  Value recordMarks() const {
    return Regs.NextK.isNil() ? Value::nil() : asCont(Regs.NextK)->Marks;
  }

  /// Paper 7.2: the frame at \p Fp (within \p Slots, the current segment)
  /// carries an attachment iff it is reified and the marks register
  /// differs from its record's marks. The attachment is car(Regs.Marks).
  bool frameHasAttachment(const Value *Slots, uint32_t Fp) const {
    return Slots[Fp + 1].isUnderflowSentinel() && Regs.Marks != recordMarks();
  }

  /// Creates a fresh pass-through underflow record: returning through it
  /// just forwards the value to the next record. Used to attach prompt
  /// metadata to a tail-position continuation without mutating records
  /// that may be shared with captured continuations.
  Value makePassThroughRecord();

  /// Hands a just-vacated segment back to the heap's recycling pool when
  /// it is provably finished with: no underflow record references it
  /// (RecordRefs == 0), it was never referenced by a full record
  /// (SegPinned), and it is not the current segment. Called by the
  /// underflow-copy and overflow-move paths; a no-op when recycling is
  /// disabled or in MarkStackMode (mark-stack entries alias segments).
  void maybeRecycleSegment(Value SegV);

  // --- Registers --------------------------------------------------------------

  /// The machine registers (paper 5/6: stack-base, frame, next-stack, and
  /// the marks register added for attachments).
  struct Registers {
    Value Seg;      ///< Current StackSeg.
    uint32_t Base;  ///< Stack base index within Seg.
    uint32_t Fp;    ///< Current frame pointer (index within Seg).
    uint32_t Sp;    ///< Next free slot (index within Seg).
    Value CurCode;  ///< CodeObj of the running function.
    uint32_t Pc;    ///< Byte offset into CurCode's instructions.
    Value Marks;    ///< Attachment list of the current continuation.
    Value NextK;    ///< Innermost underflow record (or nil).
    Value Winders;  ///< dynamic-wind chain (WinderObj list).
  };
  Registers Regs;

  /// Old-Racket-style mark stack (MarkStackMode).
  std::vector<MarkStackEntry> MarkStack;

  /// When the figure 3 imitation carries the attachments (Imitate engine
  /// variant), this holds the global cell of #%imitate-atts; the marks
  /// layer reads the attachment list from it instead of the register.
  Value ImitationAtts = Value::undefined();

  /// The attachment list the marks layer should read (register or
  /// imitation stack).
  Value currentMarksList() const {
    if (ImitationAtts.isPair())
      return asPair(ImitationAtts)->Car;
    return Regs.Marks;
  }

  // --- GC ---------------------------------------------------------------------

  void traceRoots(Heap &Heap) override;

  /// Protects a value for the lifetime of the VM (e.g. well-known data).
  void addPermanentRoot(Value V) { PermanentRoots.push_back(V); }

  Value slot(uint32_t I) const { return asStackSeg(Regs.Seg)->Slots[I]; }
  void setSlot(uint32_t I, Value V) { asStackSeg(Regs.Seg)->Slots[I] = V; }

  // The interpreter loop lives in vm.cpp.
  Value run();

  // Pending tail-call state (see scheduleTailCall).
  bool PendingCall = false;
  Value PendingFn;
  std::vector<Value> PendingArgs;

  /// True while a native invoked from tail position runs; generic
  /// attachment natives use it to pick the right reification flavour.
  bool NativeTailCall = false;
  /// Set by applyContinuation and the prompt layer when a native replaced
  /// the current continuation (the result is already in place).
  bool NativeJumped = false;

  /// Outcome of the out-of-line call dispatcher.
  enum class Dispatch { Done, Halt };

  /// Dispatches a non-closure (or overflowing) call whose frame starts at
  /// \p Hdr. Registers are authoritative on entry and exit. Returns Halt
  /// when the whole run completed (final value at slot(Regs.Sp - 1)).
  Dispatch dispatchSlowCall(uint32_t Hdr, uint32_t NArgs);

  /// Finishes a non-tail native call that returned \p Res, its frame
  /// popped: leaves a failure or a continuation jump in place, dispatches
  /// a scheduled call, or delivers the value (through underflow when the
  /// call sat at a stack base). Shared by run()'s inline native path and
  /// dispatchSlowCall.
  Dispatch finishNativeCall(Value Res);

  /// Same for tail calls: callee and args already occupy the current frame.
  Dispatch dispatchSlowTail(uint32_t NArgs);

  /// CallAttach support: reifies at \p Hdr with (rest marks) in the record
  /// (paper 7.2, second category) and marks the pending frame's header.
  void preReifyForAttachCall(uint32_t Hdr);

  /// One-shot "treat the next call as a segment overflow" latch set by the
  /// Overflow fault site and consumed by the slow-call dispatchers.
  bool ForceOverflowOnce = false;

  /// Overflow fault-site hook: when armed and firing, latches
  /// ForceOverflowOnce and diverts the caller off the fast path. Folds to
  /// a constant false when CMARKS_FAULTS is off.
  bool forcedOverflow() {
    if (CMK_FAULT(&Faults, Overflow)) {
      ForceOverflowOnce = true;
      return true;
    }
    return false;
  }

private:
  friend class SchemeEngine;
  friend class FiberScheduler;

  /// Starts a fresh stack on a segment of \p Slots slots.
  void installBaseFrame(Value Fn, const Value *Args, uint32_t NArgs,
                        uint32_t Slots);

  /// Re-arms fuel, deadline, and pending-trip state for a fresh run.
  void resetGovernance();

  /// True when any EngineLimits field is armed (including a non-default
  /// FuelInterval), i.e. the dispatch loop must actually count fuel. An
  /// ungoverned engine runs with effectively infinite fuel, so it takes
  /// zero safe-point polls; cross-thread interrupts are still delivered
  /// by the per-site InterruptRequested load.
  bool pollingGoverned() const;

  /// The fuel value a refill installs: the configured interval for
  /// governed engines, effectively infinite otherwise.
  int64_t refillFuel() const;

  /// Detaches Regs from a failed run's stack chain so the condemned
  /// segments are collectible immediately.
  void releaseRunState();

  /// Fuel-exhaustion safe point: refills fuel and returns the trip to
  /// deliver (TripKind::None for a plain poll). Registers must be synced.
  TripKind pollSafePoint();

  /// Delivers a limit trip at a safe point by injecting a call to the
  /// prelude's #%limit-raise (which raises a catchable Scheme exception).
  /// Returns false when the prelude hook is unavailable, in which case the
  /// caller reports the trip through raiseErrorKind instead.
  bool injectLimitRaise(TripKind Trip);

  /// Code object containing a single Halt instruction; the bottom of every
  /// run's continuation chain resumes here.
  Value HaltCode;
  /// Code object containing a single Return instruction, used by
  /// pass-through records.
  Value ReturnCode;

  Heap H;
  WellKnown WK;
  VMConfig Cfg;
  VMStats Stats;
  TraceBuffer Trace;

  Value GlobalTable; ///< HashTable symbol -> box.
  std::vector<Value> PermanentRoots;

  bool Failed = false;
  std::string ErrMsg;
  ErrorKind ErrKind = ErrorKind::None;
  bool ErrFatal = false; ///< Current error came from ResourceExhausted.
  bool Running = false;

  // Resource governance state.
  FaultInjector Faults;
  /// Safe-point sites (calls and taken backward branches) until the next
  /// poll. The heap zeroes it through its FuelPoke pointer to force the
  /// next site to poll when a budget trips mid-allocation.
  int64_t FuelLeft = 0;
  std::chrono::steady_clock::time_point Deadline{};
  bool DeadlineArmed = false;
  /// SigInterrupt | SigSample bits, set cross-thread, consumed at safe
  /// points. One word so the hot path pays a single relaxed load.
  std::atomic<uint32_t> AsyncSignals{0};
  /// Sampling profiler (support/profiler.h); its thread only touches
  /// AsyncSignals. Stopped in ~VM before anything else is torn down.
  SamplingProfiler Prof;
};

// --- Native registration (vm/primitives*.cpp, marks/, control/, lib/) --------

/// Installs the base primitive library into \p M.
void installPrimitives(VM &M);
void installListPrimitives(VM &M);
void installStringPrimitives(VM &M);
void installControlPrimitives(VM &M); ///< call/cc, one-shots.
void installWinderPrimitives(VM &M);  ///< dynamic-wind support natives.
void installAttachmentPrimitives(VM &M); ///< Generic 7.1 primitives.
void installPromptPrimitives(VM &M);  ///< control/prompts.cpp.

/// Applies a composable continuation: splices rebased copies of its
/// captured records onto the current continuation (control/prompts.cpp).
void applyCompositeCont(VM &M, Value K, Value Arg, bool TailMode);
void installMarkPrimitives(VM &M);    ///< marks/: mark frames and sets.
void installParameterPrimitives(VM &M);
// installFiberPrimitives lives in vm/fibers.h with the scheduler.

// Helpers shared by native implementations.

/// Reports a type error like "car: expected pair, got 5".
Value typeError(VM &M, const char *Who, const char *Expected, Value Got);

} // namespace cmk

#endif // CMARKS_VM_VM_H
