//===- vm/vm.cpp - Bytecode interpreter ------------------------*- C++ -*-===//
///
/// \file
/// The interpreter loop and the call/return/underflow protocol. The
/// attachment opcodes implement paper section 7's compiled strategies; the
/// generic strategies live in vm/attachments.cpp.
///
//===----------------------------------------------------------------------===//

#include "vm/vm.h"

#include "compiler/bytecode.h"
#include "marks/marks.h"
#include "runtime/equal.h"
#include "runtime/hashtable.h"
#include "runtime/numbers.h"
#include "runtime/printer.h"
#include "support/metrics.h"

#include <limits>

using namespace cmk;

// Defined in marks/mark_frame.cpp: reads a parameter's current binding.
namespace cmk {
Value parameterLookup(VM &M, Value Param);
// Defined in control/prompts.cpp: applies a composable continuation.
void applyCompositeCont(VM &M, Value K, Value Arg, bool TailMode);
}

VM::VM(const VMConfig &Config) : Cfg(Config) {
  WK.init(H);
  H.attachVMStats(&Stats);
  H.attachTraceBuffer(&Trace);
  H.attachLimits(&Cfg.Limits);
  H.attachFaults(&Faults);
  H.attachFuel(&FuelLeft);
  H.setSegmentRecycling(Cfg.EnableSegmentRecycling);
  Faults.attachVMStats(&Stats);
  H.addRootSource(this);
  GlobalTable = H.makeHashTable(/*EqualBased=*/false);
  HaltCode = H.makeCode(0, 0, 16, 0, H.intern("#%halt"), {},
                        {static_cast<uint8_t>(Op::Halt)});
  PermanentRoots.push_back(HaltCode);
  ReturnCode = H.makeCode(0, 0, 16, 0, H.intern("#%return"), {},
                          {static_cast<uint8_t>(Op::Return)});
  PermanentRoots.push_back(ReturnCode);
  installPrimitives(*this);
  installListPrimitives(*this);
  installStringPrimitives(*this);
  installControlPrimitives(*this);
  installWinderPrimitives(*this);
  installAttachmentPrimitives(*this);
  installPromptPrimitives(*this);
  installMarkPrimitives(*this);
  installParameterPrimitives(*this);
  installFiberPrimitives(*this);
}

VM::~VM() {
  // The sampler thread pokes this VM's signal word; join it before any
  // member is destroyed.
  Prof.stop();
  H.removeRootSource(this);
}

void VM::traceRoots(Heap &Heap) {
  Heap.traceValue(Regs.Seg);
  Heap.traceValue(Regs.CurCode);
  Heap.traceValue(Regs.Marks);
  Heap.traceValue(Regs.NextK);
  Heap.traceValue(Regs.Winders);
  Heap.traceValue(GlobalTable);
  for (Value V : PermanentRoots)
    Heap.traceValue(V);
  Heap.traceValue(PendingFn);
  Heap.traceValue(ImitationAtts);
  Heap.traceValue(SnapshotKey);
  for (Value V : PendingArgs)
    Heap.traceValue(V);
  for (const MarkStackEntry &E : MarkStack) {
    Heap.traceValue(E.Seg);
    Heap.traceValue(E.Key);
    Heap.traceValue(E.Val);
  }
  // Parked fibers hold their captured continuations (and the segments
  // those pin) only through the scheduler's queues.
  Fibers.traceRoots(Heap);
}

Value VM::globalCell(Value Sym) {
  Value Cell = htGet(GlobalTable, Sym, Value::False());
  if (Cell.isPair())
    return Cell;
  Cell = H.makePair(Value::undefined(), Sym);
  htSet(H, GlobalTable, Sym, Cell);
  return Cell;
}

void VM::setGlobal(const std::string &Name, Value V) {
  asPair(globalCell(H.intern(Name)))->Car = V;
}

Value VM::getGlobal(const std::string &Name) {
  return asPair(globalCell(H.intern(Name)))->Car;
}

void VM::defineNative(const std::string &Name, NativeFn Fn, int32_t MinArgs,
                      int32_t MaxArgs) {
  Value NameSym = H.intern(Name);
  Value N = H.makeNative(Fn, NameSym, MinArgs, MaxArgs);
  asPair(globalCell(NameSym))->Car = N;
}

/// Appends a mark-based stack snapshot to an error message: the values of
/// the prelude's trace key (with-stack-frame / profiled annotations), the
/// same data current-stack-snapshot reads. Best-effort — building the
/// snapshot allocates, and an error may arrive with the heap already at
/// its budget, so exhaustion here just drops the context.
static void appendStackContext(VM &M, std::string &Msg) {
  if (M.SnapshotKey.isUndefined())
    return;
  if (!M.Regs.Seg.isKind(ObjKind::StackSeg))
    return;
  try {
    Value Frames = markListAll(M.heap(), M.currentMarksList(), M.SnapshotKey,
                               Value::nil());
    if (!Frames.isPair())
      return;
    Msg += "\n  context:";
    int Shown = 0;
    for (Value P = Frames; P.isPair() && Shown < 12;
         P = asPair(P)->Cdr, ++Shown)
      Msg += " " + displayToString(asPair(P)->Car);
    if (Frames.isPair() && Shown == 12)
      Msg += " ...";
  } catch (const ResourceExhausted &) {
    // No room to describe the failure; the message stands on its own.
  }
}

Value VM::raiseError(const std::string &Msg) {
  if (!Failed) {
    Failed = true;
    if (ErrKind == ErrorKind::None)
      ErrKind = ErrorKind::Runtime;
    ErrMsg = Msg;
    if (Running)
      appendStackContext(*this, ErrMsg);
  }
  return Value::undefined();
}

Value VM::raiseErrorKind(ErrorKind Kind, const std::string &Msg) {
  if (!Failed && ErrKind == ErrorKind::None)
    ErrKind = Kind;
  return raiseError(Msg);
}

void VM::scheduleTailCall(Value Fn, const Value *Args, uint32_t NArgs) {
  CMK_CHECK(!PendingCall, "a native may schedule at most one tail call");
  PendingCall = true;
  PendingFn = Fn;
  PendingArgs.assign(Args, Args + NArgs);
}

Value cmk::typeError(VM &M, const char *Who, const char *Expected, Value Got) {
  return M.raiseError(std::string(Who) + ": expected " + Expected + ", got " +
                      writeToString(Got));
}

namespace {

/// The callee's name for an arity error. Called only once a check failed:
/// formatting it allocates, and a call that fits must not pay for that.
/// Returned by value: engines run concurrently (support/pool.h), so a
/// function-local static buffer here would be a cross-engine data race.
std::string procName(Value Fn) {
  Value Name = Value::False();
  if (Fn.isClosure())
    Name = asCode(asClosure(Fn)->Code)->Name;
  else if (Fn.isNative())
    Name = asNative(Fn)->Name;
  if (!Name.isSymbol())
    return "procedure";
  return displayToString(Name);
}

/// True when native \p N accepts \p NArgs arguments.
inline bool arityFits(const NativeObj *N, uint32_t NArgs) {
  return static_cast<int32_t>(NArgs) >= N->MinArgs &&
         (N->MaxArgs < 0 || static_cast<int32_t>(NArgs) <= N->MaxArgs);
}

/// Checks the argument count of a call to native \p Fn; raises otherwise.
bool checkArity(VM &M, Value Fn, uint32_t NArgs) {
  if (arityFits(asNative(Fn), NArgs))
    return true;
  M.raiseError(procName(Fn) + ": wrong number of arguments");
  return false;
}

/// Collects surplus arguments into a rest list. Args live in stack slots
/// [ArgBase, ArgBase+NArgs); afterwards the formals occupy
/// [ArgBase, ArgBase+NumParams).
bool bindArgs(VM &M, Value Fn, uint32_t ArgBase, uint32_t NArgs) {
  CodeObj *Code = asCode(asClosure(Fn)->Code);
  bool HasRest = (Code->Flags & codeflags::HasRestArg) != 0;
  uint32_t Required = HasRest ? Code->NumArgs - 1 : Code->NumArgs;
  if (HasRest ? NArgs < Required : NArgs != Required) {
    M.raiseError(procName(Fn) + ": wrong number of arguments (got " +
                 std::to_string(NArgs) + ")");
    return false;
  }
  if (!HasRest)
    return true;
  // Build the rest list from the extra arguments, newest first.
  Value Rest = Value::nil();
  {
    GCRoot RestRoot(M.heap(), Rest);
    for (uint32_t I = NArgs; I > Required; --I) {
      StackSegObj *S = asStackSeg(M.Regs.Seg);
      RestRoot.set(M.heap().makePair(S->Slots[ArgBase + I - 1],
                                     RestRoot.get()));
    }
    Rest = RestRoot.get();
  }
  asStackSeg(M.Regs.Seg)->Slots[ArgBase + Required] = Rest;
  return true;
}

/// Human text for each limit trip; the catchable exception's message and
/// the fallback error share it.
const char *tripMessage(TripKind T) {
  switch (T) {
  case TripKind::HeapLimit:
    return "heap limit exceeded";
  case TripKind::StackLimit:
    return "stack depth limit exceeded";
  case TripKind::Timeout:
    return "evaluation timed out";
  case TripKind::Interrupt:
    return "evaluation interrupted";
  case TripKind::None:
    break;
  }
  return "limit trip";
}

} // namespace

void VM::installBaseFrame(Value Fn, const Value *Args, uint32_t NArgs,
                          uint32_t Slots) {
  GCRoot FnRoot(H, Fn);
  RootedValues ArgRoots(H);
  for (uint32_t I = 0; I < NArgs; ++I)
    ArgRoots.push(Args[I]);

  Value SegV = H.makeStackSeg(Slots);
  Regs.Seg = SegV;
  Regs.Base = 0;
  Regs.Fp = 0;
  Regs.Marks = Value::nil();
  Regs.Winders = Value::nil();
  MarkStack.clear();

  // The bottom of the continuation chain is a record that resumes at a
  // lone Halt instruction, so applying a continuation captured at the base
  // behaves uniformly.
  Value HaltK = H.makeCont();
  ContObj *K = asCont(HaltK);
  // The halt record covers no slots, so it references no segment: a real
  // Seg here would pin the base segment against recycling for the whole
  // run (restoreByCopy handles empty nil-Seg slices).
  K->Seg = Value::nil();
  K->Lo = K->Hi = 0;
  K->RetFp = 0;
  K->RetCode = HaltCode;
  K->RetPc = Value::fixnum(0);
  K->setShot(ContShot::Full);
  Regs.NextK = HaltK;

  StackSegObj *S = asStackSeg(Regs.Seg);
  S->Slots[0] = Value::fixnum(0);
  S->Slots[1] = Value::underflowSentinel();
  S->Slots[2] = Value::fixnum(0);
  S->Slots[3] = FnRoot.get();
  for (uint32_t I = 0; I < NArgs; ++I)
    S->Slots[FrameHeaderSlots + I] = ArgRoots[I];
  Regs.Sp = FrameHeaderSlots + NArgs;
}

void VM::releaseRunState() {
  // A failed run leaves Regs pointing into whatever stack chain it died
  // on; detach so the condemned segments (possibly a whole budget's worth)
  // are garbage for the very next collection, not pinned until the next
  // run replaces them.
  Regs.Seg = Value::undefined();
  Regs.CurCode = Value::undefined();
  Regs.NextK = Value::undefined();
  Regs.Marks = Value::nil();
  Regs.Winders = Value::nil();
  Regs.Base = Regs.Fp = Regs.Sp = 0;
  Regs.Pc = 0;
  MarkStack.clear();
  // A pending call abandoned by the failure is dead too; traceRoots
  // traces PendingFn/PendingArgs unconditionally, so leaving them set
  // would strand the closure (and anything it closes over) until the
  // next scheduled call overwrites them.
  PendingCall = false;
  PendingFn = Value::undefined();
  PendingArgs.clear();
}

bool VM::pollingGoverned() const {
  // A pool engine is always governed: per-fiber budgets arm the deadline
  // at every switch-in, and those deadlines are only noticed by
  // fuel-exhaustion polls.
  return Cfg.Limits.HeapBytes != 0 || Cfg.Limits.MaxLiveSegments != 0 ||
         Cfg.Limits.TimeoutMs != 0 || Fibers.PoolHost ||
         Cfg.Limits.FuelInterval != EngineLimits().FuelInterval;
}

int64_t VM::refillFuel() const {
  if (!pollingGoverned())
    return std::numeric_limits<int64_t>::max();
  // A pool job's own interval applies while one of its fibers runs.
  const ResourceAccount *A = H.account();
  uint32_t Interval = A ? A->Limits.FuelInterval : Cfg.Limits.FuelInterval;
  return Interval ? Interval : EngineLimits().FuelInterval;
}

void VM::resetGovernance() {
  // A previous run may have been abandoned mid-flight (limit trip, hard
  // exhaustion): drop its pending-call and native-protocol state, consume
  // any undelivered trip, and re-arm the fuel and deadline.
  PendingCall = false;
  NativeTailCall = false;
  NativeJumped = false;
  ForceOverflowOnce = false;
  // Interrupts aimed at an idle engine are dropped by design (pool
  // semantics: interruptAll targets running jobs); stale sample pokes
  // from between runs are dropped with them so idle time never shows up
  // in a profile. Exception: a fiber-pool worker's jobs stay live
  // (parked) across the idle gaps between slices, so an interrupt that
  // lands between slices must survive into the next one.
  if (Fibers.preserveInterruptAcrossRuns())
    AsyncSignals.fetch_and(SigInterrupt, std::memory_order_relaxed);
  else
    AsyncSignals.store(0, std::memory_order_relaxed);
  Fibers.noteRunBoundary(*this);
  FuelLeft = refillFuel();
  DeadlineArmed = Cfg.Limits.TimeoutMs > 0;
  if (DeadlineArmed)
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(Cfg.Limits.TimeoutMs);
  H.resetGovernance();
}

TripKind VM::pollSafePoint() {
  FuelLeft = refillFuel();
  ++Stats.SafePointPolls;
  // Consume only the interrupt bit: a concurrent sample poke stays
  // pending for the next safe-point site. On a pool engine the bit is
  // additionally left armed unless a fiber is switched in — consuming it
  // inside scheduler glue would fail the slice with no job to attribute
  // the trip to, silently discarding the interrupt.
  if ((AsyncSignals.load(std::memory_order_relaxed) & SigInterrupt) &&
      (!Fibers.PoolHost || Fibers.interruptDeliverable())) {
    AsyncSignals.fetch_and(~SigInterrupt, std::memory_order_relaxed);
    ++Stats.LimitInterrupts;
    return TripKind::Interrupt;
  }
  if (H.hasPendingTrip()) {
    TripKind T = H.takePendingTrip();
    if (T == TripKind::HeapLimit)
      ++Stats.LimitHeapTrips;
    else if (T == TripKind::StackLimit)
      ++Stats.LimitStackTrips;
    return T;
  }
  if (DeadlineArmed && std::chrono::steady_clock::now() >= Deadline) {
    // One-shot per run: were the deadline to stay armed, the very next
    // poll would re-trip inside the program's own timeout handler.
    DeadlineArmed = false;
    ++Stats.LimitTimeoutTrips;
    return TripKind::Timeout;
  }
  return TripKind::None;
}

void VM::fillMetrics(MetricsRegistry &R) const {
  int N = 0;
  const StatsCounterDesc *Table = statsCounters(N);
  for (int I = 0; I < N; ++I)
    R.counter("cmarks_engine_events_total", "VM runtime event counters",
              {{"event", Table[I].Name}}, Stats.*(Table[I].Field));
  const HeapStats &HS = H.stats();
  R.counter("cmarks_engine_events_total", "VM runtime event counters",
            {{"event", "gc-collections"}}, HS.Collections);
  R.counter("cmarks_engine_events_total", "VM runtime event counters",
            {{"event", "gc-bytes-allocated"}}, HS.BytesAllocated);
  R.counter("cmarks_engine_trace_dropped_events_total",
            "Trace-ring events lost to wraparound", {}, Trace.dropped());
  R.counter("cmarks_engine_profile_samples_total",
            "Profile samples captured at safe points", {}, Prof.total());
  R.counter("cmarks_engine_profile_dropped_total",
            "Profile samples lost to ring wraparound", {}, Prof.dropped());
  R.gauge("cmarks_engine_heap_bytes", "Committed heap bytes (incl. garbage)",
          {}, static_cast<double>(H.bytesInUse()));
  R.gauge("cmarks_engine_heap_reserved_bytes",
          "Heap bytes held from malloc (blocks, large objects, segment pool)",
          {}, static_cast<double>(H.reservedBytes()));
  R.gauge("cmarks_engine_live_segments", "Live stack segments", {},
          static_cast<double>(H.liveStackSegments()));
}

Value VM::applyProcedure(Value Fn, const Value *Args, uint32_t NArgs,
                         bool &Ok, uint32_t BaseSlots) {
  CMK_CHECK(!Running, "applyProcedure is not re-entrant");
  clearError();
  try {

  GCRoot FnRoot(H, Fn);
  RootedValues ArgRoots(H);
  for (uint32_t I = 0; I < NArgs; ++I)
    ArgRoots.push(Args[I]);

  // After the roots: re-arming a tripped heap budget may collect, and Fn
  // or the arguments might only be reachable through this call.
  resetGovernance();

  // Resolve native/pending chains until a closure (or plain result).
  for (;;) {
    Value F = FnRoot.get();
    if (F.isClosure())
      break;
    if (F.isNative()) {
      NativeObj *N = asNative(F);
      if (!checkArity(*this, F, NArgs)) {
        Ok = false;
        return Value::undefined();
      }
      // Natives invoked outside a run cannot touch continuation state;
      // give them a scratch frame context.
      installBaseFrame(F, ArgRoots.values().data(), NArgs,
                       BaseSlots ? std::max(BaseSlots, FrameHeaderSlots + NArgs)
                                 : Cfg.SegmentSlots);
      Regs.CurCode = Value::undefined();
      Running = true;
      Value Res =
          N->Fn(*this, asStackSeg(Regs.Seg)->Slots + FrameHeaderSlots, NArgs);
      Running = false;
      if (Failed) {
        releaseRunState();
        Ok = false;
        return Value::undefined();
      }
      if (!PendingCall) {
        Ok = true;
        return Res;
      }
      PendingCall = false;
      FnRoot.set(PendingFn);
      ArgRoots.clear();
      for (Value V : PendingArgs)
        ArgRoots.push(V);
      NArgs = static_cast<uint32_t>(PendingArgs.size());
      continue;
    }
    Ok = false;
    raiseError("apply: not a procedure: " + writeToString(F));
    return Value::undefined();
  }

  Value F = FnRoot.get();
  CodeObj *Code = asCode(asClosure(F)->Code);
  installBaseFrame(F, ArgRoots.values().data(), NArgs,
                   BaseSlots ? std::max(BaseSlots, FrameHeaderSlots + NArgs +
                                                       Code->FrameSize)
                             : Cfg.SegmentSlots);
  if (!bindArgs(*this, F, FrameHeaderSlots, NArgs)) {
    Ok = false;
    return Value::undefined();
  }
  StackSegObj *S = asStackSeg(Regs.Seg);
  for (uint32_t I = Code->NumArgs; I < Code->NumLocals; ++I)
    S->Slots[FrameHeaderSlots + I] = Value::undefined();
  Regs.Sp = FrameHeaderSlots + Code->NumLocals;
  Regs.CurCode = asClosure(F)->Code;
  Regs.Pc = 0;

  Running = true;
  Value Result = run();
  Running = false;
  Ok = !Failed;
  if (Failed)
    releaseRunState();
  return Result;

  } catch (const ResourceExhausted &Ex) {
    // A resource was exhausted beyond its reserve (or the host is truly
    // out of memory). The run is abandoned; the engine itself stays
    // consistent: the heap was left untouched by the throwing allocation,
    // GCRoot/RootedValues unwound via RAII, and the dead stack segments
    // are garbage the next collection reclaims.
    Running = false;
    PendingCall = false;
    NativeTailCall = false;
    NativeJumped = false;
    releaseRunState();
    Failed = true;
    ErrKind = errorKindOf(Ex.Kind);
    ErrFatal = true;
    ErrMsg = Ex.What;
    Ok = false;
    return Value::undefined();
  }
}

// -----------------------------------------------------------------------------
// The interpreter loop.
// -----------------------------------------------------------------------------
//
// Dispatch is computed-goto threading (the GCC/Clang &&label extension,
// available on every compiler that builds these sources): every handler
// ends by jumping through a label table indexed by the next opcode byte,
// so the indirect branch is replicated per handler and the branch
// predictor can learn per-opcode successor patterns. VM_NEXT() is always
// a goto, never a `break`/`continue`, and is therefore safe at any
// nesting depth.
//
// Safe points are hoisted out of the per-instruction path: fuel is
// decremented only at calls (Call/CallAttach/ConstCall/TailCall) and at
// taken backward branches — every loop passes one of those (this
// compiler's loops are tail calls; emitted jumps are forward If joins) —
// plus an end-of-run check so a budget trip raised by the final
// allocation is still delivered. Ungoverned engines (no EngineLimits
// armed) run with effectively infinite fuel and take zero safe-point
// polls; the per-site relaxed AsyncSignals load still delivers
// cross-thread requestInterrupt() and profiler sample pokes promptly,
// and the heap zeroing FuelLeft (FuelPoke) still forces the next site
// to poll a budget trip.

Value VM::run() {
  // Cached registers. Slots can be cached because the collector never moves
  // objects; it must be re-fetched whenever Regs.Seg changes.
  CodeObj *CC = asCode(Regs.CurCode);
  const uint8_t *Ins = CC->instrs();
  Value *Consts = CC->consts();
  Value *Slots = asStackSeg(Regs.Seg)->Slots;
  uint32_t Pc = Regs.Pc;
  uint32_t Fp = Regs.Fp;
  uint32_t Sp = Regs.Sp;
  uint32_t NArgs = 0; // Shared by the call handlers that enter DoCall.

#define SYNC()                                                                 \
  do {                                                                         \
    Regs.Pc = Pc;                                                              \
    Regs.Fp = Fp;                                                              \
    Regs.Sp = Sp;                                                              \
  } while (0)
#define RELOAD()                                                               \
  do {                                                                         \
    CC = asCode(Regs.CurCode);                                                 \
    Ins = CC->instrs();                                                        \
    Consts = CC->consts();                                                     \
    Slots = asStackSeg(Regs.Seg)->Slots;                                       \
    Pc = Regs.Pc;                                                              \
    Fp = Regs.Fp;                                                              \
    Sp = Regs.Sp;                                                              \
  } while (0)
#define VMERROR(MSG)                                                           \
  do {                                                                         \
    SYNC();                                                                    \
    raiseError(MSG);                                                           \
    return Value::undefined();                                                 \
  } while (0)

#define VM_CASE(OPC) L_##OPC:
#define VM_NEXT() goto *DispatchTable[Ins[Pc]]

// Hoisted safe point: taken at calls and backward branches. A trip is
// delivered by injecting a call to the prelude's #%limit-raise at this
// (synced) boundary, exactly as the old per-instruction poll did.
//
// The entry test is the same two instructions whether or not the sampling
// profiler exists: one fuel decrement+test and one relaxed load+test of
// the AsyncSignals word (which used to be the lone interrupt flag).
// Inside the cold block, a pending sample is captured FIRST and does not
// poll: fuel is untouched and pollSafePoint runs only for the same
// reasons it always did (fuel exhausted, or interrupt bit set), so
// SafePointPolls and the governed poll schedule are bit-for-bit
// identical with sampling on or off — the property the fuzzer's counter
// determinism check and the CI safe-point-polls gate both enforce.
#define VM_SAFEPOINT()                                                         \
  do {                                                                         \
    if (__builtin_expect(--FuelLeft <= 0, 0) ||                                \
        __builtin_expect(                                                      \
            AsyncSignals.load(std::memory_order_relaxed) != 0, 0)) {           \
      SYNC();                                                                  \
      if (__builtin_expect(AsyncSignals.load(std::memory_order_relaxed) &     \
                               SigSample, 0)) {                               \
        AsyncSignals.fetch_and(~SigSample, std::memory_order_relaxed);        \
        Prof.captureSample(*this);                                            \
      }                                                                        \
      if (FuelLeft <= 0 ||                                                     \
          (AsyncSignals.load(std::memory_order_relaxed) & SigInterrupt)) {     \
        TripKind Trip = pollSafePoint();                                       \
        if (Trip != TripKind::None) {                                          \
          if (!injectLimitRaise(Trip)) {                                       \
            raiseErrorKind(errorKindOf(Trip), tripMessage(Trip));              \
            return Value::undefined();                                         \
          }                                                                    \
          if (Failed)                                                          \
            return Value::undefined();                                         \
          RELOAD();                                                            \
          VM_NEXT();                                                           \
        }                                                                      \
      }                                                                        \
    }                                                                          \
  } while (0)

  // Inlined-primitive bodies, shared between the standalone opcodes
  // (ADV = 1) and the LocalPrim superinstruction (ADV = 4). Every body
  // ends in VM_NEXT() or VMERROR, so the macros are safe inside the
  // LocalPrim inner switch.

#define VM_PRIM_ADD(ADV)                                                       \
  {                                                                            \
    Value A = Slots[Sp - 2], B = Slots[Sp - 1];                                \
    if (A.isFixnum() && B.isFixnum()) {                                        \
      int64_t R;                                                               \
      if (!__builtin_add_overflow(A.asFixnum(), B.asFixnum(), &R) &&           \
          fitsFixnum(R)) {                                                     \
        Slots[Sp - 2] = Value::fixnum(R);                                      \
        --Sp;                                                                  \
        Pc += (ADV);                                                           \
        VM_NEXT();                                                             \
      }                                                                        \
    }                                                                          \
    SYNC();                                                                    \
    NumResult R = numAdd(H, A, B);                                             \
    if (!R.Ok)                                                                 \
      VMERROR("+: expected numbers");                                          \
    Slots[Sp - 2] = R.V;                                                       \
    --Sp;                                                                      \
    Pc += (ADV);                                                               \
    VM_NEXT();                                                                 \
  }

#define VM_PRIM_SUB(ADV)                                                       \
  {                                                                            \
    Value A = Slots[Sp - 2], B = Slots[Sp - 1];                                \
    if (A.isFixnum() && B.isFixnum()) {                                        \
      int64_t R;                                                               \
      if (!__builtin_sub_overflow(A.asFixnum(), B.asFixnum(), &R) &&           \
          fitsFixnum(R)) {                                                     \
        Slots[Sp - 2] = Value::fixnum(R);                                      \
        --Sp;                                                                  \
        Pc += (ADV);                                                           \
        VM_NEXT();                                                             \
      }                                                                        \
    }                                                                          \
    SYNC();                                                                    \
    NumResult R = numSub(H, A, B);                                             \
    if (!R.Ok)                                                                 \
      VMERROR("-: expected numbers");                                          \
    Slots[Sp - 2] = R.V;                                                       \
    --Sp;                                                                      \
    Pc += (ADV);                                                               \
    VM_NEXT();                                                                 \
  }

#define VM_PRIM_MUL(ADV)                                                       \
  {                                                                            \
    Value A = Slots[Sp - 2], B = Slots[Sp - 1];                                \
    SYNC();                                                                    \
    NumResult R = numMul(H, A, B);                                             \
    if (!R.Ok)                                                                 \
      VMERROR("*: expected numbers");                                          \
    Slots[Sp - 2] = R.V;                                                       \
    --Sp;                                                                      \
    Pc += (ADV);                                                               \
    VM_NEXT();                                                                 \
  }

#define VM_PRIM_CMP(OPV, ADV)                                                  \
  {                                                                            \
    Value A = Slots[Sp - 2], B = Slots[Sp - 1];                                \
    int Cmp;                                                                   \
    if (!numCompare(A, B, Cmp))                                                \
      VMERROR("comparison: expected numbers");                                 \
    bool R = false;                                                            \
    /* CmpUnordered (NaN) is false under every operator; the sign tests  */    \
    /* below would wrongly satisfy > and >= for the sentinel.            */    \
    if (Cmp != CmpUnordered) {                                                 \
      switch (OPV) {                                                           \
      case Op::NumLt:                                                          \
        R = Cmp < 0;                                                           \
        break;                                                                 \
      case Op::NumLe:                                                          \
        R = Cmp <= 0;                                                          \
        break;                                                                 \
      case Op::NumGt:                                                          \
        R = Cmp > 0;                                                           \
        break;                                                                 \
      case Op::NumGe:                                                          \
        R = Cmp >= 0;                                                          \
        break;                                                                 \
      default:                                                                 \
        R = Cmp == 0;                                                          \
        break;                                                                 \
      }                                                                        \
    }                                                                          \
    Slots[Sp - 2] = Value::boolean(R);                                         \
    --Sp;                                                                      \
    Pc += (ADV);                                                               \
    VM_NEXT();                                                                 \
  }

#define VM_PRIM_CONS(ADV)                                                      \
  {                                                                            \
    SYNC();                                                                    \
    Value P = H.makePair(Slots[Sp - 2], Slots[Sp - 1]);                        \
    Slots[Sp - 2] = P;                                                         \
    --Sp;                                                                      \
    Pc += (ADV);                                                               \
    VM_NEXT();                                                                 \
  }

#define VM_PRIM_CAR(ADV)                                                       \
  {                                                                            \
    Value P = Slots[Sp - 1];                                                   \
    if (!P.isPair())                                                           \
      VMERROR("car: expected pair, got " + writeToString(P));                  \
    Slots[Sp - 1] = asPair(P)->Car;                                            \
    Pc += (ADV);                                                               \
    VM_NEXT();                                                                 \
  }

#define VM_PRIM_CDR(ADV)                                                       \
  {                                                                            \
    Value P = Slots[Sp - 1];                                                   \
    if (!P.isPair())                                                           \
      VMERROR("cdr: expected pair, got " + writeToString(P));                  \
    Slots[Sp - 1] = asPair(P)->Cdr;                                            \
    Pc += (ADV);                                                               \
    VM_NEXT();                                                                 \
  }

#define VM_PRIM_NULLP(ADV)                                                     \
  {                                                                            \
    Slots[Sp - 1] = Value::boolean(Slots[Sp - 1].isNil());                     \
    Pc += (ADV);                                                               \
    VM_NEXT();                                                                 \
  }

#define VM_PRIM_PAIRP(ADV)                                                     \
  {                                                                            \
    Slots[Sp - 1] = Value::boolean(Slots[Sp - 1].isPair());                    \
    Pc += (ADV);                                                               \
    VM_NEXT();                                                                 \
  }

#define VM_PRIM_NOT(ADV)                                                       \
  {                                                                            \
    Slots[Sp - 1] = Value::boolean(Slots[Sp - 1].isFalse());                   \
    Pc += (ADV);                                                               \
    VM_NEXT();                                                                 \
  }

#define VM_PRIM_EQP(ADV)                                                       \
  {                                                                            \
    Value B = Slots[--Sp];                                                     \
    Slots[Sp - 1] = Value::boolean(Slots[Sp - 1] == B);                        \
    Pc += (ADV);                                                               \
    VM_NEXT();                                                                 \
  }

#define VM_PRIM_ZEROP(ADV)                                                     \
  {                                                                            \
    Value A = Slots[Sp - 1];                                                   \
    if (A.isFixnum())                                                          \
      Slots[Sp - 1] = Value::boolean(A.asFixnum() == 0);                       \
    else if (A.isFlonum())                                                     \
      Slots[Sp - 1] = Value::boolean(asFlonum(A)->Val == 0.0);                 \
    else                                                                       \
      VMERROR("zero?: expected number");                                       \
    Pc += (ADV);                                                               \
    VM_NEXT();                                                                 \
  }

#define VM_PRIM_INCDEC(D, ADV)                                                 \
  {                                                                            \
    Value A = Slots[Sp - 1];                                                   \
    if (A.isFixnum() && fitsFixnum(A.asFixnum() + (D))) {                      \
      Slots[Sp - 1] = Value::fixnum(A.asFixnum() + (D));                       \
    } else if (A.isFlonum()) {                                                 \
      SYNC();                                                                  \
      Slots[Sp - 1] = H.makeFlonum(asFlonum(A)->Val + (D));                    \
    } else {                                                                   \
      VMERROR("add1/sub1: expected number");                                   \
    }                                                                          \
    Pc += (ADV);                                                               \
    VM_NEXT();                                                                 \
  }

  // One entry per opcode, in exact Op enum order.
  static const void *const DispatchTable[] = {
      &&L_PushConst,     &&L_PushLocal,     &&L_SetLocal,
      &&L_PushLocalBox,  &&L_SetLocalBox,   &&L_PushFree,
      &&L_PushFreeBox,   &&L_SetFreeBox,    &&L_BoxLocal,
      &&L_PushGlobal,    &&L_SetGlobal,     &&L_DefineGlobal,
      &&L_Pop,           &&L_MakeClosure,
      &&L_Jump,          &&L_JumpIfFalse,   &&L_Frame,
      &&L_Call,          &&L_TailCall,      &&L_CallAttach,
      &&L_Return,        &&L_Reify,         &&L_AttachSet,
      &&L_AttachGet,     &&L_AttachConsume, &&L_MarksPush,
      &&L_MarksPop,      &&L_MarksSetTop,   &&L_MarksTop,
      &&L_MstkSet,       &&L_MstkPush,
      &&L_MstkPop,       &&L_Add,           &&L_Sub,
      &&L_Mul,           &&L_NumLt,         &&L_NumLe,
      &&L_NumGt,         &&L_NumGe,         &&L_NumEq,
      &&L_Cons,          &&L_Car,           &&L_Cdr,
      &&L_SetCarBang,    &&L_SetCdrBang,    &&L_NullP,
      &&L_PairP,         &&L_Not,           &&L_EqP,
      &&L_ZeroP,         &&L_Add1,          &&L_Sub1,
      &&L_VectorRef,     &&L_VectorSet,     &&L_Halt,
      &&L_LocalLocal,    &&L_LocalConst,    &&L_AddLocalConst,
      &&L_SubLocalConst, &&L_LocalPrim,     &&L_ConstCall,
      &&L_JumpIfNotZeroLocal, &&L_MarksEnterElided, &&L_MarksExitElided,
  };
  static_assert(sizeof(DispatchTable) / sizeof(void *) ==
                    static_cast<size_t>(Op::OpCount),
                "dispatch table must cover every opcode");
  VM_NEXT();

  VM_CASE(PushConst) {
    Slots[Sp++] = Consts[readU16(Ins + Pc + 1)];
    Pc += 3;
    VM_NEXT();
  }
  VM_CASE(PushLocal) {
    Slots[Sp++] = Slots[Fp + FrameHeaderSlots + readU16(Ins + Pc + 1)];
    Pc += 3;
    VM_NEXT();
  }
  VM_CASE(SetLocal) {
    Slots[Fp + FrameHeaderSlots + readU16(Ins + Pc + 1)] = Slots[--Sp];
    Pc += 3;
    VM_NEXT();
  }
  VM_CASE(PushLocalBox) {
    Value B = Slots[Fp + FrameHeaderSlots + readU16(Ins + Pc + 1)];
    Slots[Sp++] = asBox(B)->Val;
    Pc += 3;
    VM_NEXT();
  }
  VM_CASE(SetLocalBox) {
    Value B = Slots[Fp + FrameHeaderSlots + readU16(Ins + Pc + 1)];
    asBox(B)->Val = Slots[--Sp];
    Pc += 3;
    VM_NEXT();
  }
  VM_CASE(PushFree) {
    ClosureObj *C = asClosure(Slots[Fp + 3]);
    Slots[Sp++] = C->Free[readU16(Ins + Pc + 1)];
    Pc += 3;
    VM_NEXT();
  }
  VM_CASE(PushFreeBox) {
    ClosureObj *C = asClosure(Slots[Fp + 3]);
    Slots[Sp++] = asBox(C->Free[readU16(Ins + Pc + 1)])->Val;
    Pc += 3;
    VM_NEXT();
  }
  VM_CASE(SetFreeBox) {
    ClosureObj *C = asClosure(Slots[Fp + 3]);
    asBox(C->Free[readU16(Ins + Pc + 1)])->Val = Slots[--Sp];
    Pc += 3;
    VM_NEXT();
  }
  VM_CASE(BoxLocal) {
    uint32_t Slot = Fp + FrameHeaderSlots + readU16(Ins + Pc + 1);
    SYNC();
    Value B = H.makeBox(Slots[Slot]);
    Slots[Slot] = B;
    Pc += 3;
    VM_NEXT();
  }
  VM_CASE(PushGlobal) {
    Pair *Cell = asPair(Consts[readU16(Ins + Pc + 1)]);
    if (Cell->Car.isUndefined())
      VMERROR("unbound variable: " + displayToString(Cell->Cdr));
    Slots[Sp++] = Cell->Car;
    Pc += 3;
    VM_NEXT();
  }
  VM_CASE(SetGlobal)
  VM_CASE(DefineGlobal) {
    asPair(Consts[readU16(Ins + Pc + 1)])->Car = Slots[--Sp];
    Pc += 3;
    VM_NEXT();
  }
  VM_CASE(Pop) {
    --Sp;
    ++Pc;
    VM_NEXT();
  }
  VM_CASE(MakeClosure) {
    Value Code = Consts[readU16(Ins + Pc + 1)];
    uint32_t NFree = readU16(Ins + Pc + 3);
    SYNC();
    Value Clos = H.makeClosure(Code, NFree);
    ClosureObj *C = asClosure(Clos);
    for (uint32_t I = 0; I < NFree; ++I)
      C->Free[I] = Slots[Sp - NFree + I];
    Sp -= NFree;
    Slots[Sp++] = Clos;
    Pc += 5;
    VM_NEXT();
  }
  VM_CASE(Jump) {
    uint32_t T = readU32(Ins + Pc + 1);
    if (__builtin_expect(T <= Pc, 0))
      VM_SAFEPOINT();
    Pc = T;
    VM_NEXT();
  }
  VM_CASE(JumpIfFalse) {
    Value V = Slots[--Sp];
    if (V.isFalse()) {
      uint32_t T = readU32(Ins + Pc + 1);
      if (__builtin_expect(T <= Pc, 0))
        VM_SAFEPOINT();
      Pc = T;
    } else {
      Pc += 5;
    }
    VM_NEXT();
  }
  VM_CASE(Frame) {
    Slots[Sp] = Value::undefined();
    Slots[Sp + 1] = Value::undefined();
    Slots[Sp + 2] = Value::undefined();
    Sp += 3;
    ++Pc;
    VM_NEXT();
  }

  VM_CASE(Call) {
    VM_SAFEPOINT();
    NArgs = readU16(Ins + Pc + 1);
    Pc += 3;
    goto DoCall;
  }
  VM_CASE(CallAttach) {
    VM_SAFEPOINT();
    NArgs = readU16(Ins + Pc + 1);
    Pc += 3;
    uint32_t Hdr = Sp - NArgs - FrameHeaderSlots;
    SYNC();
    preReifyForAttachCall(Hdr);
    Slots = asStackSeg(Regs.Seg)->Slots;
    goto DoCall;
  }
  VM_CASE(ConstCall) {
    VM_SAFEPOINT();
    Slots[Sp++] = Consts[readU16(Ins + Pc + 1)];
    NArgs = readU16(Ins + Pc + 3);
    Pc += 5;
    goto DoCall;
  }
DoCall : {
  uint32_t Hdr = Sp - NArgs - FrameHeaderSlots;
  Value Fn = Slots[Hdr + 3];

  // Fast path: a fitting closure call.
  if (Fn.isClosure()) {
    CodeObj *Code = asCode(asClosure(Fn)->Code);
    if (!(Code->Flags & codeflags::HasRestArg) && NArgs == Code->NumArgs &&
        !Cfg.HeapFrameMode &&
        Hdr + Code->FrameSize <= asStackSeg(Regs.Seg)->Capacity &&
        !forcedOverflow()) {
      if (!Slots[Hdr + 1].isUnderflowSentinel()) {
        Slots[Hdr + 0] = Value::fixnum(Fp);
        Slots[Hdr + 1] = Regs.CurCode;
        Slots[Hdr + 2] = Value::fixnum(Pc);
      }
      Fp = Hdr;
      for (uint32_t I = Code->NumArgs; I < Code->NumLocals; ++I)
        Slots[Fp + FrameHeaderSlots + I] = Value::undefined();
      Sp = Fp + FrameHeaderSlots + Code->NumLocals;
      Regs.CurCode = asClosure(Fn)->Code;
      Pc = 0;
      CC = asCode(Regs.CurCode);
      Ins = CC->instrs();
      Consts = CC->consts();
      VM_NEXT();
    }
  }

  // Fast path: a fitting native call. Its frame is logically popped while
  // it runs; a plain value returned away from a stack base is pushed here,
  // and every other outcome goes through finishNativeCall.
  Dispatch D;
  if (Fn.isNative() && arityFits(asNative(Fn), NArgs)) {
    Regs.Pc = Pc;
    Regs.Fp = Fp;
    Regs.Sp = Hdr;
    NativeJumped = false;
    Value Res = asNative(Fn)->Fn(*this, Slots + Hdr + FrameHeaderSlots, NArgs);
    if (!Failed && !PendingCall && !NativeJumped && Regs.Sp != Regs.Base) {
      RELOAD();
      Slots[Sp++] = Res;
      VM_NEXT();
    }
    D = finishNativeCall(Res);
  } else {
    SYNC();
    D = dispatchSlowCall(Hdr, NArgs);
  }
  if (Failed)
    return Value::undefined();
  if (D == Dispatch::Halt) {
    if (__builtin_expect(H.hasPendingTrip(), 0))
      goto DeliverExitTrip;
    return slot(Regs.Sp - 1);
  }
  RELOAD();
  VM_NEXT();
}

  VM_CASE(TailCall) {
    VM_SAFEPOINT();
    uint32_t TN = readU16(Ins + Pc + 1);
    uint32_t FnBase = Sp - TN - 1;
    // Move callee + args into the current frame (footnote 2: tail calls
    // reuse the caller's frame).
    for (uint32_t I = 0; I <= TN; ++I)
      Slots[Fp + 3 + I] = Slots[FnBase + I];
    Sp = Fp + FrameHeaderSlots + TN;
    Value Fn = Slots[Fp + 3];

    if (Fn.isClosure()) {
      CodeObj *Code = asCode(asClosure(Fn)->Code);
      if (!(Code->Flags & codeflags::HasRestArg) && TN == Code->NumArgs &&
          Fp + Code->FrameSize <= asStackSeg(Regs.Seg)->Capacity &&
          !forcedOverflow()) {
        for (uint32_t I = Code->NumArgs; I < Code->NumLocals; ++I)
          Slots[Fp + FrameHeaderSlots + I] = Value::undefined();
        Sp = Fp + FrameHeaderSlots + Code->NumLocals;
        Regs.CurCode = asClosure(Fn)->Code;
        Pc = 0;
        CC = asCode(Regs.CurCode);
        Ins = CC->instrs();
        Consts = CC->consts();
        VM_NEXT();
      }
    }

    SYNC();
    Dispatch D = dispatchSlowTail(TN);
    if (Failed)
      return Value::undefined();
    if (D == Dispatch::Halt) {
      if (__builtin_expect(H.hasPendingTrip(), 0))
        goto DeliverExitTrip;
      return slot(Regs.Sp - 1);
    }
    RELOAD();
    VM_NEXT();
  }

  VM_CASE(Return) {
    Value Result = Slots[Sp - 1];
    if (Cfg.MarkStackMode) {
      while (!MarkStack.empty() && MarkStack.back().Seg == Regs.Seg &&
             MarkStack.back().Fp >= Fp)
        MarkStack.pop_back();
    }
    Value RetCode = Slots[Fp + 1];
    if (RetCode.isUnderflowSentinel()) {
      Regs.Sp = Fp; // Discard the dead frame before underflow.
      Regs.Fp = Fp;
      Regs.Pc = Pc;
      if (!underflow(Result)) {
        if (__builtin_expect(H.hasPendingTrip(), 0))
          goto DeliverExitTrip;
        return slot(Regs.Sp - 1);
      }
      RELOAD();
      VM_NEXT();
    }
    uint32_t CallerFp = static_cast<uint32_t>(Slots[Fp + 0].asFixnum());
    uint32_t NewSp = Fp;
    Slots[NewSp++] = Result;
    Sp = NewSp;
    Pc = static_cast<uint32_t>(Slots[Fp + 2].asFixnum());
    Fp = CallerFp;
    Regs.CurCode = RetCode;
    CC = asCode(RetCode);
    Ins = CC->instrs();
    Consts = CC->consts();
    VM_NEXT();
  }

  // --- Continuation attachments (paper 7.1/7.2) --------------------------
  VM_CASE(Reify) {
    SYNC();
    reifyCurrentFrame();
    ++Pc;
    VM_NEXT();
  }
  VM_CASE(AttachSet) {
    SYNC();
    CMK_TRACE_EV(Trace, AttachSet);
    Value V = Slots[Sp - 1];
    Regs.Marks = H.makePair(V, asCont(Regs.NextK)->Marks);
    --Sp;
    ++Pc;
    VM_NEXT();
  }
  VM_CASE(AttachGet) {
    if (frameHasAttachment(Slots, Fp))
      Slots[Sp - 1] = car(Regs.Marks);
    ++Pc;
    VM_NEXT();
  }
  VM_CASE(AttachConsume) {
    if (frameHasAttachment(Slots, Fp)) {
      Slots[Sp - 1] = car(Regs.Marks);
      CMK_TRACE_EV(Trace, AttachConsume);
      Regs.Marks = recordMarks();
    }
    ++Pc;
    VM_NEXT();
  }
  VM_CASE(MarksPush) {
    SYNC();
    CMK_TRACE_EV(Trace, MarksPush);
    Regs.Marks = H.makePair(Slots[Sp - 1], Regs.Marks);
    --Sp;
    ++Pc;
    VM_NEXT();
  }
  VM_CASE(MarksPop) {
    CMK_TRACE_EV(Trace, MarksPop);
    Regs.Marks = cdr(Regs.Marks);
    ++Pc;
    VM_NEXT();
  }
  VM_CASE(MarksSetTop) {
    SYNC();
    Regs.Marks = H.makePair(Slots[Sp - 1], cdr(Regs.Marks));
    --Sp;
    ++Pc;
    VM_NEXT();
  }
  VM_CASE(MarksTop) {
    Slots[Sp++] = car(Regs.Marks);
    ++Pc;
    VM_NEXT();
  }

  // --- Old-Racket-style mark stack ----------------------------------------
  VM_CASE(MstkSet) {
    Value Val = Slots[--Sp];
    Value Key = Slots[--Sp];
    bool Replaced = false;
    for (size_t I = MarkStack.size(); I > 0; --I) {
      MarkStackEntry &E = MarkStack[I - 1];
      if (!(E.Seg == Regs.Seg) || E.Fp != Fp)
        break;
      if (E.Key == Key) {
        E.Val = Val;
        Replaced = true;
        break;
      }
    }
    if (!Replaced)
      MarkStack.push_back({Regs.Seg, Fp, Key, Val});
    ++Pc;
    VM_NEXT();
  }
  VM_CASE(MstkPush) {
    Value Val = Slots[--Sp];
    Value Key = Slots[--Sp];
    MarkStack.push_back({Regs.Seg, Fp, Key, Val});
    ++Pc;
    VM_NEXT();
  }
  VM_CASE(MstkPop) {
    MarkStack.pop_back();
    ++Pc;
    VM_NEXT();
  }

  // --- Inlined primitives -------------------------------------------------
  VM_CASE(Add) VM_PRIM_ADD(1)
  VM_CASE(Sub) VM_PRIM_SUB(1)
  VM_CASE(Mul) VM_PRIM_MUL(1)
  VM_CASE(NumLt) VM_PRIM_CMP(Op::NumLt, 1)
  VM_CASE(NumLe) VM_PRIM_CMP(Op::NumLe, 1)
  VM_CASE(NumGt) VM_PRIM_CMP(Op::NumGt, 1)
  VM_CASE(NumGe) VM_PRIM_CMP(Op::NumGe, 1)
  VM_CASE(NumEq) VM_PRIM_CMP(Op::NumEq, 1)
  VM_CASE(Cons) VM_PRIM_CONS(1)
  VM_CASE(Car) VM_PRIM_CAR(1)
  VM_CASE(Cdr) VM_PRIM_CDR(1)
  VM_CASE(SetCarBang) {
    Value V = Slots[--Sp];
    Value P = Slots[Sp - 1];
    if (!P.isPair())
      VMERROR("set-car!: expected pair");
    asPair(P)->Car = V;
    Slots[Sp - 1] = Value::voidValue();
    ++Pc;
    VM_NEXT();
  }
  VM_CASE(SetCdrBang) {
    Value V = Slots[--Sp];
    Value P = Slots[Sp - 1];
    if (!P.isPair())
      VMERROR("set-cdr!: expected pair");
    asPair(P)->Cdr = V;
    Slots[Sp - 1] = Value::voidValue();
    ++Pc;
    VM_NEXT();
  }
  VM_CASE(NullP) VM_PRIM_NULLP(1)
  VM_CASE(PairP) VM_PRIM_PAIRP(1)
  VM_CASE(Not) VM_PRIM_NOT(1)
  VM_CASE(EqP) VM_PRIM_EQP(1)
  VM_CASE(ZeroP) VM_PRIM_ZEROP(1)
  VM_CASE(Add1) VM_PRIM_INCDEC(1, 1)
  VM_CASE(Sub1) VM_PRIM_INCDEC(-1, 1)
  VM_CASE(VectorRef) {
    Value Idx = Slots[--Sp];
    Value Vec = Slots[Sp - 1];
    if (!Vec.isVector() || !Idx.isFixnum())
      VMERROR("vector-ref: expected vector and index");
    VectorObj *V = asVector(Vec);
    int64_t I = Idx.asFixnum();
    if (I < 0 || I >= V->Len)
      VMERROR("vector-ref: index out of range");
    Slots[Sp - 1] = V->Elems[I];
    ++Pc;
    VM_NEXT();
  }
  VM_CASE(VectorSet) {
    Value Val = Slots[--Sp];
    Value Idx = Slots[--Sp];
    Value Vec = Slots[Sp - 1];
    if (!Vec.isVector() || !Idx.isFixnum())
      VMERROR("vector-set!: expected vector and index");
    VectorObj *V = asVector(Vec);
    int64_t I = Idx.asFixnum();
    if (I < 0 || I >= V->Len)
      VMERROR("vector-set!: index out of range");
    V->Elems[I] = Val;
    Slots[Sp - 1] = Value::voidValue();
    ++Pc;
    VM_NEXT();
  }

  VM_CASE(Halt) {
    SYNC();
    if (__builtin_expect(H.hasPendingTrip(), 0))
      goto DeliverExitTrip;
    return Slots[Sp - 1];
  }

  // --- Superinstructions (compiler/peephole.cpp) ---------------------------
  VM_CASE(LocalLocal) {
    Slots[Sp] = Slots[Fp + FrameHeaderSlots + readU16(Ins + Pc + 1)];
    Slots[Sp + 1] = Slots[Fp + FrameHeaderSlots + readU16(Ins + Pc + 3)];
    Sp += 2;
    Pc += 5;
    VM_NEXT();
  }
  VM_CASE(LocalConst) {
    Slots[Sp] = Slots[Fp + FrameHeaderSlots + readU16(Ins + Pc + 1)];
    Slots[Sp + 1] = Consts[readU16(Ins + Pc + 3)];
    Sp += 2;
    Pc += 5;
    VM_NEXT();
  }
  VM_CASE(AddLocalConst) {
    Value A = Slots[Fp + FrameHeaderSlots + readU16(Ins + Pc + 1)];
    Value B = Consts[readU16(Ins + Pc + 3)];
    if (A.isFixnum() && B.isFixnum()) {
      int64_t R;
      if (!__builtin_add_overflow(A.asFixnum(), B.asFixnum(), &R) &&
          fitsFixnum(R)) {
        Slots[Sp++] = Value::fixnum(R);
        Pc += 5;
        VM_NEXT();
      }
    }
    SYNC();
    NumResult R = numAdd(H, A, B);
    if (!R.Ok)
      VMERROR("+: expected numbers");
    Slots[Sp++] = R.V;
    Pc += 5;
    VM_NEXT();
  }
  VM_CASE(SubLocalConst) {
    Value A = Slots[Fp + FrameHeaderSlots + readU16(Ins + Pc + 1)];
    Value B = Consts[readU16(Ins + Pc + 3)];
    if (A.isFixnum() && B.isFixnum()) {
      int64_t R;
      if (!__builtin_sub_overflow(A.asFixnum(), B.asFixnum(), &R) &&
          fitsFixnum(R)) {
        Slots[Sp++] = Value::fixnum(R);
        Pc += 5;
        VM_NEXT();
      }
    }
    SYNC();
    NumResult R = numSub(H, A, B);
    if (!R.Ok)
      VMERROR("-: expected numbers");
    Slots[Sp++] = R.V;
    Pc += 5;
    VM_NEXT();
  }
  VM_CASE(LocalPrim) {
    Slots[Sp++] = Slots[Fp + FrameHeaderSlots + readU16(Ins + Pc + 1)];
    switch (static_cast<Op>(Ins[Pc + 3])) {
    case Op::Add:
      VM_PRIM_ADD(4)
    case Op::Sub:
      VM_PRIM_SUB(4)
    case Op::Mul:
      VM_PRIM_MUL(4)
    case Op::NumLt:
      VM_PRIM_CMP(Op::NumLt, 4)
    case Op::NumLe:
      VM_PRIM_CMP(Op::NumLe, 4)
    case Op::NumGt:
      VM_PRIM_CMP(Op::NumGt, 4)
    case Op::NumGe:
      VM_PRIM_CMP(Op::NumGe, 4)
    case Op::NumEq:
      VM_PRIM_CMP(Op::NumEq, 4)
    case Op::Cons:
      VM_PRIM_CONS(4)
    case Op::Car:
      VM_PRIM_CAR(4)
    case Op::Cdr:
      VM_PRIM_CDR(4)
    case Op::NullP:
      VM_PRIM_NULLP(4)
    case Op::PairP:
      VM_PRIM_PAIRP(4)
    case Op::Not:
      VM_PRIM_NOT(4)
    case Op::EqP:
      VM_PRIM_EQP(4)
    case Op::ZeroP:
      VM_PRIM_ZEROP(4)
    case Op::Add1:
      VM_PRIM_INCDEC(1, 4)
    case Op::Sub1:
      VM_PRIM_INCDEC(-1, 4)
    default:
      VMERROR("push-local-prim: corrupt embedded opcode");
    }
  }
  VM_CASE(JumpIfNotZeroLocal) {
    Value A = Slots[Fp + FrameHeaderSlots + readU16(Ins + Pc + 1)];
    bool IsZero;
    if (A.isFixnum())
      IsZero = A.asFixnum() == 0;
    else if (A.isFlonum())
      IsZero = asFlonum(A)->Val == 0.0;
    else
      VMERROR("zero?: expected number");
    if (IsZero) {
      Pc += 7;
    } else {
      uint32_t T = readU32(Ins + Pc + 3);
      if (__builtin_expect(T <= Pc, 0))
        VM_SAFEPOINT();
      Pc = T;
    }
    VM_NEXT();
  }
  VM_CASE(MarksEnterElided) {
    // A MarksPush whose extent provably cannot observe the mark (no call,
    // jump, capture, or attachment operation before the matching pop):
    // the cons is elided, the value discarded. The trace event survives so
    // traced programs see identical MarksPush/MarksPop sequences.
    CMK_TRACE_EV(Trace, MarksPush);
    --Sp;
    ++Pc;
    VM_NEXT();
  }
  VM_CASE(MarksExitElided) {
    CMK_TRACE_EV(Trace, MarksPop);
    ++Pc;
    VM_NEXT();
  }

  // Reached (by goto only) when a run completed while a budget trip was
  // still pending — e.g. the final allocation tripped the heap budget and
  // no safe-point site ran before the continuation chain emptied. Regs
  // are authoritative here. Deliver the trip instead of the final value,
  // exactly as the old per-instruction poll would have.
DeliverExitTrip : {
  TripKind Trip = pollSafePoint();
  if (Trip == TripKind::None)
    return slot(Regs.Sp - 1);
  if (!injectLimitRaise(Trip)) {
    raiseErrorKind(errorKindOf(Trip), tripMessage(Trip));
    return Value::undefined();
  }
  if (Failed)
    return Value::undefined();
  RELOAD();
  VM_NEXT();
}

  CMK_UNREACHABLE("fell out of the threaded dispatch chain");

#undef SYNC
#undef RELOAD
#undef VMERROR
#undef VM_CASE
#undef VM_NEXT
#undef VM_SAFEPOINT
#undef VM_PRIM_ADD
#undef VM_PRIM_SUB
#undef VM_PRIM_MUL
#undef VM_PRIM_CMP
#undef VM_PRIM_CONS
#undef VM_PRIM_CAR
#undef VM_PRIM_CDR
#undef VM_PRIM_NULLP
#undef VM_PRIM_PAIRP
#undef VM_PRIM_NOT
#undef VM_PRIM_EQP
#undef VM_PRIM_ZEROP
#undef VM_PRIM_INCDEC
}

// -----------------------------------------------------------------------------
// Out-of-line call dispatch: natives, continuations, parameters, overflow.
// -----------------------------------------------------------------------------

void VM::preReifyForAttachCall(uint32_t Hdr) {
  CMK_CHECK(Regs.Marks.isPair(), "CallAttach requires a pending mark");
  CMK_CHECK(Hdr > Regs.Base,
            "CallAttach frames sit above the executing frame");
  uint32_t SavedSp = Regs.Sp;
  Value RecMarks = cdr(Regs.Marks);
  Regs.Sp = Hdr;
  ++Stats.ReifyForAttachCall;
  CMK_TRACE_EV(Trace, AttachCallReify);
  Value KV = reifyAtSp(ContShot::Opportunistic);
  // Paper 7.2: installing (rest marks) instead of marks communicates to
  // the called function that an attachment is present and pops it on
  // return.
  asCont(KV)->Marks = RecMarks;
  Regs.Sp = SavedSp;
  Value *Slots = asStackSeg(Regs.Seg)->Slots;
  Slots[Hdr + 0] = Value::fixnum(0);
  Slots[Hdr + 1] = Value::underflowSentinel();
  Slots[Hdr + 2] = Value::fixnum(0);
}

/// Finishes a return of \p Res from the current frame (used when a native
/// in tail position produced a plain value).
static VM::Dispatch returnFromFrame(VM &M, Value Res) {
  if (M.config().MarkStackMode) {
    while (!M.MarkStack.empty() && M.MarkStack.back().Seg == M.Regs.Seg &&
           M.MarkStack.back().Fp >= M.Regs.Fp)
      M.MarkStack.pop_back();
  }
  Value *Slots = asStackSeg(M.Regs.Seg)->Slots;
  uint32_t Fp = M.Regs.Fp;
  Value RetCode = Slots[Fp + 1];
  if (RetCode.isUnderflowSentinel()) {
    M.Regs.Sp = Fp;
    return M.underflow(Res) ? VM::Dispatch::Done : VM::Dispatch::Halt;
  }
  uint32_t CallerFp = static_cast<uint32_t>(Slots[Fp + 0].asFixnum());
  uint32_t RetPc = static_cast<uint32_t>(Slots[Fp + 2].asFixnum());
  M.Regs.Sp = Fp;
  Slots[M.Regs.Sp++] = Res;
  M.Regs.Fp = CallerFp;
  M.Regs.CurCode = RetCode;
  M.Regs.Pc = RetPc;
  return VM::Dispatch::Done;
}

/// Pushes a value at the resume point after a native call (or routes it
/// through the underflow chain when the native reified at the call).
static VM::Dispatch deliverNativeResult(VM &M, Value Res) {
  if (M.Regs.Sp == M.Regs.Base)
    return M.underflow(Res) ? VM::Dispatch::Done : VM::Dispatch::Halt;
  asStackSeg(M.Regs.Seg)->Slots[M.Regs.Sp++] = Res;
  return VM::Dispatch::Done;
}

/// Builds a frame for a pending (scheduled) call at the current stack top.
/// Returns the header index. Splits to a fresh segment when the header and
/// arguments would not fit.
static uint32_t buildPendingFrame(VM &M) {
  uint32_t NArgs = static_cast<uint32_t>(M.PendingArgs.size());
  uint32_t Need = FrameHeaderSlots + NArgs + 64;
  if (M.Regs.Sp + Need > asStackSeg(M.Regs.Seg)->Capacity) {
    M.reifyAtSp(ContShot::Opportunistic); // A no-op at the stack base.
    M.moveToFreshSegment(Need);
  }
  uint32_t Hdr = M.Regs.Sp;
  Value *Slots = asStackSeg(M.Regs.Seg)->Slots;
  if (Hdr == M.Regs.Base) {
    Slots[Hdr + 0] = Value::fixnum(0);
    Slots[Hdr + 1] = Value::underflowSentinel();
    Slots[Hdr + 2] = Value::fixnum(0);
  } else {
    Slots[Hdr + 0] = Value::fixnum(M.Regs.Fp);
    Slots[Hdr + 1] = M.Regs.CurCode;
    Slots[Hdr + 2] = Value::fixnum(M.Regs.Pc);
  }
  Slots[Hdr + 3] = M.PendingFn;
  for (uint32_t I = 0; I < NArgs; ++I)
    Slots[Hdr + FrameHeaderSlots + I] = M.PendingArgs[I];
  M.Regs.Sp = Hdr + FrameHeaderSlots + NArgs;
  return Hdr;
}

bool VM::injectLimitRaise(TripKind Trip) {
  // #%limit-raise is the prelude's contract with the VM: it raises a
  // catchable limit exception (running dynamic-wind after-thunks on the
  // way to the handler) and never returns normally — a normal return
  // would push a stray value onto the interrupted expression stack.
  Value Fn = getGlobal("#%limit-raise");
  if (!Fn.isClosure())
    return false;
  // PendingFn/PendingArgs are GC roots, so building the second argument
  // cannot lose the first.
  PendingFn = Fn;
  PendingArgs.clear();
  PendingArgs.push_back(H.intern(tripKindName(Trip)));
  PendingArgs.push_back(H.makeString(tripMessage(Trip)));
  uint32_t Hdr = buildPendingFrame(*this);
  // A closure call only sets up registers; it cannot halt the run here.
  dispatchSlowCall(Hdr, static_cast<uint32_t>(PendingArgs.size()));
  return true;
}

bool VM::deliverTripFromNative() {
  // Cheap pre-check so an innocent poll does not disturb the fuel
  // schedule or the SafePointPolls counter (both CI-gated): only consume
  // a poll when something is actually pending.
  bool Pending =
      (AsyncSignals.load(std::memory_order_relaxed) & SigInterrupt) != 0 ||
      H.hasPendingTrip() ||
      (DeadlineArmed && std::chrono::steady_clock::now() >= Deadline);
  if (!Pending)
    return false;
  TripKind Trip = pollSafePoint();
  if (Trip == TripKind::None)
    return false;
  Value Fn = getGlobal("#%limit-raise");
  if (Fn.isClosure()) {
    // The symbol is immortal (interned), so makeString cannot lose it.
    Value A[2] = {H.intern(tripKindName(Trip)), Value::undefined()};
    A[1] = H.makeString(tripMessage(Trip));
    scheduleTailCall(Fn, A, 2);
  } else {
    raiseErrorKind(errorKindOf(Trip), tripMessage(Trip));
  }
  return true;
}

VM::Dispatch VM::finishNativeCall(Value Res) {
  if (Failed)
    return Dispatch::Done;
  if (PendingCall) {
    PendingCall = false;
    uint32_t Hdr = buildPendingFrame(*this);
    return dispatchSlowCall(Hdr, static_cast<uint32_t>(PendingArgs.size()));
  }
  if (NativeJumped)
    return Dispatch::Done; // applyContinuation placed the result.
  return deliverNativeResult(*this, Res);
}

VM::Dispatch VM::dispatchSlowCall(uint32_t Hdr, uint32_t NArgs) {
  for (;;) {
    Value *Slots = asStackSeg(Regs.Seg)->Slots;
    Value Fn = Slots[Hdr + 3];

    if (Fn.isClosure()) {
      CodeObj *Code = asCode(asClosure(Fn)->Code);
      if (!bindArgs(*this, Fn, Hdr + FrameHeaderSlots, NArgs))
        return Dispatch::Done;
      Slots = asStackSeg(Regs.Seg)->Slots;
      Regs.Sp = Hdr + FrameHeaderSlots + Code->NumArgs;
      bool Overflow =
          Cfg.HeapFrameMode ||
          Hdr + Code->FrameSize > asStackSeg(Regs.Seg)->Capacity;
      if (ForceOverflowOnce) {
        // Overflow fault site: the frame fits, but take the mid-frame
        // overflow machinery anyway (semantics-preserving).
        ForceOverflowOnce = false;
        Overflow = true;
      }
      if (Overflow) {
        // Split below the pending frame, then move it alone to a fresh
        // segment. A frame already at the stack base (a pre-reified
        // CallAttach or a scheduled call) has nothing below it to split.
        uint32_t Top = Regs.Sp;
        Regs.Sp = Hdr;
        reifyAtSp(ContShot::Opportunistic);
        Regs.Sp = Top;
        moveToFreshSegment(Code->FrameSize);
        Hdr = 0;
        Slots = asStackSeg(Regs.Seg)->Slots;
        Slots[Hdr + 0] = Value::fixnum(0);
        Slots[Hdr + 1] = Value::underflowSentinel();
        Slots[Hdr + 2] = Value::fixnum(0);
      } else if (!Slots[Hdr + 1].isUnderflowSentinel()) {
        Slots[Hdr + 0] = Value::fixnum(Regs.Fp);
        Slots[Hdr + 1] = Regs.CurCode;
        Slots[Hdr + 2] = Value::fixnum(Regs.Pc);
      }
      Regs.Fp = Hdr;
      for (uint32_t I = Code->NumArgs; I < Code->NumLocals; ++I)
        Slots[Regs.Fp + FrameHeaderSlots + I] = Value::undefined();
      Regs.Sp = Regs.Fp + FrameHeaderSlots + Code->NumLocals;
      Regs.CurCode = asClosure(Fn)->Code;
      Regs.Pc = 0;
      return Dispatch::Done;
    }

    if (Fn.isNative()) {
      NativeObj *N = asNative(Fn);
      Regs.Sp = Hdr; // The call frame is logically popped.
      if (!checkArity(*this, Fn, NArgs))
        return Dispatch::Done;
      NativeJumped = false;
      Value Res = N->Fn(*this, Slots + Hdr + FrameHeaderSlots, NArgs);
      if (Failed || !PendingCall)
        return finishNativeCall(Res);
      // A chain of scheduled calls stays a loop here.
      PendingCall = false;
      Hdr = buildPendingFrame(*this);
      NArgs = static_cast<uint32_t>(PendingArgs.size());
      continue;
    }

    if (Fn.isCont()) {
      if (NArgs != 1) {
        raiseError("continuation expects 1 argument");
        return Dispatch::Done;
      }
      Value Arg = Slots[Hdr + FrameHeaderSlots];
      Regs.Sp = Hdr;
      applyContinuation(Fn, Arg);
      return Dispatch::Done;
    }

    if (Fn.isCompositeCont()) {
      if (NArgs != 1) {
        raiseError("composable continuation expects 1 argument");
        return Dispatch::Done;
      }
      Value Arg = Slots[Hdr + FrameHeaderSlots];
      Regs.Sp = Hdr;
      applyCompositeCont(*this, Fn, Arg, /*TailMode=*/false);
      return Dispatch::Done;
    }

    if (Fn.isParameter()) {
      if (NArgs != 0) {
        raiseError("parameter accepts no arguments");
        return Dispatch::Done;
      }
      Regs.Sp = Hdr;
      Value Res = parameterLookup(*this, Fn);
      if (Failed)
        return Dispatch::Done;
      return deliverNativeResult(*this, Res);
    }

    raiseError("application of non-procedure: " + writeToString(Fn));
    return Dispatch::Done;
  }
}

VM::Dispatch VM::dispatchSlowTail(uint32_t NArgs) {
  for (;;) {
    Value *Slots = asStackSeg(Regs.Seg)->Slots;
    uint32_t Fp = Regs.Fp;
    Value Fn = Slots[Fp + 3];

    if (Fn.isClosure()) {
      CodeObj *Code = asCode(asClosure(Fn)->Code);
      if (!bindArgs(*this, Fn, Fp + FrameHeaderSlots, NArgs))
        return Dispatch::Done;
      Slots = asStackSeg(Regs.Seg)->Slots;
      bool TailOverflow =
          Fp + Code->FrameSize > asStackSeg(Regs.Seg)->Capacity;
      if (ForceOverflowOnce) {
        ForceOverflowOnce = false;
        TailOverflow = true;
      }
      if (TailOverflow) {
        // Overflow on a tail call: reify, then move this frame to a fresh
        // segment (the record keeps the old one alive for the copy-back).
        Regs.Sp = Fp + FrameHeaderSlots + Code->NumArgs;
        reifyCurrentFrame();
        moveToFreshSegment(Code->FrameSize);
        Fp = 0;
        Slots = asStackSeg(Regs.Seg)->Slots;
      }
      for (uint32_t I = Code->NumArgs; I < Code->NumLocals; ++I)
        Slots[Fp + FrameHeaderSlots + I] = Value::undefined();
      Regs.Sp = Fp + FrameHeaderSlots + Code->NumLocals;
      Regs.CurCode = asClosure(Fn)->Code;
      Regs.Pc = 0;
      return Dispatch::Done;
    }

    if (Fn.isNative()) {
      NativeObj *N = asNative(Fn);
      Regs.Sp = Fp + FrameHeaderSlots + NArgs;
      if (!checkArity(*this, Fn, NArgs))
        return Dispatch::Done;
      NativeTailCall = true;
      NativeJumped = false;
      Value Res = N->Fn(*this, Slots + Fp + FrameHeaderSlots, NArgs);
      NativeTailCall = false;
      if (Failed)
        return Dispatch::Done;
      if (PendingCall) {
        PendingCall = false;
        if (NativeJumped) {
          // The native replaced the continuation; run the scheduled call
          // in the new context instead of reusing the dead frame.
          uint32_t Hdr = buildPendingFrame(*this);
          return dispatchSlowCall(Hdr,
                                  static_cast<uint32_t>(PendingArgs.size()));
        }
        NArgs = static_cast<uint32_t>(PendingArgs.size());
        if (Regs.Fp + FrameHeaderSlots + NArgs >
            asStackSeg(Regs.Seg)->Capacity) {
          // The scheduled call reuses this frame, and its arguments do not
          // fit: reify the frame and move its header to a fresh segment.
          reifyCurrentFrame();
          Regs.Sp = Regs.Fp + FrameHeaderSlots;
          moveToFreshSegment(FrameHeaderSlots + NArgs);
        }
        Slots = asStackSeg(Regs.Seg)->Slots;
        Fp = Regs.Fp;
        Slots[Fp + 3] = PendingFn;
        for (uint32_t I = 0; I < NArgs; ++I)
          Slots[Fp + FrameHeaderSlots + I] = PendingArgs[I];
        Regs.Sp = Fp + FrameHeaderSlots + NArgs;
        continue;
      }
      if (NativeJumped)
        return Dispatch::Done;
      return returnFromFrame(*this, Res);
    }

    if (Fn.isCont()) {
      if (NArgs != 1) {
        raiseError("continuation expects 1 argument");
        return Dispatch::Done;
      }
      Value Arg = Slots[Fp + FrameHeaderSlots];
      applyContinuation(Fn, Arg);
      return Dispatch::Done;
    }

    if (Fn.isCompositeCont()) {
      if (NArgs != 1) {
        raiseError("composable continuation expects 1 argument");
        return Dispatch::Done;
      }
      Value Arg = Slots[Fp + FrameHeaderSlots];
      applyCompositeCont(*this, Fn, Arg, /*TailMode=*/true);
      return Dispatch::Done;
    }

    if (Fn.isParameter()) {
      if (NArgs != 0) {
        raiseError("parameter accepts no arguments");
        return Dispatch::Done;
      }
      Value Res = parameterLookup(*this, Fn);
      if (Failed)
        return Dispatch::Done;
      return returnFromFrame(*this, Res);
    }

    raiseError("application of non-procedure: " + writeToString(Fn));
    return Dispatch::Done;
  }
}
