//===- vm/fibers.cpp - Cooperative fibers over one-shot continuations ----===//
///
/// \file
/// FiberScheduler implementation and the #%fiber-* natives. See
/// vm/fibers.h for the design overview and DESIGN.md section 16 for the
/// full story. Everything here runs on the owning VM's thread.
///
//===----------------------------------------------------------------------===//

#include "vm/fibers.h"

#include "runtime/numbers.h"
#include "support/timing.h"
#include "vm/vm.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>

using namespace cmk;

namespace {

/// Min-heap comparator (std::push_heap builds a max-heap, so invert).
struct TimerCmp {
  template <typename T> bool operator()(const T &A, const T &B) const {
    return A.Due > B.Due;
  }
};

} // namespace

uint64_t FiberScheduler::currentJobId() const {
  if (!Current.isFiber())
    return 0;
  ResourceAccount *A = asFiber(Current)->Account;
  return A ? A->JobId : 0;
}

uint64_t FiberScheduler::nextTimerDelayNs() const {
  // The top entry may be stale (its fiber was unparked); report it anyway:
  // the host wakes, the pump drops it, and the wait re-bounds. Cheaper
  // than maintaining eager deletion for a rare early wake.
  if (Timers.empty())
    return 0;
  uint64_t Now = nowNanos();
  uint64_t Due = Timers.front().Due;
  return Due > Now ? Due - Now : 1;
}

void FiberScheduler::addTimer(Value FV, uint64_t Due) {
  Timers.push_back(TimerEntry{Due, FV});
  std::push_heap(Timers.begin(), Timers.end(), TimerCmp());
}

void FiberScheduler::armBudget(VM &M, FiberObj *F) {
  SliceStartNs = nowNanos();
  if (ResourceAccount *A = F->Account) {
    FaultsAtSwitchIn = M.Stats.FaultsInjected;
    // One span per run slice: only one fiber runs at a time, so a job's
    // slices nest cleanly in its worker's trace however jobs interleave.
    if (M.trace().Enabled) {
      char Label[24];
      int Len = std::snprintf(Label, sizeof(Label), "job-%" PRIu64, A->JobId);
      M.trace().record(TraceEv::JobBegin, Label, static_cast<size_t>(Len),
                       A->JobId);
    }
  }
  M.heap().setAccount(F->Account);
  uint64_t DeadNs = 0;
  if (F->BudgetNs)
    DeadNs = SliceStartNs + F->BudgetNs;
  if (F->JobDeadlineNs && (DeadNs == 0 || F->JobDeadlineNs < DeadNs))
    DeadNs = F->JobDeadlineNs;
  if (DeadNs) {
    M.Deadline = std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::nanoseconds(DeadNs)));
    M.DeadlineArmed = true;
    if (DeadNs <= SliceStartNs)
      M.FuelLeft = 0; // Already expired: trip at the first safe point.
  } else if (PoolHost) {
    // An unbudgeted fiber runs deadline-free (pool engines carry no
    // engine-level timeout; per-fiber budgets replace it).
    M.DeadlineArmed = false;
  }
}

void FiberScheduler::noteSwitchOut(VM &M, FiberObj *F) {
  uint64_t Now = nowNanos();
  uint64_t Ran = Now > SliceStartNs ? Now - SliceStartNs : 0;
  F->RunNs += Ran;
  if (F->BudgetNs) {
    // Keep an exhausted budget nonzero so the next switch-in still arms an
    // (already past) deadline instead of reading 0 as "unlimited".
    F->BudgetNs = F->BudgetNs > Ran ? F->BudgetNs - Ran : 1;
  }
  SliceStartNs = Now;
  if (ResourceAccount *A = F->Account) {
    A->FaultsInjected += M.Stats.FaultsInjected - FaultsAtSwitchIn;
    CMK_TRACE_EV(M.trace(), JobEnd, A->JobId);
  }
  M.heap().setAccount(nullptr);
  // Parked time is free: the next switch-in re-arms a deadline.
  if (PoolHost)
    M.DeadlineArmed = false;
}

void FiberScheduler::dropAccount(VM &M, FiberObj *F) {
  if (F->Account && !F->isJob()) {
    M.heap().releaseAccount(F->Account);
    F->Account = nullptr;
  }
}

Value FiberScheduler::currentFiber(VM &M) {
  if (Current.isFiber())
    return Current;
  // Adopt the toplevel context as a fiber on first suspension so the root
  // can park/join like any spawned fiber. No budget: engine-level limits
  // already govern this run.
  Value FV = M.heap().makeFiber(Value::undefined(), Value::nil(), NextId++);
  asFiber(FV)->setState(FiberState::Running);
  Current = FV;
  return FV;
}

Value FiberScheduler::spawn(VM &M, Value Thunk, Value ArgsList) {
  if (M.Cfg.MarkStackMode)
    return M.raiseError("spawn: fibers are not supported in mark-stack mode "
                        "(the eager mark stack is per-VM, not per-fiber)");
  GCRoot T(M.heap(), Thunk), A(M.heap(), ArgsList);
  // Sub-fibers of a pool job inherit the job's wall-clock deadline, a
  // snapshot of its remaining budget, and its account, so a runaway
  // sub-fiber cannot outlive its job's governance.
  uint64_t Budget = 0, DeadNs = 0;
  ResourceAccount *Account = nullptr;
  if (Current.isFiber()) {
    Budget = asFiber(Current)->BudgetNs;
    DeadNs = asFiber(Current)->JobDeadlineNs;
    Account = asFiber(Current)->Account;
  }
  Value FV = M.heap().makeFiber(T.get(), A.get(), NextId++);
  FiberObj *F = asFiber(FV);
  F->BudgetNs = Budget;
  F->JobDeadlineNs = DeadNs;
  F->Account = Account;
  if (Account)
    M.heap().retainAccount(Account);
  ++Live;
  ++M.Stats.FiberSpawns;
  RunQueue.push_back(FV);
  return FV;
}

Value FiberScheduler::spawnJob(VM &M, Value Thunk, Value ArgsList,
                               const EngineLimits &L, uint64_t JobId,
                               uint64_t DeadlineNs, uint64_t DelayNs) {
  // An interrupt that reached an engine hosting no fiber was aimed at no
  // job; drop it, as a fresh run would.
  if (Live == 0)
    M.AsyncSignals.fetch_and(~VM::SigInterrupt, std::memory_order_relaxed);
  GCRoot T(M.heap(), Thunk), A(M.heap(), ArgsList);
  Value FV = M.heap().makeFiber(T.get(), A.get(), NextId++);
  FiberObj *F = asFiber(FV);
  F->BudgetNs = L.TimeoutMs * 1000000ull;
  F->JobDeadlineNs = DeadlineNs;
  F->Account = M.heap().openAccount(L, JobId);
  F->setJob();
  ++Live;
  ++M.Stats.FiberSpawns;
  if (DelayNs) {
    // Retry backoff: stays Fresh on a timer; pumped runnable when due.
    uint64_t Due = nowNanos() + DelayNs;
    F->DueNs = Due;
    addTimer(FV, Due);
  } else {
    RunQueue.push_back(FV);
  }
  return FV;
}

void FiberScheduler::pumpTimers(VM &M, uint64_t Now) {
  if (Timers.empty())
    return;
  // Popping an entry unroots its fiber, so no allocation may happen
  // between pop and requeue; the status symbol is interned at startup.
  Value TimeoutSym = M.wellKnown().Timeout;
  while (!Timers.empty()) {
    const TimerEntry &Top = Timers.front();
    FiberObj *F = asFiber(Top.F);
    bool Stale = F->DueNs != Top.Due || (F->state() != FiberState::Parked &&
                                         F->state() != FiberState::Fresh);
    if (!Stale && Top.Due > Now)
      break;
    Value FV = Top.F;
    std::pop_heap(Timers.begin(), Timers.end(), TimerCmp());
    Timers.pop_back();
    if (Stale)
      continue;
    F = asFiber(FV);
    F->DueNs = 0;
    if (F->state() == FiberState::Parked) {
      F->setState(FiberState::Runnable);
      F->ResumeVal = TimeoutSym;
    }
    RunQueue.push_back(FV);
  }
}

void FiberScheduler::idleWait(VM &M) {
  // Standalone mode, everything blocked, earliest timer not yet due:
  // sleep in interruptible chunks. A pending signal or a passed VM
  // deadline forces the earliest sleeper due immediately with zero fuel,
  // so the resumed fiber's first safe point delivers the trip.
  using namespace std::chrono;
  for (;;) {
    uint64_t Now = nowNanos();
    if (Timers.empty() || Timers.front().Due <= Now)
      return;
    bool Signalled =
        M.AsyncSignals.load(std::memory_order_relaxed) != 0 ||
        (M.DeadlineArmed && steady_clock::now() >= M.Deadline);
    if (Signalled) {
      TimerEntry &Top = Timers.front();
      if (asFiber(Top.F)->DueNs == Top.Due)
        asFiber(Top.F)->DueNs = Now;
      Top.Due = Now; // Decrease-key at the root keeps the heap valid.
      M.FuelLeft = 0;
      return;
    }
    uint64_t WaitNs = Timers.front().Due - Now;
    if (WaitNs > 10'000'000)
      WaitNs = 10'000'000; // <=10ms chunks keep interrupt latency low.
    std::this_thread::sleep_for(nanoseconds(WaitNs));
  }
}

void FiberScheduler::kickEarliestTimer() {
  uint64_t Now = nowNanos();
  while (!Timers.empty()) {
    TimerEntry &Top = Timers.front();
    FiberObj *F = asFiber(Top.F);
    bool Stale = F->DueNs != Top.Due || (F->state() != FiberState::Parked &&
                                         F->state() != FiberState::Fresh);
    if (Stale) {
      std::pop_heap(Timers.begin(), Timers.end(), TimerCmp());
      Timers.pop_back();
      continue;
    }
    F->DueNs = Now;
    Top.Due = Now;
    return;
  }
}

void FiberScheduler::switchTo(VM &M, Value FV) {
  GCRoot FRoot(M.heap(), FV);
  Current = FV;
  FiberObj *F = asFiber(FV);
  if (F->state() == FiberState::Fresh) {
    F->setState(FiberState::Running);
    armBudget(M, F);
    // Boot on an empty continuation: jump to a fresh halt record (empty
    // marks/winders — the isolation boundary), then tail-call the
    // prelude's #%fiber-boot, which runs the thunk under a catch-all and
    // reports the outcome through #%fiber-finish.
    M.jumpToContinuation(M.makeHaltRecord());
    // Mirror installBaseFrame: the bottom of the chain must be a halt
    // *record*, not nil — the boot frame is built reified (sentinel
    // header), and a reified frame's NextK must be a record (AttachSet
    // reads its marks unconditionally).
    M.Regs.NextK = M.makeHaltRecord();
    Value Boot = M.getGlobal("#%fiber-boot");
    if (!Boot.isClosure()) {
      M.raiseError("#%fiber-boot is not defined (prelude not loaded)");
      return;
    }
    Value CallArgs[1] = {FRoot.get()};
    M.scheduleTailCall(Boot, CallArgs, 1);
    return;
  }
  // Parked, now resumed: apply the saved one-shot capture. The capture
  // restores the fiber's own marks/winders registers wholesale.
  F->setState(FiberState::Running);
  Value K = F->Cont;
  Value V = F->ResumeVal;
  F->Cont = Value::undefined();
  F->ResumeVal = Value::voidValue();
  armBudget(M, F);
  M.applyContinuation(K, V);
}

void FiberScheduler::endSlice(VM &M, Value Status) {
  Current = Value::undefined();
  GCRoot SRoot(M.heap(), Status);
  // Applying the halt record makes VM::run() return Status: the host
  // worker regains its thread with every parked fiber intact on the heap.
  M.applyContinuation(M.makeHaltRecord(), SRoot.get());
}

bool FiberScheduler::dispatchNext(VM &M) {
  for (;;) {
    pumpTimers(M, nowNanos());
    if (!RunQueue.empty()) {
      Value FV = RunQueue.front();
      RunQueue.pop_front();
      FiberState S = asFiber(FV)->state();
      if (S != FiberState::Runnable && S != FiberState::Fresh)
        continue; // Stale queue entry; drop it.
      switchTo(M, FV);
      return true;
    }
    if (CoopPool) {
      endSlice(M, M.wellKnown().Idle);
      return true;
    }
    if (!Timers.empty()) {
      idleWait(M);
      continue;
    }
    return false; // Standalone deadlock: nothing runnable, nothing timed.
  }
}

void FiberScheduler::yieldCurrent(VM &M) {
  pumpTimers(M, nowNanos());
  if (RunQueue.empty())
    return; // Alone: yield is a no-op, no capture taken.
  Value FV = currentFiber(M);
  GCRoot FRoot(M.heap(), FV);
  Value KV = M.captureOneShot();
  FiberObj *F = asFiber(FRoot.get());
  F->Cont = KV;
  F->ResumeVal = Value::voidValue();
  F->setState(FiberState::Runnable);
  RunQueue.push_back(FRoot.get());
  ++M.Stats.FiberParks;
  noteSwitchOut(M, F);
  Current = Value::undefined();
  dispatchNext(M); // Cannot deadlock: the queue was nonempty.
}

void FiberScheduler::parkCurrent(VM &M, uint64_t DueNs) {
  if (M.Cfg.MarkStackMode) {
    M.raiseError("fiber park: fibers are not supported in mark-stack mode");
    return;
  }
  Value FV = currentFiber(M);
  GCRoot FRoot(M.heap(), FV);
  Value KV = M.captureOneShot();
  FiberObj *F = asFiber(FRoot.get());
  F->Cont = KV;
  F->ResumeVal = Value::voidValue();
  F->setState(FiberState::Parked);
  // A pool job's untimed or long wait is capped at its wall-clock
  // deadline, so expiry is noticed even while parked (the woken fiber's
  // first safe point then delivers the timeout trip).
  uint64_t Due = DueNs;
  if (F->JobDeadlineNs && (Due == 0 || F->JobDeadlineNs < Due))
    Due = F->JobDeadlineNs;
  F->DueNs = Due;
  if (Due)
    addTimer(FRoot.get(), Due);
  ++M.Stats.FiberParks;
  noteSwitchOut(M, F);
  Current = Value::undefined();
  if (!dispatchNext(M)) {
    // Deadlock: every fiber is parked with no timer. Revert the park and
    // raise in the would-be parker's context, where the error is
    // catchable and the machine state is consistent.
    F = asFiber(FRoot.get());
    F->setState(FiberState::Running);
    F->Cont = Value::undefined();
    F->DueNs = 0;
    Current = FRoot.get();
    armBudget(M, F);
    M.raiseError("fiber deadlock: every fiber is parked and no timer is "
                 "pending");
  }
}

bool FiberScheduler::unpark(VM &M, Value FV, Value ResumeV) {
  (void)M;
  FiberObj *F = asFiber(FV);
  if (F->state() != FiberState::Parked)
    return false; // Stale waitlist entry or double unpark: harmless.
  F->DueNs = 0; // Invalidates any pending timer entry (lazy deletion).
  F->ResumeVal = ResumeV;
  F->setState(FiberState::Runnable);
  RunQueue.push_back(FV);
  return true;
}

void FiberScheduler::joinPark(VM &M, Value Target) {
  FiberObj *T = asFiber(Target);
  if (T->state() == FiberState::Done)
    return; // Join completes immediately; the caller re-checks state.
  GCRoot TR(M.heap(), Target);
  Value Me = currentFiber(M);
  GCRoot MeR(M.heap(), Me);
  Value Cell = M.heap().makePair(MeR.get(), asFiber(TR.get())->Joiners);
  asFiber(TR.get())->Joiners = Cell;
  parkCurrent(M, 0);
}

void FiberScheduler::wakeJoiners(VM &M, FiberObj *F) {
  Value J = F->Joiners;
  F->Joiners = Value::nil();
  for (; J.isPair(); J = cdr(J)) {
    Value W = car(J);
    if (W.isFiber())
      unpark(M, W, Value::voidValue());
  }
}

void FiberScheduler::finishCurrent(VM &M, Value FV, bool Ok, Value Result,
                                   Value KindSym) {
  if (!Current.isFiber() || asFiber(Current) != asFiber(FV)) {
    M.raiseError("#%fiber-finish: fiber is not current");
    return;
  }
  GCRoot FRoot(M.heap(), FV);
  FiberObj *F = asFiber(FV);
  noteSwitchOut(M, F);
  F->Result = Result;
  F->ErrKindSym = KindSym;
  if (!Ok)
    F->setErred();
  F->setState(FiberState::Done);
  F->Cont = Value::undefined();
  F->Thunk = Value::undefined();
  F->ArgsList = Value::nil();
  if (Live)
    --Live;
  dropAccount(M, F);
  wakeJoiners(M, F);
  Current = Value::undefined();
  if (F->isJob()) {
    // Retire the slice so the host collects the finished job promptly
    // (latency) and can admit a queued one into the freed fiber slot.
    DoneJobs.push_back(FRoot.get());
    endSlice(M, M.wellKnown().Retire);
    return;
  }
  if (!dispatchNext(M)) {
    // Nothing left to run and no way to wake anything: if fibers are
    // still parked this whole program can never progress — a real
    // deadlock, reported at the engine level.
    endSlice(M, Value::voidValue());
  }
}

void FiberScheduler::failCurrent(VM &M, const std::string &Msg,
                                 Value KindSym) {
  if (!Current.isFiber())
    return;
  GCRoot KRoot(M.heap(), KindSym);
  GCRoot FRoot(M.heap(), Current);
  Value MsgV = M.heap().makeString(Msg);
  FiberObj *F = asFiber(FRoot.get());
  noteSwitchOut(M, F);
  F->Result = MsgV;
  F->ErrKindSym = KRoot.get();
  F->setErred();
  F->setState(FiberState::Done);
  F->Cont = Value::undefined();
  F->Thunk = Value::undefined();
  F->ArgsList = Value::nil();
  if (Live)
    --Live;
  dropAccount(M, F);
  wakeJoiners(M, F);
  if (F->isJob())
    DoneJobs.push_back(FRoot.get());
  Current = Value::undefined();
}

Value FiberScheduler::enterSlice(VM &M) {
  SliceStartNs = nowNanos();
  pumpTimers(M, nowNanos());
  if (RunQueue.empty())
    return M.wellKnown().Idle; // Plain return: the slice closure just
                               // hands it back to the host.
  dispatchNext(M); // Switches in (sets NativeJumped); cannot deadlock.
  return Value::voidValue();
}

std::vector<Value> FiberScheduler::takeDoneJobs() {
  std::vector<Value> Out;
  Out.swap(DoneJobs);
  return Out;
}

void FiberScheduler::noteRunBoundary(VM &M) {
  SliceStartNs = nowNanos();
  if (Current.isFiber() && asFiber(Current)->state() == FiberState::Running) {
    // A completed run left its adopted-root fiber switched in (toplevel
    // returned through the base halt, not through #%fiber-finish).
    // Detach it: joiners wake into the run queue and get their turn the
    // next time this engine schedules.
    FiberObj *F = asFiber(Current);
    F->setState(FiberState::Done);
    F->Result = Value::voidValue();
    wakeJoiners(M, F);
    if (F->isJob()) {
      DoneJobs.push_back(Current);
      if (Live)
        --Live;
    }
  }
  Current = Value::undefined();
}

void FiberScheduler::traceRoots(Heap &H) {
  for (Value V : RunQueue)
    H.traceValue(V);
  for (TimerEntry &T : Timers)
    H.traceValue(T.F);
  for (Value V : DoneJobs)
    H.traceValue(V);
  H.traceValue(Current);
}

// -----------------------------------------------------------------------------
// Natives.
// -----------------------------------------------------------------------------

namespace {

Value nativeFiberP(VM &, Value *Args, uint32_t) {
  return Args[0].isFiber() ? Value::True() : Value::False();
}

Value nativeFiberSpawn(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[0].isClosure() && !Args[0].isNative())
    return typeError(M, "spawn", "procedure", Args[0]);
  return M.Fibers.spawn(M, Args[0], NArgs > 1 ? Args[1] : Value::nil());
}

Value nativeFiberYield(VM &M, Value *, uint32_t) {
  M.Fibers.yieldCurrent(M);
  return Value::voidValue();
}

Value nativeFiberPark(VM &M, Value *, uint32_t) {
  M.Fibers.parkCurrent(M, 0);
  return Value::voidValue();
}

/// (#%fiber-park-timed! ms): park until unparked or ms elapse; the park
/// evaluates to the unpark value, or the symbol `timeout` on expiry.
Value nativeFiberParkTimed(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isNumber())
    return typeError(M, "#%fiber-park-timed!", "number", Args[0]);
  double Ms = toDouble(Args[0]);
  if (Ms != Ms || Ms < 0) // NaN sleeps not at all, like 0.
    Ms = 0;
  if (Ms > 60000)
    Ms = 60000;
  uint64_t Due = nowNanos() + static_cast<uint64_t>(Ms * 1e6);
  M.Fibers.parkCurrent(M, Due);
  return Value::voidValue();
}

Value nativeFiberUnpark(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[0].isFiber())
    return typeError(M, "#%fiber-unpark!", "fiber", Args[0]);
  bool Woke = M.Fibers.unpark(M, Args[0],
                              NArgs > 1 ? Args[1] : Value::voidValue());
  return Woke ? Value::True() : Value::False();
}

Value nativeFiberJoinPark(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isFiber())
    return typeError(M, "fiber-join", "fiber", Args[0]);
  M.Fibers.joinPark(M, Args[0]);
  return Value::voidValue();
}

Value nativeFiberFinish(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isFiber())
    return typeError(M, "#%fiber-finish", "fiber", Args[0]);
  M.Fibers.finishCurrent(M, Args[0], !Args[1].isFalse(), Args[2], Args[3]);
  return Value::voidValue();
}

Value nativeFiberSchedule(VM &M, Value *, uint32_t) {
  return M.Fibers.enterSlice(M);
}

Value nativeCurrentFiber(VM &M, Value *, uint32_t) {
  return M.Fibers.currentFiber(M);
}

Value nativeFiberDoneP(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isFiber())
    return typeError(M, "#%fiber-done?", "fiber", Args[0]);
  return asFiber(Args[0])->state() == FiberState::Done ? Value::True()
                                                       : Value::False();
}

Value nativeFiberErrorP(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isFiber())
    return typeError(M, "#%fiber-error?", "fiber", Args[0]);
  return asFiber(Args[0])->erred() ? Value::True() : Value::False();
}

Value nativeFiberResult(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isFiber())
    return typeError(M, "#%fiber-result", "fiber", Args[0]);
  return asFiber(Args[0])->Result;
}

Value nativeFiberErrorKind(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isFiber())
    return typeError(M, "#%fiber-error-kind", "fiber", Args[0]);
  return asFiber(Args[0])->ErrKindSym;
}

Value nativeFiberThunk(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isFiber())
    return typeError(M, "#%fiber-thunk", "fiber", Args[0]);
  return asFiber(Args[0])->Thunk;
}

Value nativeFiberArgs(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isFiber())
    return typeError(M, "#%fiber-args", "fiber", Args[0]);
  return asFiber(Args[0])->ArgsList;
}

Value nativeFiberId(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isFiber())
    return typeError(M, "#%fiber-id", "fiber", Args[0]);
  return Value::fixnum(static_cast<int64_t>(asFiber(Args[0])->Id));
}

/// (#%fiber-run-ns f): accumulated on-CPU nanoseconds — parked time is
/// excluded by construction (tests/test_fibers.cpp pins this down).
Value nativeFiberRunNs(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isFiber())
    return typeError(M, "#%fiber-run-ns", "fiber", Args[0]);
  return Value::fixnum(static_cast<int64_t>(asFiber(Args[0])->RunNs));
}

Value nativeFiberState(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isFiber())
    return typeError(M, "#%fiber-state", "fiber", Args[0]);
  const char *Name = "fresh";
  switch (asFiber(Args[0])->state()) {
  case FiberState::Fresh:
    break;
  case FiberState::Runnable:
    Name = "runnable";
    break;
  case FiberState::Running:
    Name = "running";
    break;
  case FiberState::Parked:
    Name = "parked";
    break;
  case FiberState::Done:
    Name = "done";
    break;
  }
  return M.heap().intern(Name);
}

} // namespace

void cmk::installFiberPrimitives(VM &M) {
  M.defineNative("fiber?", nativeFiberP, 1, 1);
  M.defineNative("#%fiber-spawn", nativeFiberSpawn, 1, 2);
  M.defineNative("#%fiber-yield", nativeFiberYield, 0, 0);
  M.defineNative("#%fiber-park!", nativeFiberPark, 0, 0);
  M.defineNative("#%fiber-park-timed!", nativeFiberParkTimed, 1, 1);
  M.defineNative("#%fiber-unpark!", nativeFiberUnpark, 1, 2);
  M.defineNative("#%fiber-join-park!", nativeFiberJoinPark, 1, 1);
  M.defineNative("#%fiber-finish", nativeFiberFinish, 4, 4);
  M.defineNative("#%fiber-schedule!", nativeFiberSchedule, 0, 0);
  M.defineNative("#%current-fiber", nativeCurrentFiber, 0, 0);
  M.defineNative("#%fiber-done?", nativeFiberDoneP, 1, 1);
  M.defineNative("#%fiber-error?", nativeFiberErrorP, 1, 1);
  M.defineNative("#%fiber-result", nativeFiberResult, 1, 1);
  M.defineNative("#%fiber-error-kind", nativeFiberErrorKind, 1, 1);
  M.defineNative("#%fiber-thunk", nativeFiberThunk, 1, 1);
  M.defineNative("#%fiber-args", nativeFiberArgs, 1, 1);
  M.defineNative("#%fiber-id", nativeFiberId, 1, 1);
  M.defineNative("#%fiber-run-ns", nativeFiberRunNs, 1, 1);
  M.defineNative("#%fiber-state", nativeFiberState, 1, 1);
}
