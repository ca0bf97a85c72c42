//===- vm/fibers.h - Cooperative fibers over one-shot continuations -*- C++ -*-===//
///
/// \file
/// Green threads ("fibers") built directly on the paper's continuation
/// machinery (DESIGN.md section 16). A fiber is a FiberObj (runtime/value.h)
/// whose suspended form is a captured one-shot continuation: parking a
/// fiber reifies the current continuation exactly the way call/1cc does
/// (vm/callcc.cpp), records it in the fiber, and switches the machine to
/// the next runnable fiber by applying *its* saved capture. Because every
/// suspension point runs through the ordinary reify/apply paths, a fiber's
/// marks, winders, and parameterizations travel with its continuation for
/// free — switching fibers swaps the whole Marks/Winders register state,
/// which is what gives mark isolation between interleaved fibers.
///
/// The scheduler is deliberately single-threaded: one FiberScheduler per
/// VM, driven only from natives running on that VM's thread. Determinism
/// falls out (run queue order is FIFO, timers fire in due order), which is
/// what lets the differential fuzzer include fiber programs.
///
/// Operating modes:
///
///  - *Standalone* (the default): `(spawn thunk)` inside any eval. When
///    every fiber is blocked the scheduler idle-waits inside the run
///    (chunked, interruptible sleeps) until the earliest timer fires.
///  - *Pool host* (`PoolHost`): the engine belongs to a pool worker, and
///    every pool job runs as a job fiber; a finishing job ends the current
///    *slice* — it jumps to a fresh halt continuation so VM::run() returns
///    and the host worker regains control to collect it. A blocking pool
///    hosts one job at a time and idle-waits like standalone mode, so a
///    waiting job holds its worker. A cooperative pool (`CoopPool` too)
///    also ends the slice when nothing is runnable, so the worker can admit
///    new jobs or sleep on its queue: parked jobs hold no worker thread.
///
/// Governance is per fiber: RunNs accumulates only while a fiber is
/// switched in, so parked time never counts against a pool job's run-time
/// budget (per-fiber BudgetNs) — only the wall-clock job deadline
/// (JobDeadlineNs) keeps ticking while parked, which is exactly the
/// deadline/timeout split the pool's telemetry reports. A job fiber's
/// heap bytes and stack segments are charged to its ResourceAccount
/// (runtime/heap.h), made current at every switch-in.
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_VM_FIBERS_H
#define CMARKS_VM_FIBERS_H

#include "runtime/value.h"
#include "support/limits.h"

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace cmk {

class Heap;
class VM;

class FiberScheduler {
public:
  /// Pool-host mode: job fibers retire the slice when they finish,
  /// interrupts wait for a fiber to own them, and switching out disarms
  /// the outgoing fiber's deadline. Set by SchemeEngine::enableFiberPool()
  /// before any fiber exists.
  bool PoolHost = false;
  /// Cooperative pool (with PoolHost): an idle scheduler ends the slice
  /// (VM::run() returns a status symbol) instead of blocking in-run.
  bool CoopPool = false;

  // --- Queries (host/pool side; same thread as the VM) ----------------------

  /// True when fiber scheduling should govern blocking primitives: either
  /// pool mode, or live spawned fibers exist (standalone (spawn ...)).
  bool schedulingActive() const {
    return CoopPool || Live > 0 || !RunQueue.empty() || !Timers.empty();
  }
  bool hasRunnable() const { return !RunQueue.empty(); }
  /// Pool job id of the fiber switched in — a job's sub-fibers share its
  /// id — or 0 between fibers and outside the pool.
  uint64_t currentJobId() const;
  /// Pool-mode safe-point gate: an interrupt may only be consumed while a
  /// fiber is switched in. Between slices the engine runs scheduler glue
  /// (the slice closure, dispatch natives) with no current fiber — a trip
  /// delivered there has no job to attribute to and would be silently
  /// swallowed, so pollSafePoint leaves the bit armed until the next
  /// fiber resumes and owns the trip.
  bool interruptDeliverable() const { return Current.isFiber(); }
  /// Ns until the earliest timer is due (0 when none pending); the pool
  /// worker bounds its queue wait by this so sleepers wake on time.
  uint64_t nextTimerDelayNs() const;

  // --- Fiber lifecycle (natives and engine glue; VM thread only) ------------

  /// Creates a runnable fiber that will call \p Thunk on \p ArgsList.
  /// Sub-fibers spawned from a pool job inherit the job's wall-clock
  /// deadline, a snapshot of its remaining run-time budget, and its
  /// resource account, so a runaway sub-fiber cannot outlive its job's
  /// governance.
  Value spawn(VM &M, Value Thunk, Value ArgsList);

  /// Pool entry: like spawn but governed by the job's own limits \p L (a
  /// TimeoutMs run-time budget, and a fresh ResourceAccount for the rest)
  /// and flagged as a job (finishing retires the slice and queues the
  /// fiber in DoneJobs; the collector releases its account). \p DelayNs > 0
  /// parks the fresh fiber on a timer first (retry backoff).
  Value spawnJob(VM &M, Value Thunk, Value ArgsList, const EngineLimits &L,
                 uint64_t JobId, uint64_t DeadlineNs, uint64_t DelayNs);

  /// (yield): if another fiber is runnable, capture, requeue self, switch.
  /// No-op when alone. Native-context only.
  void yieldCurrent(VM &M);

  /// Parks the current fiber (capturing its continuation one-shot) and
  /// switches away. \p DueNs is an absolute nowNanos() wake time (0 =
  /// untimed; wait for an explicit unpark). The park call's resumption
  /// value is whatever unpark delivers, or the symbol `timeout` when the
  /// timer fired. Native-context only; uses the tail/non-tail capture
  /// split exactly like #%call/1cc.
  void parkCurrent(VM &M, uint64_t DueNs);

  /// Makes a parked fiber runnable with resumption value \p ResumeV.
  /// Returns false (and does nothing) unless the fiber is actually parked,
  /// so stale waitlist entries are harmless.
  bool unpark(VM &M, Value FV, Value ResumeV);

  /// Parks the current fiber on \p Target's join list (forever; woken by
  /// the target finishing). If the target is already done, returns without
  /// parking.
  void joinPark(VM &M, Value Target);

  /// Records the current fiber's outcome (called by the prelude's
  /// #%fiber-boot after its catch-all), wakes joiners, and dispatches the
  /// next fiber (or retires the slice for a pool job).
  void finishCurrent(VM &M, Value FV, bool Ok, Value Result, Value KindSym);

  /// The fiber currently switched in; adopts the root context as a fiber
  /// on first use so toplevel code can park/join like any other fiber.
  Value currentFiber(VM &M);

  /// Body of the #%fiber-schedule! native: pumps timers and switches into
  /// the next runnable fiber; returns the symbol `idle` directly when
  /// nothing is runnable or due (the slice closure just returns it).
  Value enterSlice(VM &M);

  /// Host-side (between runs): the slice died with Current still switched
  /// in (limit trip that escaped the fiber, engine error). Marks the
  /// current fiber done-with-error so its joiners wake and the pool can
  /// retire it. Safe to call when no fiber is current.
  void failCurrent(VM &M, const std::string &Msg, Value KindSym);

  /// Drains the finished-job list (pool worker, between slices).
  std::vector<Value> takeDoneJobs();

  /// Host-side: an interrupt arrived while the worker idled between
  /// slices. Forces the earliest timer due immediately so the next slice
  /// resumes a fiber whose first safe point delivers the trip.
  void kickEarliestTimer();

  /// Called from VM::resetGovernance() at every run boundary: detaches a
  /// stale adopted-root fiber left switched-in by a completed run (its
  /// joiners wake) and restamps the slice clock.
  void noteRunBoundary(VM &M);

  /// Pool-mode interrupts must survive the idle gaps between slices;
  /// resetGovernance keeps the SigInterrupt bit armed when this is true.
  bool preserveInterruptAcrossRuns() const {
    return PoolHost &&
           (Live > 0 || !RunQueue.empty() || !Timers.empty() || !DoneJobs.empty());
  }

  void traceRoots(Heap &H);

private:
  struct TimerEntry {
    uint64_t Due; ///< Absolute nowNanos() deadline.
    Value F;      ///< The fiber; entry is stale unless F->DueNs == Due.
  };

  /// Switches into the next runnable fiber. Returns false only on a
  /// standalone deadlock (nothing runnable, no timers): the caller must
  /// turn that into an error in a consistent context.
  bool dispatchNext(VM &M);
  void switchTo(VM &M, Value FV);
  /// Ends the current slice: jumps to a fresh halt continuation delivering
  /// \p Status, so the enclosing VM::run() returns it to the host.
  void endSlice(VM &M, Value Status);
  /// Moves due timers to the run queue; drops stale entries.
  void pumpTimers(VM &M, uint64_t Now);
  /// Standalone blocking wait for the earliest timer: chunked sleeps that
  /// break early for interrupts/deadlines by forcing the timer due now.
  void idleWait(VM &M);
  /// Switch-in governance: arms the VM deadline from the fiber's remaining
  /// budget and job deadline, makes its account current (opening its job's
  /// trace span), and stamps the slice clock.
  void armBudget(VM &M, FiberObj *F);
  /// Switch-out governance: accumulates RunNs, burns BudgetNs, charges the
  /// faults injected meanwhile to the account, and closes the span.
  void noteSwitchOut(VM &M, FiberObj *F);
  /// A finished non-job fiber drops its hold on its job's account.
  void dropAccount(VM &M, FiberObj *F);
  void wakeJoiners(VM &M, FiberObj *F);
  void addTimer(Value FV, uint64_t Due);

  std::deque<Value> RunQueue;     ///< Runnable fibers, FIFO.
  std::vector<TimerEntry> Timers; ///< Min-heap by Due; lazy stale deletion.
  std::vector<Value> DoneJobs;    ///< Finished job fibers, oldest first.
  Value Current = Value::undefined();
  uint64_t NextId = 1;
  uint64_t Live = 0;         ///< Spawned fibers not yet Done.
  uint64_t SliceStartNs = 0; ///< When the current fiber was switched in.
  uint64_t FaultsAtSwitchIn = 0; ///< VMStats::FaultsInjected at switch-in.
};

/// Registers the fiber natives (vm/fibers.cpp).
void installFiberPrimitives(VM &M);

} // namespace cmk

#endif // CMARKS_VM_FIBERS_H
