//===- support/limits.h - Engine resource governance ----------*- C++ -*-===//
///
/// \file
/// Resource limits for a cmarks engine and the vocabulary shared by the
/// heap, the VM, and the embedding API to talk about limit trips.
///
/// The design has two tiers per resource, mirroring how the paper's rare
/// paths are engineered to have somewhere to run:
///
///  - A *budget* (heap bytes, live stack segments) whose exhaustion is a
///    recoverable event: the subsystem grants a reserved slab (heap
///    headroom, reserve segments) so execution can reach the next VM safe
///    point, where the trip is raised as an ordinary, catchable Scheme
///    exception. Error construction, handler dispatch, and dynamic-wind
///    after-thunks all allocate out of the reserve.
///  - The *reserve* itself. Exhausting it means the program kept consuming
///    through its own limit-trip handling; that is no longer recoverable
///    within the run and is reported by throwing ResourceExhausted, which
///    the API boundary (VM::applyProcedure, SchemeEngine::eval) converts
///    into a failed evaluation. The engine stays reusable either way.
///
/// Budgets re-arm when a collection brings usage back under the limit, so
/// one engine can trip, recover, and trip again indefinitely.
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_SUPPORT_LIMITS_H
#define CMARKS_SUPPORT_LIMITS_H

#include <cstdint>

namespace cmk {

/// Per-engine resource limits. A zero value disables that limit. Lives in
/// VMConfig so the embedding API and the REPL share one plumbing path;
/// fields may be adjusted between runs through SchemeEngine::limits().
/// An EnginePool job carries its own: there TimeoutMs budgets the job's
/// on-CPU time, and the heap and segment budgets count what the job's own
/// fibers take (runtime/heap.h ResourceAccount).
struct EngineLimits {
  /// Byte budget for live + recently-allocated heap objects. 0 = none.
  uint64_t HeapBytes = 0;
  /// Reserved slab granted once when the byte budget trips, so the limit
  /// exception can itself allocate and unwind through dynamic-wind.
  uint64_t HeapHeadroomBytes = 1u << 20;
  /// Budget for live stack segments (continuation depth in units of
  /// segments; deep recursion holds its segments live through the
  /// underflow-record chain). 0 = none.
  uint32_t MaxLiveSegments = 0;
  /// Reserve segments granted once when the segment budget trips, so the
  /// overflow handler has stack to run on.
  uint32_t ReserveSegments = 8;
  /// Wall-clock budget per applyProcedure run, in milliseconds. 0 = none.
  uint64_t TimeoutMs = 0;
  /// Safe-point sites (calls and taken backward branches; see
  /// src/vm/vm.cpp) between dispatch-loop polls (fuel). Polls check the
  /// deadline, the host interrupt flag, and pending budget trips;
  /// smaller = more responsive, larger = cheaper. Fuel only governs an
  /// engine with some limit armed (a heap/segment/timeout budget, or a
  /// non-default FuelInterval): ungoverned engines never fuel-expire and
  /// take zero polls, though host interrupts and heap fuel pokes still
  /// reach the next safe-point site promptly.
  uint32_t FuelInterval = 10000;
};

/// What exhausted. None doubles as "nothing pending".
enum class TripKind : uint8_t { None, HeapLimit, StackLimit, Timeout, Interrupt };

/// Classification of a failed evaluation, for host dispatch (the REPL
/// maps these to distinct exit codes).
enum class ErrorKind : uint8_t {
  None,       ///< No error.
  Runtime,    ///< Ordinary Scheme/VM error (type error, uncaught throw).
  HeapLimit,  ///< Heap byte budget exhausted.
  StackLimit, ///< Stack segment budget exhausted.
  Timeout,    ///< Wall-clock budget exhausted.
  Interrupt,  ///< Host called requestInterrupt().
};

inline ErrorKind errorKindOf(TripKind T) {
  switch (T) {
  case TripKind::HeapLimit:
    return ErrorKind::HeapLimit;
  case TripKind::StackLimit:
    return ErrorKind::StackLimit;
  case TripKind::Timeout:
    return ErrorKind::Timeout;
  case TripKind::Interrupt:
    return ErrorKind::Interrupt;
  case TripKind::None:
    break;
  }
  return ErrorKind::None;
}

/// The kind symbols used by the catchable Scheme exceptions and the
/// REPL's reporting ("heap-limit", "stack-limit", "timeout", "interrupt").
inline const char *tripKindName(TripKind T) {
  switch (T) {
  case TripKind::HeapLimit:
    return "heap-limit";
  case TripKind::StackLimit:
    return "stack-limit";
  case TripKind::Timeout:
    return "timeout";
  case TripKind::Interrupt:
    return "interrupt";
  case TripKind::None:
    break;
  }
  return "none";
}

/// The one sanctioned C++ exception in cmarks (see support/debug.h):
/// thrown when a resource is exhausted beyond its reserve (or the host
/// really is out of memory), caught at the API boundary and converted
/// into a failed — but recoverable — evaluation. \p What is a static
/// string: constructing the report must not allocate.
struct ResourceExhausted {
  TripKind Kind;
  const char *What;
};

} // namespace cmk

#endif // CMARKS_SUPPORT_LIMITS_H
