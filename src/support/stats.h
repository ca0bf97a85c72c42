//===- support/stats.h - VM event-counter subsystem -----------*- C++ -*-===//
///
/// \file
/// Per-engine runtime statistics: the observable form of the paper's
/// performance story. Every counter corresponds to an event the evaluation
/// sections reason about — how often attachment operations force
/// continuation reification (7.2), how often opportunistic one-shot
/// records fuse back versus get copied or promoted (6), how stack segments
/// are allocated and split (5), how the mark-frame representation evolves,
/// and how the `continuation-mark-set-first` path-compression cache
/// behaves (7.5).
///
/// Two tiers:
///
///  - The *cheap tier* sits on paths that already allocate or copy
///    (reification, underflow, segment allocation), so a single
///    increment is noise.
///  - The *detail tier* sits on genuinely hot paths (mark lookup, mark
///    frame update) and reaches its counters through a possibly-null
///    `VMStats` pointer, so each increment costs one branch.
///
/// Both tiers are always compiled in. All counters live in one `VMStats`
/// struct. The counter table (`statsCounters`) gives every field a stable
/// kebab-case name shared by the `(runtime-stats)` primitive, the REPL's
/// `--stats` report, and the benchmark harness's `BENCH_*.json` output.
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_SUPPORT_STATS_H
#define CMARKS_SUPPORT_STATS_H

#include <cstdint>
#include <cstdio>

namespace cmk {

/// Per-run statistics used by tests, the ablation benchmarks, the
/// `(runtime-stats)` primitive, and the CI bench pipeline.
struct VMStats {
  // --- Cheap tier: reification (underflow-record installs) -----------------

  /// Total underflow records minted (every reification installs one).
  uint64_t Reifications = 0;
  /// Reifications of the current frame (paper 7.2 first category: tail
  /// attachment operations, and tail calls that overflow).
  uint64_t ReifyTailFrame = 0;
  /// Split-at-sp reifications (non-tail captures, CallAttach, overflow).
  uint64_t ReifySplit = 0;
  /// Reifications forced by the CallAttach calling convention (paper 7.2
  /// second category: non-tail `with-continuation-mark` around a call).
  uint64_t ReifyForAttachCall = 0;
  /// Reifications performed on behalf of call/cc and call/1cc capture.
  uint64_t ReifyForCapture = 0;
  /// Reifications performed by the generic 7.1 attachment natives (the
  /// "no opt" path and uses the compiler cannot recognize).
  uint64_t ReifyForAttachOp = 0;
  /// Pass-through records minted for prompt metadata.
  uint64_t PassThroughRecords = 0;

  // --- Cheap tier: one-shot accounting (paper 6) ----------------------------

  uint64_t UnderflowFusions = 0; ///< Opportunistic one-shot fast paths.
  uint64_t UnderflowCopies = 0;  ///< Copy-on-application restores.
  /// Records promoted Opportunistic/one-shot -> Full by call/cc or a
  /// composable-continuation capture (the GC's promotions are counted
  /// separately in HeapStats::OneShotPromotions).
  uint64_t OneShotPromotions = 0;

  // --- Cheap tier: continuations and segments -------------------------------

  uint64_t ContinuationCaptures = 0;
  uint64_t ContinuationApplies = 0;
  /// Fibers created by (spawn thunk) (vm/fibers.cpp). Site-driven, so the
  /// bench pipeline gates it like the segment counters.
  uint64_t FiberSpawns = 0;
  /// Fiber suspensions: every park (sleep, channel wait, join wait) and
  /// every yield that actually captured and switched away.
  uint64_t FiberParks = 0;
  uint64_t SegmentOverflows = 0; ///< Stack splits forced by segment limits.
  uint64_t SegmentAllocs = 0;    ///< Stack segments allocated fresh.
  uint64_t SegmentSlotsAllocated = 0; ///< Total slots across those segments.
  /// Segment requests satisfied from the recycling pool instead of a fresh
  /// allocation (paper 5: Chez recycles segments so overflow/underflow
  /// never pays malloc on the steady state).
  uint64_t SegmentRecycles = 0;

  // --- Cheap tier: nursery (mark-frame/pair bump allocator) -----------------

  uint64_t NurseryResets = 0;     ///< All-dead nursery blocks rewound at GC.
  uint64_t NurseryPromotions = 0; ///< Nursery blocks tenured (had survivors).

  // --- Cheap tier: resource governance (support/limits.h) -------------------

  uint64_t SafePointPolls = 0;    ///< Fuel-exhaustion polls of the dispatch
                                  ///< loop (deadline/interrupt/trip checks).
  uint64_t LimitHeapTrips = 0;    ///< Heap byte budget trips delivered.
  uint64_t LimitStackTrips = 0;   ///< Segment budget trips delivered.
  uint64_t LimitTimeoutTrips = 0; ///< Wall-clock deadline trips delivered.
  uint64_t LimitInterrupts = 0;   ///< requestInterrupt() deliveries.
  uint64_t FaultsInjected = 0;    ///< Injections fired (support/faults.h).

  // --- Detail tier: mark-frame representation transitions (paper 7.5) -------

  /// "no attachment" -> one-mark frame.
  uint64_t MarkFrameCreates = 0;
  /// N-entry frame -> (N+1)-entry frame (new key on the same frame).
  uint64_t MarkFrameExtends = 0;
  /// Same-size copy overwriting an existing key's binding.
  uint64_t MarkFrameRebinds = 0;

  // --- Detail tier: continuation-mark-set-first cache (paper 7.5) -----------

  uint64_t MarkFirstLookups = 0;       ///< markListFirst calls.
  uint64_t MarkFirstCacheHits = 0;     ///< Lookups answered by a cache entry.
  uint64_t MarkFirstCacheMisses = 0;   ///< Undelimited lookups that walked
                                       ///< to an answer with no cache hit.
  uint64_t MarkFirstCacheInstalls = 0; ///< N/2 path-compression installs.
  uint64_t MarkFirstCellsWalked = 0;   ///< Cumulative list cells visited.
  uint64_t MarkSetCaptures = 0;        ///< current-continuation-marks et al.
  uint64_t NurseryAllocs = 0;          ///< Objects placed in the nursery.

  /// Zeroes every counter.
  void reset() { *this = VMStats(); }

  /// Fieldwise difference (this - Since); for before/after measurement.
  VMStats delta(const VMStats &Since) const;
};

/// One row of the counter table: a stable external name for a field.
struct StatsCounterDesc {
  const char *Name;         ///< Kebab-case, e.g. "underflow-fusions".
  uint64_t VMStats::*Field; ///< The counter itself.
};

/// The full counter table, in declaration order. \p Count receives the
/// number of entries.
const StatsCounterDesc *statsCounters(int &Count);

/// True: the detail tier is always compiled in. Benchmark provenance
/// records it.
constexpr bool statsDetailEnabled() { return true; }

/// Prints a human-readable two-column counter table, zero rows included.
void printStatsTable(const VMStats &S, std::FILE *Out);

} // namespace cmk

// Detail-tier increment through a possibly-null VMStats pointer: exactly
// one branch.
#define CMK_STAT_DETAIL(SPtr, FIELD)                                           \
  do {                                                                         \
    if (::cmk::VMStats *CmkS_ = (SPtr))                                        \
      ++CmkS_->FIELD;                                                          \
  } while (false)
#define CMK_STAT_DETAIL_ADD(SPtr, FIELD, N)                                    \
  do {                                                                         \
    if (::cmk::VMStats *CmkS_ = (SPtr))                                        \
      CmkS_->FIELD += (N);                                                     \
  } while (false)

#endif // CMARKS_SUPPORT_STATS_H
