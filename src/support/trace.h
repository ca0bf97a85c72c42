//===- support/trace.h - VM event-tracing subsystem -----------*- C++ -*-===//
///
/// \file
/// Per-engine structured event tracing: the *when* and *in what order*
/// companion to the aggregate counters of support/stats.h. Every counter
/// the evaluation sections reason about has a corresponding timestamped
/// event here — reification split by cause (7.2), opportunistic one-shot
/// fusion versus copy-on-application (6), segment allocation and overflow
/// splits (5), call/cc capture and application, dynamic-wind entry/exit,
/// mark-frame representation transitions, and mark-cache behaviour (7.5)
/// — so a run can be rendered as a timeline instead of a total.
///
/// Every event is compiled into every build. Recording is switched on
/// and off at runtime: while tracing is stopped each record site costs
/// one flag load and one predictable branch (plus a null test where the
/// site reaches the buffer through a pointer), including the per-update
/// mark-frame and per-lookup mark-cache sites on the marks layer's hot
/// paths.
///
/// Events land in a fixed-capacity ring buffer that grows on demand up to
/// its capacity: a ring that fills only partly costs only what it holds,
/// recording allocates only while the ring grows, and a long run keeps
/// the *newest* window of events (with a dropped-event count for
/// honesty). Span-shaped events (wcm extents, dynamic-wind bodies, user
/// profiling spans) come in Begin/End pairs so the Chrome trace-event
/// export renders them as stacked slices; the exporter re-balances pairs
/// broken by ring wraparound or by continuation jumps.
///
/// The export format is Chrome trace-event JSON ("traceEvents" array of
/// B/E/i phases, microsecond timestamps), loadable in ui.perfetto.dev or
/// chrome://tracing, tagged with schema "cmarks-trace-v1" in otherData.
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_SUPPORT_TRACE_H
#define CMARKS_SUPPORT_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

// Nothing in the library reads CMARKS_TRACE. The default stays only
// because perfbench's production-build gate (perfbench/src/main.cpp)
// reads it to report and refuse a trace build.
#ifndef CMARKS_TRACE
#define CMARKS_TRACE 0
#endif

namespace cmk {

/// Every traced event kind. Keep in sync with the descriptor table in
/// trace.cpp (traceEventDescs).
enum class TraceEv : uint8_t {
  // --- Reification, by cause (paper 6/7.2) ----------------------------------
  ReifyTailFrame,  ///< reifyCurrentFrame: tail attachment ops, tail capture.
  ReifySplit,      ///< reifyAtSp: non-tail capture, CallAttach, overflow.
  AttachCallReify, ///< The CallAttach convention forced a reification.
  AttachOpReify,   ///< A generic 7.1 attachment native forced one.
  // --- One-shot accounting (paper 6) ----------------------------------------
  UnderflowFuse,   ///< Opportunistic one-shot fused back without copying.
  UnderflowCopy,   ///< Copy-on-application restore.
  OneShotPromote,  ///< Record promoted Opportunistic/one-shot -> Full.
  // --- Continuations and segments -------------------------------------------
  Capture,         ///< call/cc or call/1cc capture (arg: 1 for call/1cc).
  ContApply,       ///< Continuation applied to a value.
  ContJump,        ///< Machine jumped to a continuation (aborts, prompts).
  SegmentAlloc,    ///< Stack segment allocated (arg: capacity in slots).
  SegmentOverflow, ///< Stack split forced by a segment limit.
  // --- Span-shaped VM events ------------------------------------------------
  WindEnter,       ///< dynamic-wind extent entered (Begin).
  WindExit,        ///< dynamic-wind extent left (End).
  MarksPush,       ///< Non-tail wcm extent entered: marks-register push
                   ///< (Begin).
  MarksPop,        ///< wcm extent left: an explicit marks-register pop, or
                   ///< an underflow restoring a record whose marks list is
                   ///< shorter than the register's (End; one per pop).
  AttachSet,       ///< Tail-position attachment set on a reified frame
                   ///< (Begin; the extent ends at consume or underflow).
  AttachConsume,   ///< Tail-position attachment consumed (End).
  // --- User profiling spans (#%trace-span-* natives) ------------------------
  SpanBegin,       ///< Labeled user span opened.
  SpanEnd,         ///< Labeled user span closed.
  Instant,         ///< Labeled user instant (stack snapshots).
  // --- Serving-job correlation (support/pool.h) -----------------------------
  JobBegin,        ///< Pool job started on this engine (label "job-<id>",
                   ///< arg = job id; Begin).
  JobEnd,          ///< Pool job finished (End).
  // --- Worker supervision (support/pool.h) ----------------------------------
  WorkerRestartBegin, ///< Pool worker began rebuilding its engine after a
                      ///< fatal (beyond-reserve) job failure (arg = worker
                      ///< index; Begin). Recorded last in the retired
                      ///< engine's ring, so ring wraparound never drops it.
  WorkerRestartEnd,   ///< Replacement engine is serving again (arg = full
                      ///< rebuild time in ns, including engine
                      ///< construction; End).
  // --- Segment recycling (paper 5) ------------------------------------------
  SegmentRecycle,  ///< Segment request served from the recycling pool
                   ///< instead of malloc (arg: capacity in slots).
  // --- Marks layer (paper 7.5) ----------------------------------------------
  MarkFrameCreate, ///< "no attachment" -> one-mark frame.
  MarkFrameExtend, ///< N-entry frame -> (N+1)-entry frame.
  MarkFrameRebind, ///< Same-size copy overwriting a binding.
  MarkCacheHit,    ///< continuation-mark-set-first answered from the cache.
  MarkCacheInstall,///< N/2 path-compression cache install.
  MarkSetCapture,  ///< current-continuation-marks et al. captured a set.

  NumKinds
};

/// One recorded event. Fixed-size so recording allocates nothing per
/// event: labels are truncated into the inline array.
struct TraceEvent {
  uint64_t TimeNs; ///< steady-clock nanoseconds (cmk::nowNanos).
  uint64_t Arg;    ///< Kind-specific payload (slot counts, flags), else 0.
  TraceEv Kind;
  char Label[23];  ///< NUL-terminated; empty = use the kind's name.
};

static_assert(sizeof(TraceEvent) == 40, "keep the ring buffer dense");

/// One row of the event descriptor table: stable external names for the
/// JSON export, a Perfetto category, and the span phase.
struct TraceEventDesc {
  const char *Name;     ///< Kebab-case, e.g. "underflow-fuse".
  const char *Category; ///< Perfetto category, e.g. "reify", "marks".
  char Phase;           ///< 'B' begin, 'E' end, 'i' instant.
};

/// The full descriptor table, indexed by TraceEv. \p Count receives the
/// number of entries (== TraceEv::NumKinds).
const TraceEventDesc *traceEventDescs(int &Count);

/// Fixed-capacity ring of TraceEvents. One per VM; recording is enabled
/// and disabled at runtime ((runtime-trace-start!) / -stop!), and the
/// record macros below compile to a flag test when stopped.
class TraceBuffer {
public:
  static constexpr uint32_t DefaultCapacity = 64 * 1024;
  static constexpr uint32_t MinCapacity = 8;

  /// Recording gate; tested by every record site. Public so the macro can
  /// read it without a call.
  bool Enabled = false;

  /// Clears the buffer and starts recording. \p Capacity of 0 keeps the
  /// current capacity (DefaultCapacity initially). The trace epoch (JSON
  /// ts 0) is the moment of this call.
  void start(uint32_t Capacity = 0);

  /// Stops recording; the buffer's contents stay exportable.
  void stop() { Enabled = false; }

  /// Drops all events (and sets capacity when nonzero) without touching
  /// the enabled flag or the epoch.
  void reset(uint32_t Capacity = 0);

  /// Records an event; the ring overwrites the oldest once full.
  void record(TraceEv Kind, uint64_t Arg = 0);

  /// Records with a label (truncated to the inline array).
  void record(TraceEv Kind, const char *Label, size_t LabelLen,
              uint64_t Arg = 0);

  /// Number of events currently held (<= capacity).
  uint64_t size() const;
  /// Events recorded since start(); size() + dropped().
  uint64_t total() const { return Head; }
  /// Events overwritten by ring wraparound.
  uint64_t dropped() const;
  uint32_t capacity() const { return Cap; }
  /// TimeNs of the last start(); 0 before the first. Used to place this
  /// buffer on a common timeline when merging multi-engine traces.
  uint64_t epochNs() const { return EpochNs; }

  /// The \p I-th held event, oldest first (0 <= I < size()).
  const TraceEvent &at(uint64_t I) const;

  /// Serializes the buffer as Chrome trace-event JSON (Perfetto-loadable;
  /// schema "cmarks-trace-v1"). Unbalanced Begin/End pairs — ring
  /// wraparound, continuation jumps out of an extent — are repaired:
  /// orphaned Ends are dropped, unclosed Begins are closed at the final
  /// timestamp.
  std::string toJson() const;

  /// Copyable: EnginePool workers snapshot their ring into pool-owned
  /// storage before the engine dies, so a pool-wide timeline can be
  /// exported after shutdown.

private:
  /// The slot the next event goes in: appended until the ring first
  /// fills, then the oldest.
  TraceEvent &nextSlot();

  /// Grows on demand up to Cap events, then wraps.
  std::vector<TraceEvent> Events;
  uint32_t Cap = 0;    ///< Set on first start()/reset()/record().
  uint64_t Head = 0;   ///< Monotonic count of events ever recorded.
  uint64_t EpochNs = 0;///< TimeNs of start(); JSON ts are relative to it.
};

/// Merges several engines' trace buffers into one Chrome trace-event JSON
/// document: buffer I renders as tid I+1 named \p ThreadNames[I], all on
/// a common timeline anchored at the earliest buffer epoch. Used by
/// EnginePool to show named per-job spans across workers. Buffers that
/// never started are skipped.
std::string mergedTraceJson(const std::vector<const TraceBuffer *> &Buffers,
                            const std::vector<std::string> &ThreadNames);

} // namespace cmk

// Record through a TraceBuffer lvalue (VM-internal sites): one flag test
// when tracing is stopped.
#define CMK_TRACE_EV(TB, KIND, ...)                                            \
  do {                                                                         \
    if ((TB).Enabled)                                                          \
      (TB).record(::cmk::TraceEv::KIND, ##__VA_ARGS__);                        \
  } while (false)

// Record through a possibly-null TraceBuffer pointer (heap- and
// marks-layer sites that may run without an attached VM).
#define CMK_TRACE_EV_P(TPtr, KIND, ...)                                        \
  do {                                                                         \
    ::cmk::TraceBuffer *CmkT_ = (TPtr);                                        \
    if (CmkT_ && CmkT_->Enabled)                                               \
      CmkT_->record(::cmk::TraceEv::KIND, ##__VA_ARGS__);                      \
  } while (false)

#endif // CMARKS_SUPPORT_TRACE_H
