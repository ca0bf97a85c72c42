//===- support/stats.cpp - VM event-counter subsystem ---------*- C++ -*-===//

#include "support/stats.h"

namespace cmk {

namespace {

const StatsCounterDesc Counters[] = {
    // Cheap tier.
    {"reifications", &VMStats::Reifications, false},
    {"reify-tail-frame", &VMStats::ReifyTailFrame, false},
    {"reify-split", &VMStats::ReifySplit, false},
    {"reify-attach-call", &VMStats::ReifyForAttachCall, false},
    {"reify-capture", &VMStats::ReifyForCapture, false},
    {"reify-attach-op", &VMStats::ReifyForAttachOp, false},
    {"pass-through-records", &VMStats::PassThroughRecords, false},
    {"underflow-fusions", &VMStats::UnderflowFusions, false},
    {"underflow-copies", &VMStats::UnderflowCopies, false},
    {"one-shot-promotions", &VMStats::OneShotPromotions, false},
    {"continuation-captures", &VMStats::ContinuationCaptures, false},
    {"continuation-applies", &VMStats::ContinuationApplies, false},
    {"fiber-spawns", &VMStats::FiberSpawns, false},
    {"fiber-parks", &VMStats::FiberParks, false},
    {"segment-overflows", &VMStats::SegmentOverflows, false},
    {"segment-allocs", &VMStats::SegmentAllocs, false},
    {"segment-slots-allocated", &VMStats::SegmentSlotsAllocated, false},
    {"segment-recycles", &VMStats::SegmentRecycles, false},
    {"nursery-resets", &VMStats::NurseryResets, false},
    {"nursery-promotions", &VMStats::NurseryPromotions, false},
    {"safe-point-polls", &VMStats::SafePointPolls, false},
    {"limit-heap-trips", &VMStats::LimitHeapTrips, false},
    {"limit-stack-trips", &VMStats::LimitStackTrips, false},
    {"limit-timeout-trips", &VMStats::LimitTimeoutTrips, false},
    {"limit-interrupts", &VMStats::LimitInterrupts, false},
    {"faults-injected", &VMStats::FaultsInjected, false},
    // Detail tier.
    {"mark-frame-creates", &VMStats::MarkFrameCreates, true},
    {"mark-frame-extends", &VMStats::MarkFrameExtends, true},
    {"mark-frame-rebinds", &VMStats::MarkFrameRebinds, true},
    {"mark-first-lookups", &VMStats::MarkFirstLookups, true},
    {"mark-first-cache-hits", &VMStats::MarkFirstCacheHits, true},
    {"mark-first-cache-misses", &VMStats::MarkFirstCacheMisses, true},
    {"mark-first-cache-installs", &VMStats::MarkFirstCacheInstalls, true},
    {"mark-first-cells-walked", &VMStats::MarkFirstCellsWalked, true},
    {"mark-set-captures", &VMStats::MarkSetCaptures, true},
    {"nursery-allocs", &VMStats::NurseryAllocs, true},
};

} // namespace

VMStats VMStats::delta(const VMStats &Since) const {
  VMStats D;
  int N = 0;
  const StatsCounterDesc *Table = statsCounters(N);
  for (int I = 0; I < N; ++I) {
    uint64_t VMStats::*F = Table[I].Field;
    D.*F = this->*F - Since.*F;
  }
  return D;
}

const StatsCounterDesc *statsCounters(int &Count) {
  Count = static_cast<int>(sizeof(Counters) / sizeof(Counters[0]));
  return Counters;
}

void printStatsTable(const VMStats &S, std::FILE *Out) {
  int N = 0;
  const StatsCounterDesc *Table = statsCounters(N);
  std::fprintf(Out, "runtime event counters:\n");
  for (int I = 0; I < N; ++I)
    std::fprintf(Out, "  %-26s %12llu\n", Table[I].Name,
                 static_cast<unsigned long long>(S.*(Table[I].Field)));
}

} // namespace cmk
