//===- support/stats.cpp - VM event-counter subsystem ---------*- C++ -*-===//

#include "support/stats.h"

namespace cmk {

namespace {

const StatsCounterDesc Counters[] = {
    // Cheap tier.
    {"reifications", &VMStats::Reifications},
    {"reify-tail-frame", &VMStats::ReifyTailFrame},
    {"reify-split", &VMStats::ReifySplit},
    {"reify-attach-call", &VMStats::ReifyForAttachCall},
    {"reify-capture", &VMStats::ReifyForCapture},
    {"reify-attach-op", &VMStats::ReifyForAttachOp},
    {"pass-through-records", &VMStats::PassThroughRecords},
    {"underflow-fusions", &VMStats::UnderflowFusions},
    {"underflow-copies", &VMStats::UnderflowCopies},
    {"one-shot-promotions", &VMStats::OneShotPromotions},
    {"continuation-captures", &VMStats::ContinuationCaptures},
    {"continuation-applies", &VMStats::ContinuationApplies},
    {"fiber-spawns", &VMStats::FiberSpawns},
    {"fiber-parks", &VMStats::FiberParks},
    {"segment-overflows", &VMStats::SegmentOverflows},
    {"segment-allocs", &VMStats::SegmentAllocs},
    {"segment-slots-allocated", &VMStats::SegmentSlotsAllocated},
    {"segment-recycles", &VMStats::SegmentRecycles},
    {"nursery-resets", &VMStats::NurseryResets},
    {"nursery-promotions", &VMStats::NurseryPromotions},
    {"safe-point-polls", &VMStats::SafePointPolls},
    {"limit-heap-trips", &VMStats::LimitHeapTrips},
    {"limit-stack-trips", &VMStats::LimitStackTrips},
    {"limit-timeout-trips", &VMStats::LimitTimeoutTrips},
    {"limit-interrupts", &VMStats::LimitInterrupts},
    {"faults-injected", &VMStats::FaultsInjected},
    // Detail tier.
    {"mark-frame-creates", &VMStats::MarkFrameCreates},
    {"mark-frame-extends", &VMStats::MarkFrameExtends},
    {"mark-frame-rebinds", &VMStats::MarkFrameRebinds},
    {"mark-first-lookups", &VMStats::MarkFirstLookups},
    {"mark-first-cache-hits", &VMStats::MarkFirstCacheHits},
    {"mark-first-cache-misses", &VMStats::MarkFirstCacheMisses},
    {"mark-first-cache-installs", &VMStats::MarkFirstCacheInstalls},
    {"mark-first-cells-walked", &VMStats::MarkFirstCellsWalked},
    {"mark-set-captures", &VMStats::MarkSetCaptures},
    {"nursery-allocs", &VMStats::NurseryAllocs},
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
