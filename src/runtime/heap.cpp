//===- runtime/heap.cpp - Mark-sweep collector implementation -*- C++ -*-===//

#include "runtime/heap.h"

#include "support/faults.h"
#include "support/stats.h"
#include "support/trace.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>

// Recycled segments are poisoned while pooled so a use-after-recycle trips
// AddressSanitizer instead of silently reading stale frames.
#if defined(__SANITIZE_ADDRESS__)
#define CMK_HEAP_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CMK_HEAP_ASAN 1
#endif
#endif
#ifndef CMK_HEAP_ASAN
#define CMK_HEAP_ASAN 0
#endif
#if CMK_HEAP_ASAN
#include <sanitizer/asan_interface.h>
#endif

using namespace cmk;

namespace {
/// Internal pseudo-kind marking a swept (free) chunk inside a block.
constexpr uint8_t FreeChunkKind = 0xFF;

constexpr size_t BlockSize = 1u << 20;      // 1 MiB bump blocks.
constexpr size_t MaxSmallBytes = 1024;      // Larger allocations use malloc.
constexpr uint64_t InitialGCThreshold = 16ull << 20;
constexpr size_t NumSymBuckets = 4096;

// Segment pool tuning: the pool holds at most this many bytes (beyond it,
// dead segments fall back to the sweep's free path), and nursery blocks are
// small enough that an all-dead rewind is the common case.
constexpr uint64_t SegPoolByteCap = 16ull << 20;
constexpr size_t NurseryBlockSize = 256u << 10;
constexpr size_t MaxNurseryObjBytes = 512;
constexpr size_t MaxSpareNurseryBlocks = 4;

/// floor(log2(Bytes)); segment-pool class of a chunk's true size.
size_t segClassOf(size_t Bytes) {
  size_t C = 0;
  while (Bytes > 1) {
    Bytes >>= 1;
    ++C;
  }
  return C;
}

/// The byte range of a pooled chunk that is dead while pooled: everything
/// past Slots[0] (which holds the pool's intrusive next pointer).
char *pooledDeadLo(StackSegObj *S) {
  return reinterpret_cast<char *>(&S->Slots[1]);
}
char *pooledDeadHi(StackSegObj *S) {
  return reinterpret_cast<char *>(S) + S->H.SizeBytes;
}

void poisonPooledSeg(StackSegObj *S) {
  char *Lo = pooledDeadLo(S), *Hi = pooledDeadHi(S);
  if (Hi <= Lo)
    return;
#ifndef NDEBUG
  std::memset(Lo, 0xAB, Hi - Lo);
#endif
#if CMK_HEAP_ASAN
  __asan_poison_memory_region(Lo, Hi - Lo);
#endif
}

void unpoisonPooledSeg(StackSegObj *S) {
#if CMK_HEAP_ASAN
  char *Lo = pooledDeadLo(S), *Hi = pooledDeadHi(S);
  if (Hi > Lo)
    __asan_unpoison_memory_region(Lo, Hi - Lo);
#else
  (void)S;
#endif
}

struct FreeChunk {
  ObjHeader H;
  void *Next;
};

uint64_t fnv1a(const char *Data, uint32_t Len) {
  uint64_t Hash = 1469598103934665603ull;
  for (uint32_t I = 0; I < Len; ++I) {
    Hash ^= static_cast<unsigned char>(Data[I]);
    Hash *= 1099511628211ull;
  }
  return Hash;
}

size_t sizeClassOf(size_t RoundedBytes) { return RoundedBytes / 16 - 1; }

/// Retires \p G's emergency grants once usage (\p Bytes, \p Segments) is
/// back under \p L's budgets, so the next exhaustion trips again.
void rearmGrants(BudgetGrants &G, const EngineLimits *L, uint64_t Bytes,
                 uint32_t Segments) {
  if (G.HeadroomActive && (!L || L->HeapBytes == 0 || Bytes <= L->HeapBytes))
    G.HeadroomActive = false;
  if (G.ReserveActive && (!L || L->MaxLiveSegments == 0 ||
                          Segments < L->MaxLiveSegments))
    G.ReserveActive = false;
}
} // namespace

GCRoot::GCRoot(Heap &H, Value V) : H(H), V(V) { H.TempRoots.push_back(this); }

GCRoot::~GCRoot() {
  assert(!H.TempRoots.empty() && H.TempRoots.back() == this &&
         "GCRoots must nest like a stack");
  H.TempRoots.pop_back();
}

RootedValues::RootedValues(Heap &H) : H(H) { H.TempVectors.push_back(this); }

RootedValues::~RootedValues() {
  assert(!H.TempVectors.empty() && H.TempVectors.back() == this &&
         "RootedValues must nest like a stack");
  H.TempVectors.pop_back();
}

Heap::Heap() : GCThreshold(InitialGCThreshold) {
  SymBuckets.resize(NumSymBuckets);
}

Heap::~Heap() {
  // Run finalizers for string ports, then release all memory.
  auto FinalizeObj = [](ObjHeader *O) {
    if (O->Kind == ObjKind::Port && O->Aux == 1)
      delete static_cast<std::string *>(reinterpret_cast<PortObj *>(O)->Stream);
  };
  for (Block &B : Blocks) {
    char *P = B.Mem;
    while (P < B.Mem + B.Used) {
      ObjHeader *O = reinterpret_cast<ObjHeader *>(P);
      if (static_cast<uint8_t>(O->Kind) != FreeChunkKind)
        FinalizeObj(O);
      P += O->SizeBytes;
    }
    std::free(B.Mem);
  }
  for (Block &B : NurseryBlocks) {
    char *P = B.Mem;
    while (P < B.Mem + B.Used) {
      ObjHeader *O = reinterpret_cast<ObjHeader *>(P);
      if (static_cast<uint8_t>(O->Kind) != FreeChunkKind)
        FinalizeObj(O);
      P += O->SizeBytes;
    }
    std::free(B.Mem);
  }
  for (ObjHeader *O : LargeObjs) {
    if (O->Kind == ObjKind::StackSeg && (O->Flags & objflags::SegPooled))
      unpoisonPooledSeg(reinterpret_cast<StackSegObj *>(O));
    else
      FinalizeObj(O);
    std::free(O);
  }
}

void Heap::addRootSource(GCRootSource *Src) { RootSources.push_back(Src); }

void Heap::removeRootSource(GCRootSource *Src) {
  for (size_t I = 0; I < RootSources.size(); ++I) {
    if (RootSources[I] == Src) {
      RootSources.erase(RootSources.begin() + I);
      return;
    }
  }
}

void *Heap::checkedMalloc(size_t Bytes, const char *What) {
  void *Mem = std::malloc(Bytes);
  if (!Mem) {
    // Real OOM from the host: the segment pool is pure slack, give it back
    // first; a collection may then return free chunks to size-class lists
    // and, more importantly, lets a retry reuse address space the
    // allocator already holds.
    releasePooledSegments();
    if (!GCPaused && !InGC)
      collect();
    Mem = std::malloc(Bytes);
  }
  if (!Mem)
    throw ResourceExhausted{TripKind::HeapLimit, What};
  return Mem;
}

void Heap::checkHeapBudget(size_t Rounded) {
  // Failing fault sites: pretend this allocation exhausted the budget.
  if (CMK_FAULT(Faults, Oom))
    injectHeapTrip();
  if (LimitsPtr && LimitsPtr->HeapBytes)
    checkByteBudget(BytesInUse, *LimitsPtr, EngineGrants, Rounded);
  if (CurAccount && CurAccount->Limits.HeapBytes)
    checkByteBudget(CurAccount->Bytes, CurAccount->Limits, CurAccount->Grants,
                    Rounded);
}

void Heap::checkByteBudget(const uint64_t &Used, const EngineLimits &L,
                           BudgetGrants &G, size_t Rounded) {
  uint64_t Budget = L.HeapBytes;
  if (Budget == 0 || Used + Rounded <= Budget)
    return;

  // Pooled-but-free segments count against the engine's budget (they are
  // committed memory; accounts never count them); before escalating to a
  // collection or a headroom grant, give that slack back so a program
  // cycling segments within its budget never trips just because the pool
  // filled.
  if (&Used == &BytesInUse && PooledSegCount != 0) {
    releasePooledSegments();
    if (Used + Rounded <= Budget)
      return;
  }

  if (!G.HeadroomActive) {
    // Over budget for the first time: collecting may shed garbage that
    // the usage still counts.
    if (!GCPaused && !InGC) {
      collect();
      if (Used + Rounded <= Budget)
        return;
    }
    // Genuinely at the limit. Grant the headroom slab and leave a trip
    // for the VM's next safe point; this allocation (and the error
    // handling it feeds) proceeds out of the headroom. The slab is
    // anchored at the usage observed right now, not at the budget:
    // when the grant happens while GC is paused (reader/compiler), the
    // uncollectable garbage may already put usage far past the budget,
    // and a budget-anchored slab would be spent before the first
    // allocation it was meant to cover.
    G.HeadroomActive = true;
    G.HeadroomBase = std::max(Budget, Used);
    notePendingTrip(TripKind::HeapLimit);
    return;
  }

  if (Used + Rounded <= G.HeadroomBase + L.HeapHeadroomBytes)
    return;
  // The headroom itself is nearly gone. One last collection can rescue a
  // program whose handler dropped references without a GC happening yet.
  if (!GCPaused && !InGC) {
    collect();
    if (Used + Rounded <= Budget ||
        (G.HeadroomActive &&
         Used + Rounded <= G.HeadroomBase + L.HeapHeadroomBytes))
      return;
  }
  throw ResourceExhausted{TripKind::HeapLimit,
                          "heap limit exceeded beyond reserved headroom"};
}

void Heap::checkSegmentBudget(const uint32_t &Live, const EngineLimits &L,
                              BudgetGrants &G) {
  uint32_t Max = L.MaxLiveSegments;
  if (Max == 0 || Live < Max)
    return;
  if (!G.ReserveActive) {
    // Dead segments may still be counted; collect before tripping.
    if (!GCPaused && !InGC)
      collect();
    if (Live >= Max) {
      // At the limit: grant the reserve so the overflow in progress
      // completes and the limit exception has stack to run on.
      G.ReserveActive = true;
      notePendingTrip(TripKind::StackLimit);
    }
  } else if (Live >= Max + L.ReserveSegments) {
    throw ResourceExhausted{TripKind::StackLimit,
                            "stack segment limit exceeded beyond reserve"};
  }
}

void Heap::injectHeapTrip() {
  EngineGrants.HeadroomActive = true;
  EngineGrants.HeadroomBase =
      std::max(LimitsPtr ? LimitsPtr->HeapBytes : uint64_t(0), BytesInUse);
  notePendingTrip(TripKind::HeapLimit);
}

void Heap::notePendingTrip(TripKind K) {
  if (PendingTrip == TripKind::None)
    PendingTrip = K;
  if (FuelPoke)
    *FuelPoke = 0;
}

void Heap::resetGovernance() {
  PendingTrip = TripKind::None;
  if (EngineGrants.HeadroomActive || EngineGrants.ReserveActive) {
    if (!GCPaused && !InGC)
      collect(); // Re-arms the grants below when usage is back under budget.
    // With no limit configured the grant is vestigial; always retire it.
    if (!LimitsPtr || LimitsPtr->HeapBytes == 0)
      EngineGrants.HeadroomActive = false;
    if (!LimitsPtr || LimitsPtr->MaxLiveSegments == 0)
      EngineGrants.ReserveActive = false;
  }
}

ResourceAccount *Heap::openAccount(const EngineLimits &L, uint64_t JobId) {
  auto A = std::make_unique<ResourceAccount>();
  A->Limits = L;
  A->JobId = JobId;
  A->Slot = static_cast<uint32_t>(Accounts.size());
  Accounts.push_back(std::move(A));
  return Accounts.back().get();
}

void Heap::releaseAccount(ResourceAccount *A) {
  if (--A->Refs != 0)
    return;
  if (CurAccount == A)
    CurAccount = nullptr;
  // Swap-remove: the last account takes A's slot (A itself when last).
  uint32_t Slot = A->Slot;
  Accounts[Slot] = std::move(Accounts.back());
  Accounts[Slot]->Slot = Slot;
  Accounts.pop_back();
}

void Heap::setAccount(ResourceAccount *A) {
  if (A == CurAccount)
    return;
  if (CurAccount) {
    CurAccount->PendingTrip = PendingTrip;
    PendingTrip = TripKind::None;
  }
  CurAccount = A;
  if (A && A->PendingTrip != TripKind::None) {
    TripKind T = A->PendingTrip;
    A->PendingTrip = TripKind::None;
    notePendingTrip(T);
  }
}

void Heap::reclaimAccounts(uint64_t FreedBytes, uint64_t YoungBytes,
                           uint64_t FreedSegments, uint64_t YoungSegments) {
  auto Share = [](uint64_t Freed, uint64_t Young, uint64_t YoungTotal) {
    if (YoungTotal == 0)
      return uint64_t(0);
    return static_cast<uint64_t>(static_cast<double>(Freed) *
                                 static_cast<double>(Young) /
                                 static_cast<double>(YoungTotal));
  };
  for (const std::unique_ptr<ResourceAccount> &A : Accounts) {
    A->Bytes -=
        std::min(A->Bytes, Share(FreedBytes, A->YoungBytes, YoungBytes));
    A->Segments -= static_cast<uint32_t>(std::min<uint64_t>(
        A->Segments, Share(FreedSegments, A->YoungSegments, YoungSegments)));
    A->YoungBytes = A->YoungSegments = 0;
    rearmGrants(A->Grants, &A->Limits, A->Bytes, A->Segments);
  }
}

void *Heap::allocRaw(size_t Bytes, ObjKind Kind) {
  size_t Rounded = (Bytes + 15) & ~size_t(15);
  // Semantics-preserving fault site: force a collection at an arbitrary
  // allocation, shaking out missing-root bugs deterministically.
  if (CMK_FAULT(Faults, Gc) && !GCPaused && !InGC)
    collect();
  maybeCollect();
  // Budget check happens before any memory or accounting changes, so a
  // ResourceExhausted throw leaves the heap exactly as it was.
  checkHeapBudget(Rounded);

  void *Mem = nullptr;
  if (Rounded > MaxSmallBytes) {
    Mem = checkedMalloc(Rounded, "out of memory (large allocation)");
    LargeObjs.push_back(static_cast<ObjHeader *>(Mem));
  } else {
    size_t Class = sizeClassOf(Rounded);
    if (FreeLists[Class]) {
      Mem = FreeLists[Class];
      FreeLists[Class] = static_cast<FreeChunk *>(Mem)->Next;
    } else {
      if (Blocks.empty() || Blocks.back().Used + Rounded > Blocks.back().Size) {
        char *BlockMem = static_cast<char *>(
            checkedMalloc(BlockSize, "out of memory (block allocation)"));
        Blocks.push_back({BlockMem, 0, BlockSize});
      }
      Block &B = Blocks.back();
      Mem = B.Mem + B.Used;
      B.Used += Rounded;
    }
  }

  std::memset(Mem, 0, Rounded);
  ObjHeader *O = static_cast<ObjHeader *>(Mem);
  O->Kind = Kind;
  O->SizeBytes = static_cast<uint32_t>(Rounded);
  BytesSinceGC += Rounded;
  Stats.BytesAllocated += Rounded;
  BytesInUse += Rounded;
  chargeBytes(Rounded);
  return Mem;
}

void *Heap::allocNursery(size_t Bytes, ObjKind Kind) {
  size_t Rounded = (Bytes + 15) & ~size_t(15);
  if (Rounded > MaxNurseryObjBytes)
    return allocRaw(Bytes, Kind);
  // Identical governance to allocRaw: the nursery changes where young
  // objects land, not what an allocation is allowed to do.
  if (CMK_FAULT(Faults, Gc) && !GCPaused && !InGC)
    collect();
  maybeCollect();
  checkHeapBudget(Rounded);

  if (NurseryBlocks.empty() ||
      NurseryBlocks.back().Used + Rounded > NurseryBlocks.back().Size) {
    // Prefer a spare rewound block over growing the nursery.
    size_t Empty = SIZE_MAX;
    for (size_t I = 0; I + 1 < NurseryBlocks.size(); ++I)
      if (NurseryBlocks[I].Used == 0) {
        Empty = I;
        break;
      }
    if (Empty != SIZE_MAX) {
      std::swap(NurseryBlocks[Empty], NurseryBlocks.back());
    } else {
      char *Mem = static_cast<char *>(
          checkedMalloc(NurseryBlockSize, "out of memory (nursery block)"));
      NurseryBlocks.push_back({Mem, 0, NurseryBlockSize});
    }
  }
  Block &B = NurseryBlocks.back();
  void *Mem = B.Mem + B.Used;
  B.Used += Rounded;

  std::memset(Mem, 0, Rounded);
  ObjHeader *O = static_cast<ObjHeader *>(Mem);
  O->Kind = Kind;
  O->SizeBytes = static_cast<uint32_t>(Rounded);
  BytesSinceGC += Rounded;
  Stats.BytesAllocated += Rounded;
  BytesInUse += Rounded;
  chargeBytes(Rounded);
  CMK_STAT_DETAIL(VmStatsPtr, NurseryAllocs);
  return Mem;
}

void Heap::maybeCollect() {
  if (BytesSinceGC >= GCThreshold && !GCPaused && !InGC)
    collect();
}

void Heap::traceValue(Value V) {
  if (!V.isObj())
    return;
  ObjHeader *O = V.obj();
  if (O->Flags & objflags::GCMark)
    return;
  O->Flags |= objflags::GCMark;
  MarkWorklist.push_back(O);
}

void Heap::traceObject(ObjHeader *O) {
  switch (O->Kind) {
  case ObjKind::Pair: {
    auto *P = reinterpret_cast<Pair *>(O);
    traceValue(P->Car);
    traceValue(P->Cdr);
    break;
  }
  case ObjKind::String:
  case ObjKind::Symbol:
  case ObjKind::Flonum:
    break;
  case ObjKind::Vector: {
    auto *V = reinterpret_cast<VectorObj *>(O);
    for (uint32_t I = 0; I < V->Len; ++I)
      traceValue(V->Elems[I]);
    break;
  }
  case ObjKind::Closure: {
    auto *C = reinterpret_cast<ClosureObj *>(O);
    traceValue(C->Code);
    for (uint32_t I = 0; I < C->NumFree; ++I)
      traceValue(C->Free[I]);
    break;
  }
  case ObjKind::Native:
    traceValue(reinterpret_cast<NativeObj *>(O)->Name);
    break;
  case ObjKind::Code: {
    auto *C = reinterpret_cast<CodeObj *>(O);
    traceValue(C->Name);
    Value *Consts = C->consts();
    for (uint32_t I = 0; I < C->NumConsts; ++I)
      traceValue(Consts[I]);
    break;
  }
  case ObjKind::StackSeg: {
    // All slots are zero-initialized at allocation, so slots above the live
    // area hold valid (possibly stale) values; tracing them conservatively
    // retains at most one dead frame's worth of garbage per segment.
    auto *S = reinterpret_cast<StackSegObj *>(O);
    // A pooled segment's slots are dead (poisoned in sanitized builds);
    // it can only be reached through a stale reference, never traced into.
    if (S->H.Flags & objflags::SegPooled)
      break;
    for (uint32_t I = 0; I < S->Capacity; ++I)
      traceValue(S->Slots[I]);
    break;
  }
  case ObjKind::Cont: {
    auto *K = reinterpret_cast<ContObj *>(O);
    // Paper section 6: the collector promotes opportunistic one-shot
    // continuations to full continuations, so the underflow handler will
    // not attempt to fuse stacks afterwards.
    if (K->shot() == ContShot::Opportunistic) {
      K->setShot(ContShot::Full);
      ++Stats.OneShotPromotions;
    }
    traceValue(K->Seg);
    traceValue(K->RetCode);
    traceValue(K->Marks);
    traceValue(K->Winders);
    traceValue(K->Next);
    traceValue(K->PromptTag);
    traceValue(K->MarkStackCopy);
    break;
  }
  case ObjKind::Box:
    traceValue(reinterpret_cast<BoxObj *>(O)->Val);
    break;
  case ObjKind::HashTable: {
    auto *T = reinterpret_cast<HashTableObj *>(O);
    traceValue(T->Keys);
    traceValue(T->Vals);
    break;
  }
  case ObjKind::Record: {
    auto *R = reinterpret_cast<RecordObj *>(O);
    traceValue(R->TypeTag);
    for (uint32_t I = 0; I < R->NumFields; ++I)
      traceValue(R->Fields[I]);
    break;
  }
  case ObjKind::MarkFrame: {
    auto *M = reinterpret_cast<MarkFrameObj *>(O);
    traceValue(M->CacheKey);
    traceValue(M->CacheVal);
    traceValue(M->CacheTail);
    for (uint32_t I = 0; I < 2 * M->NumEntries; ++I)
      traceValue(M->Entries[I]);
    break;
  }
  case ObjKind::Winder: {
    auto *W = reinterpret_cast<WinderObj *>(O);
    traceValue(W->Before);
    traceValue(W->After);
    traceValue(W->Marks);
    traceValue(W->Next);
    break;
  }
  case ObjKind::Port:
    traceValue(reinterpret_cast<PortObj *>(O)->Name);
    break;
  case ObjKind::CompositeCont: {
    auto *C = reinterpret_cast<CompositeContObj *>(O);
    traceValue(C->BoundaryMarks);
    traceValue(C->Winders);
    traceValue(C->BoundaryWinders);
    for (uint32_t I = 0; I < C->NumRecords; ++I)
      traceValue(C->Records[I]);
    break;
  }
  case ObjKind::Parameter: {
    auto *P = reinterpret_cast<ParameterObj *>(O);
    traceValue(P->Key);
    traceValue(P->Default);
    traceValue(P->Guard);
    traceValue(P->Name);
    break;
  }
  case ObjKind::Fiber: {
    auto *F = reinterpret_cast<FiberObj *>(O);
    traceValue(F->Thunk);
    traceValue(F->ArgsList);
    traceValue(F->Cont);
    traceValue(F->ResumeVal);
    traceValue(F->Result);
    traceValue(F->ErrKindSym);
    traceValue(F->Joiners);
    break;
  }
  }
}

void Heap::markFromWorklist() {
  while (!MarkWorklist.empty()) {
    ObjHeader *O = MarkWorklist.back();
    MarkWorklist.pop_back();
    traceObject(O);
  }
}

bool Heap::hasSurvivor(const Block &B) {
  for (char *P = B.Mem; P < B.Mem + B.Used;) {
    ObjHeader *O = reinterpret_cast<ObjHeader *>(P);
    if (static_cast<uint8_t>(O->Kind) != FreeChunkKind &&
        (O->Flags & (objflags::GCMark | objflags::Immortal)))
      return true;
    P += O->SizeBytes;
  }
  return false;
}

void Heap::retire(ObjHeader *O) {
  if (O->Kind == ObjKind::Port && O->Aux == 1)
    delete static_cast<std::string *>(reinterpret_cast<PortObj *>(O)->Stream);
  if (O->Kind == ObjKind::StackSeg && LiveSegments > 0)
    --LiveSegments;
  BytesInUse -= O->SizeBytes;
}

void Heap::pushFreeChunk(ObjHeader *O) {
  O->Kind = static_cast<ObjKind>(FreeChunkKind);
  auto *F = reinterpret_cast<FreeChunk *>(O);
  size_t Class = sizeClassOf(O->SizeBytes);
  F->Next = FreeLists[Class];
  FreeLists[Class] = F;
}

uint64_t Heap::reservedBytes() const {
  uint64_t Bytes = 0;
  for (const Block &B : Blocks)
    Bytes += B.Size;
  for (const Block &B : NurseryBlocks)
    Bytes += B.Size;
  for (const ObjHeader *O : LargeObjs)
    Bytes += O->SizeBytes;
  return Bytes;
}

void Heap::sweep() {
  uint64_t LiveBytes = 0;
  for (size_t I = 0; I < NumSizeClasses; ++I)
    FreeLists[I] = nullptr;

  // A block in which nothing survived is released whole instead of being
  // threaded onto the free lists, so a block tenured for one transient
  // survivor comes back as soon as that survivor dies.
  std::vector<Block> Kept, Emptied;
  Kept.reserve(Blocks.size());
  for (size_t I = 0; I < Blocks.size(); ++I) {
    Block &B = Blocks[I];
    bool Live = hasSurvivor(B);
    for (char *P = B.Mem; P < B.Mem + B.Used;) {
      ObjHeader *O = reinterpret_cast<ObjHeader *>(P);
      P += O->SizeBytes;
      if (static_cast<uint8_t>(O->Kind) != FreeChunkKind) {
        if (O->Flags & (objflags::GCMark | objflags::Immortal)) {
          O->Flags &= ~objflags::GCMark;
          LiveBytes += O->SizeBytes;
          continue;
        }
        retire(O);
      }
      if (Live)
        pushFreeChunk(O);
    }
    if (Live) {
      Kept.push_back(B);
    } else if (I + 1 == Blocks.size()) {
      B.Used = 0; // The current bump block stays, rewound.
      Kept.push_back(B);
    } else {
      Emptied.push_back(B);
    }
  }
  Blocks.swap(Kept);

  sweepNursery(LiveBytes);
  // Emptied blocks that came from the nursery refill its spares; this runs
  // after sweepNursery so its counters still count only nursery blocks.
  for (Block &B : Emptied) {
    if (B.Size == NurseryBlockSize &&
        NurseryBlocks.size() < MaxSpareNurseryBlocks) {
      B.Used = 0;
      NurseryBlocks.push_back(B);
    } else {
      std::free(B.Mem);
    }
  }

  std::vector<ObjHeader *> SurvivingLarge;
  SurvivingLarge.reserve(LargeObjs.size());
  for (ObjHeader *O : LargeObjs) {
    // Pooled segments first: a stale reference (e.g. a consumed record
    // still reachable from a captured chain) may have marked one, but it
    // is free memory, not a live object — keep it pooled either way.
    if (O->Kind == ObjKind::StackSeg && (O->Flags & objflags::SegPooled)) {
      O->Flags &= ~objflags::GCMark;
      SurvivingLarge.push_back(O);
      continue;
    }
    if ((O->Flags & objflags::GCMark) || (O->Flags & objflags::Immortal)) {
      O->Flags &= ~objflags::GCMark;
      LiveBytes += O->SizeBytes;
      SurvivingLarge.push_back(O);
    } else if (O->Kind == ObjKind::StackSeg &&
               pushPooledSeg(reinterpret_cast<StackSegObj *>(O))) {
      // Dead segment routed into the recycling pool: it stays in LargeObjs
      // and in BytesInUse, but is no longer a live segment.
      if (LiveSegments > 0)
        --LiveSegments;
      SurvivingLarge.push_back(O);
    } else {
      retire(O);
      std::free(O);
    }
  }
  LargeObjs.swap(SurvivingLarge);
  Stats.LiveBytesAfterLastGC = LiveBytes;
}

void Heap::sweepNursery(uint64_t &LiveBytes) {
  std::vector<Block> Kept;
  for (Block &B : NurseryBlocks) {
    if (!hasSurvivor(B)) {
      // Everything in the block died young: rewind it wholesale. Keep a
      // few empty blocks hot for the next mutator burst, free the rest.
      BytesInUse -= B.Used;
      if (B.Used != 0 && VmStatsPtr)
        ++VmStatsPtr->NurseryResets;
      B.Used = 0;
      if (Kept.size() < MaxSpareNurseryBlocks)
        Kept.push_back(B);
      else
        std::free(B.Mem);
      continue;
    }
    // Survivors: tenure the whole block into the mark-sweep block set,
    // threading its dead objects onto the size-class free lists exactly as
    // the tenured sweep would.
    for (char *P = B.Mem; P < B.Mem + B.Used;) {
      ObjHeader *O = reinterpret_cast<ObjHeader *>(P);
      P += O->SizeBytes;
      if (static_cast<uint8_t>(O->Kind) == FreeChunkKind)
        continue;
      if (O->Flags & (objflags::GCMark | objflags::Immortal)) {
        O->Flags &= ~objflags::GCMark;
        LiveBytes += O->SizeBytes;
      } else {
        retire(O);
        pushFreeChunk(O);
      }
    }
    Blocks.push_back(B);
    if (VmStatsPtr)
      ++VmStatsPtr->NurseryPromotions;
  }
  NurseryBlocks.swap(Kept);
}

void Heap::collect() {
  InGC = true;
  ++Stats.Collections;
  // Accounts are charged for what the mutator holds, pooled segments not
  // included, so the yield they share is measured the same way.
  uint64_t HeldBefore = BytesInUse - PooledSegBytes;
  uint32_t SegmentsBefore = LiveSegments;

  for (GCRootSource *Src : RootSources)
    Src->traceRoots(*this);
  for (GCRoot *R : TempRoots)
    traceValue(R->get());
  for (RootedValues *RV : TempVectors)
    for (Value V : RV->Vals)
      traceValue(V);
  // The symbol table is not traced: interned symbols are immortal, and
  // uninterned ones (gensyms) live only while something reaches them.
  markFromWorklist();
  sweep();

  if (!Accounts.empty()) {
    uint64_t HeldAfter = BytesInUse - PooledSegBytes;
    uint32_t FreedSegments =
        SegmentsBefore > LiveSegments ? SegmentsBefore - LiveSegments : 0;
    reclaimAccounts(HeldBefore > HeldAfter ? HeldBefore - HeldAfter : 0,
                    BytesSinceGC, FreedSegments, SegmentsSinceGC);
  }
  BytesSinceGC = 0;
  SegmentsSinceGC = 0;
  GCThreshold = std::max<uint64_t>(InitialGCThreshold,
                                   Stats.LiveBytesAfterLastGC * 2);
  rearmGrants(EngineGrants, LimitsPtr, BytesInUse, LiveSegments);
  InGC = false;
}

// --- Allocation entry points -------------------------------------------------

// The ParamRoots pattern: each allocator stores its Value arguments into
// GCRoots before allocRaw may collect. A fixed GCRoot per argument is cheap
// (one vector push/pop) and keeps the discipline local and auditable.

Value Heap::makePair(Value Car, Value Cdr) {
  GCRoot R1(*this, Car), R2(*this, Cdr);
  auto *P = static_cast<Pair *>(allocNursery(sizeof(Pair), ObjKind::Pair));
  P->Car = R1.get();
  P->Cdr = R2.get();
  return Value::fromObj(&P->H);
}

Value Heap::makeString(const char *Data, uint32_t Len) {
  auto *S = static_cast<StringObj *>(
      allocRaw(sizeof(StringObj) + Len, ObjKind::String));
  S->Len = Len;
  std::memcpy(S->Data, Data, Len);
  return Value::fromObj(&S->H);
}

Value Heap::makeUninitString(uint32_t Len) {
  auto *S = static_cast<StringObj *>(
      allocRaw(sizeof(StringObj) + Len, ObjKind::String));
  S->Len = Len;
  return Value::fromObj(&S->H);
}

Value Heap::makeVector(uint32_t Len, Value Fill) {
  GCRoot R1(*this, Fill);
  auto *V = static_cast<VectorObj *>(
      allocRaw(sizeof(VectorObj) + sizeof(Value) * Len, ObjKind::Vector));
  V->Len = Len;
  for (uint32_t I = 0; I < Len; ++I)
    V->Elems[I] = R1.get();
  return Value::fromObj(&V->H);
}

Value Heap::makeFlonum(double D) {
  auto *F =
      static_cast<FlonumObj *>(allocRaw(sizeof(FlonumObj), ObjKind::Flonum));
  F->Val = D;
  return Value::fromObj(&F->H);
}

Value Heap::makeBox(Value V) {
  GCRoot R1(*this, V);
  auto *B = static_cast<BoxObj *>(allocRaw(sizeof(BoxObj), ObjKind::Box));
  B->Val = R1.get();
  return Value::fromObj(&B->H);
}

Value Heap::makeClosure(Value Code, uint32_t NumFree) {
  GCRoot R1(*this, Code);
  auto *C = static_cast<ClosureObj *>(allocRaw(
      sizeof(ClosureObj) + sizeof(Value) * NumFree, ObjKind::Closure));
  C->NumFree = NumFree;
  C->Code = R1.get();
  for (uint32_t I = 0; I < NumFree; ++I)
    C->Free[I] = Value::undefined();
  return Value::fromObj(&C->H);
}

Value Heap::makeNative(NativeFn Fn, Value Name, int32_t MinArgs,
                       int32_t MaxArgs) {
  GCRoot R1(*this, Name);
  auto *N =
      static_cast<NativeObj *>(allocRaw(sizeof(NativeObj), ObjKind::Native));
  N->Fn = Fn;
  N->Name = R1.get();
  N->MinArgs = MinArgs;
  N->MaxArgs = MaxArgs;
  return Value::fromObj(&N->H);
}

Value Heap::makeCode(uint32_t NumArgs, uint32_t NumLocals, uint32_t FrameSize,
                     uint32_t Flags, Value Name,
                     const std::vector<Value> &Consts,
                     const std::vector<uint8_t> &Instrs) {
  GCRoot R1(*this, Name);
  RootedValues RootedConsts(*this);
  for (Value V : Consts)
    RootedConsts.push(V);
  size_t Bytes = sizeof(CodeObj) + sizeof(Value) * Consts.size() +
                 Instrs.size();
  auto *C = static_cast<CodeObj *>(allocRaw(Bytes, ObjKind::Code));
  C->NumArgs = NumArgs;
  C->NumLocals = NumLocals;
  C->FrameSize = FrameSize;
  C->NumConsts = static_cast<uint32_t>(Consts.size());
  C->NumInstrs = static_cast<uint32_t>(Instrs.size());
  C->Flags = Flags;
  C->Name = R1.get();
  for (size_t I = 0; I < Consts.size(); ++I)
    C->consts()[I] = RootedConsts[I];
  std::memcpy(C->instrs(), Instrs.data(), Instrs.size());
  return Value::fromObj(&C->H);
}

Value Heap::makeStackSeg(uint32_t CapacitySlots) {
  // Segment budget = the continuation-depth limit: deep recursion keeps
  // every overflowed segment live through the underflow-record chain, so
  // counting live segments bounds stack growth without caring how the
  // depth was reached (plain recursion, captured continuations, ...).
  if (LimitsPtr && LimitsPtr->MaxLiveSegments)
    checkSegmentBudget(LiveSegments, *LimitsPtr, EngineGrants);
  if (CurAccount && CurAccount->Limits.MaxLiveSegments)
    checkSegmentBudget(CurAccount->Segments, CurAccount->Limits,
                       CurAccount->Grants);
  size_t Bytes = sizeof(StackSegObj) + sizeof(Value) * CapacitySlots;
  size_t Rounded = (Bytes + 15) & ~size_t(15);

  // Pool first: a recycled chunk reuses memory that is already committed
  // and counted, so it bypasses the allocation governance entirely.
  if (StackSegObj *S = popPooledSeg(Rounded, CapacitySlots)) {
    ++LiveSegments;
    chargeSegment(S->H.SizeBytes);
    if (VmStatsPtr)
      ++VmStatsPtr->SegmentRecycles;
    CMK_TRACE_EV_P(TraceBufPtr, SegmentRecycle, CapacitySlots);
    return Value::fromObj(&S->H);
  }

  // Fresh allocation. Segments always take the individually-malloc'd
  // LargeObjs path (never the small bump blocks) so every chunk can later
  // be pooled and handed back independently of its neighbours. Same
  // governance order as allocRaw: fault site, collection, budget — all
  // before any memory or accounting changes.
  if (CMK_FAULT(Faults, Gc) && !GCPaused && !InGC)
    collect();
  maybeCollect();
  checkHeapBudget(Rounded);
  void *Mem = checkedMalloc(Rounded, "out of memory (stack segment)");
  LargeObjs.push_back(static_cast<ObjHeader *>(Mem));
  std::memset(Mem, 0, Rounded);
  auto *S = static_cast<StackSegObj *>(Mem);
  S->H.Kind = ObjKind::StackSeg;
  S->H.SizeBytes = static_cast<uint32_t>(Rounded);
  BytesSinceGC += Rounded;
  Stats.BytesAllocated += Rounded;
  BytesInUse += Rounded;
  S->Capacity = CapacitySlots;
  ++LiveSegments;
  chargeSegment(Rounded);
  if (VmStatsPtr) {
    ++VmStatsPtr->SegmentAllocs;
    VmStatsPtr->SegmentSlotsAllocated += CapacitySlots;
  }
  CMK_TRACE_EV_P(TraceBufPtr, SegmentAlloc, CapacitySlots);
  return Value::fromObj(&S->H);
}

bool Heap::pushPooledSeg(StackSegObj *S) {
  if (!RecyclingEnabled)
    return false;
  if (PooledSegBytes + S->H.SizeBytes > SegPoolByteCap)
    return false;
  size_t Class = segClassOf(S->H.SizeBytes);
  if (Class >= NumSegClasses)
    return false;
  S->H.Flags = objflags::SegPooled; // Clears mark/pin too.
  S->RecordRefs = 0;
  S->Slots[0] = Value::fromRaw(reinterpret_cast<uint64_t>(SegPool[Class]));
  SegPool[Class] = S;
  PooledSegBytes += S->H.SizeBytes;
  ++PooledSegCount;
  poisonPooledSeg(S);
  return true;
}

StackSegObj *Heap::popPooledSeg(size_t Rounded, uint32_t CapacitySlots) {
  if (PooledSegCount == 0)
    return nullptr;
  // Chunks in class K have true size in [2^K, 2^(K+1)), so the request's
  // own floor class holds both fitting and too-small chunks: a short
  // first-fit scan catches the steady-state case where the segment vacated
  // a moment ago is re-requested at the same (non-power-of-two) size.
  // Every chunk in the classes above fits; the class cap bounds internal
  // waste at ~16x. The header, Capacity/RecordRefs, and the intrusive
  // next pointer in Slots[0] stay unpoisoned while pooled, so the scan
  // never reads poisoned memory.
  size_t First = segClassOf(Rounded);
  size_t Last = std::min(First + 3, NumSegClasses - 1);
  for (size_t Class = First; Class <= Last; ++Class) {
    StackSegObj *Prev = nullptr;
    auto *S = static_cast<StackSegObj *>(SegPool[Class]);
    for (int Scan = 0; S && Scan < 8; ++Scan) {
      auto *Next = reinterpret_cast<StackSegObj *>(S->Slots[0].raw());
      if (S->H.SizeBytes >= Rounded) {
        if (Prev)
          Prev->Slots[0] = Value::fromRaw(reinterpret_cast<uint64_t>(Next));
        else
          SegPool[Class] = Next;
        PooledSegBytes -= S->H.SizeBytes;
        --PooledSegCount;
        unpoisonPooledSeg(S);
        // SizeBytes keeps the chunk's true size (sweep accounting and the
        // pool classes depend on it); Capacity shrinks to the request.
        S->H.Flags = 0;
        S->RecordRefs = 0;
        S->Capacity = CapacitySlots;
        std::memset(S->Slots, 0, sizeof(Value) * CapacitySlots);
        return S;
      }
      Prev = S;
      S = Next;
    }
  }
  return nullptr;
}

void Heap::recycleStackSeg(Value SegV) {
  if (!RecyclingEnabled || InGC)
    return;
  StackSegObj *S = asStackSeg(SegV);
  if (S->H.Flags & (objflags::SegPinned | objflags::SegPooled))
    return;
  if (S->RecordRefs != 0 || !pushPooledSeg(S))
    return;
  if (LiveSegments > 0)
    --LiveSegments;
  // Vacate paths run in the fiber that held the segment: credit it now.
  if (CurAccount) {
    CurAccount->Bytes -= std::min<uint64_t>(CurAccount->Bytes, S->H.SizeBytes);
    if (CurAccount->Segments > 0)
      --CurAccount->Segments;
  }
}

void Heap::releasePooledSegments() {
  if (PooledSegCount == 0)
    return;
  for (size_t I = 0; I < NumSegClasses; ++I)
    SegPool[I] = nullptr;
  std::vector<ObjHeader *> Kept;
  Kept.reserve(LargeObjs.size());
  for (ObjHeader *O : LargeObjs) {
    if (O->Kind == ObjKind::StackSeg && (O->Flags & objflags::SegPooled)) {
      unpoisonPooledSeg(reinterpret_cast<StackSegObj *>(O));
      BytesInUse -= O->SizeBytes;
      std::free(O);
    } else {
      Kept.push_back(O);
    }
  }
  LargeObjs.swap(Kept);
  PooledSegBytes = 0;
  PooledSegCount = 0;
}

void Heap::setSegmentRecycling(bool On) {
  if (!On)
    releasePooledSegments();
  RecyclingEnabled = On;
}

Value Heap::makeCont() {
  auto *K = static_cast<ContObj *>(allocRaw(sizeof(ContObj), ObjKind::Cont));
  K->Seg = Value::nil();
  K->RetCode = Value::underflowSentinel();
  K->RetPc = Value::fixnum(0);
  K->Marks = Value::nil();
  K->Winders = Value::nil();
  K->Next = Value::nil();
  K->PromptTag = Value::False();
  K->MarkStackCopy = Value::False();
  return Value::fromObj(&K->H);
}

Value Heap::makeFiber(Value Thunk, Value ArgsList, uint64_t Id) {
  GCRoot R1(*this, Thunk), R2(*this, ArgsList);
  auto *F =
      static_cast<FiberObj *>(allocRaw(sizeof(FiberObj), ObjKind::Fiber));
  F->Id = Id;
  F->DueNs = 0;
  F->RunNs = 0;
  F->BudgetNs = 0;
  F->JobDeadlineNs = 0;
  F->Account = nullptr;
  F->Thunk = R1.get();
  F->ArgsList = R2.get();
  F->Cont = Value::undefined();
  F->ResumeVal = Value::voidValue();
  F->Result = Value::voidValue();
  F->ErrKindSym = Value::False();
  F->Joiners = Value::nil();
  F->setState(FiberState::Fresh);
  return Value::fromObj(&F->H);
}

Value Heap::makeHashTable(bool EqualBased) {
  auto *T = static_cast<HashTableObj *>(
      allocRaw(sizeof(HashTableObj), ObjKind::HashTable));
  T->H.Aux = EqualBased ? 1 : 0;
  T->Count = 0;
  T->CapMask = 0;
  T->Keys = Value::nil();
  T->Vals = Value::nil();
  return Value::fromObj(&T->H);
}

Value Heap::makeRecord(Value TypeTag, uint32_t NumFields, Value Fill) {
  GCRoot R1(*this, TypeTag), R2(*this, Fill);
  auto *R = static_cast<RecordObj *>(allocRaw(
      sizeof(RecordObj) + sizeof(Value) * NumFields, ObjKind::Record));
  R->NumFields = NumFields;
  R->TypeTag = R1.get();
  for (uint32_t I = 0; I < NumFields; ++I)
    R->Fields[I] = R2.get();
  return Value::fromObj(&R->H);
}

Value Heap::makeMarkFrame(uint32_t NumEntries) {
  auto *M = static_cast<MarkFrameObj *>(allocNursery(
      sizeof(MarkFrameObj) + sizeof(Value) * 2 * NumEntries,
      ObjKind::MarkFrame));
  M->NumEntries = NumEntries;
  M->CacheKey = Value::undefined();
  M->CacheVal = Value::undefined();
  M->CacheTail = Value::undefined();
  for (uint32_t I = 0; I < 2 * NumEntries; ++I)
    M->Entries[I] = Value::undefined();
  return Value::fromObj(&M->H);
}

Value Heap::makeWinder(Value Before, Value After, Value Marks, Value Next) {
  GCRoot R1(*this, Before), R2(*this, After), R3(*this, Marks),
      R4(*this, Next);
  auto *W =
      static_cast<WinderObj *>(allocRaw(sizeof(WinderObj), ObjKind::Winder));
  W->Before = R1.get();
  W->After = R2.get();
  W->Marks = R3.get();
  W->Next = R4.get();
  return Value::fromObj(&W->H);
}

Value Heap::makeStdioPort(void *Stream, Value Name) {
  GCRoot R1(*this, Name);
  auto *P = static_cast<PortObj *>(allocRaw(sizeof(PortObj), ObjKind::Port));
  P->H.Aux = 0;
  P->Stream = Stream;
  P->Name = R1.get();
  return Value::fromObj(&P->H);
}

Value Heap::makeStringPort(Value Name) {
  GCRoot R1(*this, Name);
  auto *P = static_cast<PortObj *>(allocRaw(sizeof(PortObj), ObjKind::Port));
  P->H.Aux = 1;
  P->Stream = new std::string();
  P->Name = R1.get();
  return Value::fromObj(&P->H);
}

Value Heap::makeCompositeCont(uint32_t NumRecords) {
  auto *C = static_cast<CompositeContObj *>(
      allocRaw(sizeof(CompositeContObj) + sizeof(Value) * NumRecords,
               ObjKind::CompositeCont));
  C->NumRecords = NumRecords;
  C->BoundaryMarks = Value::nil();
  C->Winders = Value::nil();
  C->BoundaryWinders = Value::nil();
  for (uint32_t I = 0; I < NumRecords; ++I)
    C->Records[I] = Value::undefined();
  return Value::fromObj(&C->H);
}

Value Heap::makeParameter(Value Key, Value Default, Value Guard, Value Name) {
  GCRoot R1(*this, Key), R2(*this, Default), R3(*this, Guard), R4(*this, Name);
  auto *P = static_cast<ParameterObj *>(
      allocRaw(sizeof(ParameterObj), ObjKind::Parameter));
  P->Key = R1.get();
  P->Default = R2.get();
  P->Guard = R3.get();
  P->Name = R4.get();
  return Value::fromObj(&P->H);
}

Value Heap::intern(const char *Name, uint32_t Len) {
  uint64_t Hash = fnv1a(Name, Len);
  auto &Bucket = SymBuckets[Hash & (NumSymBuckets - 1)];
  for (const SymTableEntry &E : Bucket) {
    if (E.Hash != Hash)
      continue;
    SymbolObj *S = asSymbol(E.Sym);
    if (S->Len == Len && std::memcmp(S->Data, Name, Len) == 0)
      return E.Sym;
  }
  auto *S = static_cast<SymbolObj *>(
      allocRaw(sizeof(SymbolObj) + Len, ObjKind::Symbol));
  S->H.Flags |= objflags::Immortal;
  S->Hash = Hash;
  S->Len = Len;
  std::memcpy(S->Data, Name, Len);
  Value Sym = Value::fromObj(&S->H);
  Bucket.push_back({Hash, Sym});
  return Sym;
}

Value Heap::gensym(const char *Prefix) {
  char Buf[64];
  int N = std::snprintf(Buf, sizeof(Buf), "%s~%llu", Prefix,
                        static_cast<unsigned long long>(GensymCounter++));
  // Uninterned: allocate a symbol object without a table entry, so it is
  // eq? only to itself and is collected like any object once unreachable.
  auto *S = static_cast<SymbolObj *>(
      allocRaw(sizeof(SymbolObj) + N, ObjKind::Symbol));
  S->Hash = fnv1a(Buf, N);
  S->Len = N;
  std::memcpy(S->Data, Buf, N);
  return Value::fromObj(&S->H);
}
