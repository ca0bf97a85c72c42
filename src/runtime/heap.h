//===- runtime/heap.h - Mark-sweep garbage-collected heap -----*- C++ -*-===//
///
/// \file
/// A non-moving mark-sweep collector with block-based bump allocation and
/// size-class free lists. Non-moving matters for fidelity to the paper: the
/// opportunistic one-shot fusion of section 6 depends on whether a captured
/// stack still abuts the current stack, and the collector promotes
/// opportunistic one-shot continuations to full continuations (as the paper
/// describes) during each collection.
///
/// Rooting discipline: every allocXxx function roots its Value parameters
/// across a potential collection, so single allocations initialized from
/// locals are safe. Code holding an otherwise-unreachable value across a
/// separate allocation must wrap it in a GCRoot (or RootedValues).
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_RUNTIME_HEAP_H
#define CMARKS_RUNTIME_HEAP_H

#include "runtime/value.h"
#include "support/limits.h"

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace cmk {

class Heap;
struct VMStats;      // support/stats.h
class TraceBuffer;   // support/trace.h
class FaultInjector; // support/faults.h

/// Interface through which the heap discovers roots held by subsystems
/// (the VM registers and stacks, the symbol table, compiler temporaries).
class GCRootSource {
public:
  virtual ~GCRootSource() = default;
  /// Reports every root by calling \p TraceValue. Called during marking.
  virtual void traceRoots(Heap &H) = 0;
};

/// RAII root for a single value held in C++ code across allocations.
class GCRoot {
public:
  GCRoot(Heap &H, Value V);
  ~GCRoot();
  GCRoot(const GCRoot &) = delete;
  GCRoot &operator=(const GCRoot &) = delete;

  Value get() const { return V; }
  void set(Value NewV) { V = NewV; }
  operator Value() const { return V; }

private:
  Heap &H;
  Value V;
};

/// A growable vector of rooted values (used e.g. by the code generator for
/// constant pools under construction).
class RootedValues {
public:
  explicit RootedValues(Heap &H);
  ~RootedValues();
  RootedValues(const RootedValues &) = delete;
  RootedValues &operator=(const RootedValues &) = delete;

  void push(Value V) { Vals.push_back(V); }
  Value operator[](size_t I) const { return Vals[I]; }
  Value &slot(size_t I) { return Vals[I]; }
  size_t size() const { return Vals.size(); }
  const std::vector<Value> &values() const { return Vals; }
  void clear() { Vals.clear(); }

private:
  friend class Heap;
  Heap &H;
  std::vector<Value> Vals;
};

/// Emergency grants of one budget holder (the engine, or a job account):
/// the heap headroom slab and the segment reserve, each granted once when
/// its budget trips and retired when a collection brings usage back under.
struct BudgetGrants {
  bool HeadroomActive = false; ///< Heap headroom slab granted.
  /// Usage level the active headroom slab was granted at (>= the byte
  /// budget). The slab covers HeadroomBase + HeapHeadroomBytes so it is
  /// real slack even when granted with GC paused and garbage-inflated
  /// usage already far past the budget.
  uint64_t HeadroomBase = 0;
  bool ReserveActive = false; ///< Segment reserve granted.
};

/// One pool job's share of the heap (DESIGN.md §16). While an account is
/// current (Heap::setAccount; the fiber scheduler switches it with the
/// running fiber), every heap byte and stack segment the mutator takes is
/// charged to it and checked against the account's own EngineLimits, so a
/// trip is raised in the fiber whose budget was overrun, never in a
/// co-resident bystander. Segments handed back to the recycling pool are
/// credited at once. A collection cannot tell which account owned a
/// reclaimed object: it credits each account with a share of what it
/// reclaimed in proportion to what the account took since the previous
/// collection, since garbage is mostly young.
struct ResourceAccount {
  /// HeapBytes/HeapHeadroomBytes, MaxLiveSegments/ReserveSegments, and
  /// FuelInterval apply; TimeoutMs is the scheduler's per-fiber budget.
  EngineLimits Limits;
  uint64_t JobId = 0;       ///< Owning pool job (labels its trace spans).
  uint64_t Bytes = 0;       ///< Heap bytes charged (pooled segments excluded).
  uint32_t Segments = 0;    ///< Live stack segments charged.
  uint64_t YoungBytes = 0;  ///< Charged since the last collection.
  uint64_t YoungSegments = 0;
  uint64_t FaultsInjected = 0; ///< Injected faults while its fibers ran.
  BudgetGrants Grants;
  /// A trip raised for this account but not yet delivered when its fiber
  /// switched out; it is re-armed when one of its fibers switches back in.
  TripKind PendingTrip = TripKind::None;
  uint32_t Refs = 1; ///< Fibers holding the account (FiberObj::Account).
  uint32_t Slot = 0; ///< Index in the heap's account table.
};

/// Statistics exposed for tests and the benchmark harness.
struct HeapStats {
  uint64_t Collections = 0;
  uint64_t BytesAllocated = 0;
  uint64_t LiveBytesAfterLastGC = 0;
  uint64_t OneShotPromotions = 0; ///< Paper 6: GC promotes one-shots.
};

class Heap {
public:
  Heap();
  ~Heap();
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  // --- Allocation ----------------------------------------------------------

  Value makePair(Value Car, Value Cdr);
  Value makeString(const char *Data, uint32_t Len);
  Value makeString(const std::string &S) {
    return makeString(S.data(), static_cast<uint32_t>(S.size()));
  }
  Value makeUninitString(uint32_t Len);
  Value makeVector(uint32_t Len, Value Fill);
  Value makeFlonum(double D);
  Value makeBox(Value V);
  Value makeClosure(Value Code, uint32_t NumFree);
  Value makeNative(NativeFn Fn, Value Name, int32_t MinArgs, int32_t MaxArgs);
  Value makeCode(uint32_t NumArgs, uint32_t NumLocals, uint32_t FrameSize,
                 uint32_t Flags, Value Name, const std::vector<Value> &Consts,
                 const std::vector<uint8_t> &Instrs);
  Value makeStackSeg(uint32_t CapacitySlots);
  Value makeCont();
  Value makeHashTable(bool EqualBased);
  Value makeRecord(Value TypeTag, uint32_t NumFields, Value Fill);
  Value makeMarkFrame(uint32_t NumEntries);
  Value makeWinder(Value Before, Value After, Value Marks, Value Next);
  Value makeStdioPort(void *Stream, Value Name);
  Value makeStringPort(Value Name);
  Value makeCompositeCont(uint32_t NumRecords);
  Value makeParameter(Value Key, Value Default, Value Guard, Value Name);
  Value makeFiber(Value Thunk, Value ArgsList, uint64_t Id);

  /// Interns a symbol; symbols are immortal and pointer-comparable.
  Value intern(const char *Name, uint32_t Len);
  Value intern(const std::string &Name) {
    return intern(Name.data(), static_cast<uint32_t>(Name.size()));
  }

  /// Generates a fresh, uninterned symbol (gensym) for private mark keys.
  /// Unlike an interned symbol it is collected once unreachable.
  Value gensym(const char *Prefix);

  // --- Collection ----------------------------------------------------------

  void addRootSource(GCRootSource *Src);
  void removeRootSource(GCRootSource *Src);

  /// Runs a full mark-sweep collection now.
  void collect();

  /// Marks \p V live during the mark phase. Only legal to call from within
  /// a GCRootSource::traceRoots callback.
  void traceValue(Value V);

  const HeapStats &stats() const { return Stats; }

  /// Lets the owning VM route event counters (segment allocations, mark
  /// frame transitions, lookup-cache behaviour) into its VMStats even from
  /// code that only sees the heap. Null when no VM is attached.
  void attachVMStats(VMStats *S) { VmStatsPtr = S; }
  VMStats *vmStats() const { return VmStatsPtr; }

  /// Same routing for the trace buffer: heap- and marks-layer code records
  /// events (segment allocation, mark-frame transitions, cache behaviour)
  /// through this pointer. Null when no VM is attached.
  void attachTraceBuffer(TraceBuffer *T) { TraceBufPtr = T; }
  TraceBuffer *traceBuf() const { return TraceBufPtr; }

  /// Disables automatic collection while constructing multi-object graphs.
  void pauseGC() { ++GCPaused; }
  void resumeGC() { --GCPaused; }

  // --- Segment recycling (paper 5) ------------------------------------------

  /// Enables/disables the size-classed segment pool. Disabling releases any
  /// pooled segments immediately, so `segment-recycles` stays zero and no
  /// pooled memory lingers — the fuzzer's no-recycle leg relies on both.
  void setSegmentRecycling(bool On);

  /// Hands a vacated stack segment back to the pool without waiting for a
  /// collection. The caller (the VM's underflow/overflow paths) must have
  /// checked that no underflow record references the segment; this
  /// re-checks the pin/ref state and silently declines when unsure, when
  /// recycling is off, or when the pool is at its byte cap (the segment
  /// then simply dies to the next sweep).
  void recycleStackSeg(Value SegV);

  /// Frees every pooled segment back to the host allocator. Pooled bytes
  /// stay counted in bytesInUse() (the budget governs committed memory,
  /// held-for-reuse included), so the budget path calls this before
  /// resorting to a collection or a headroom grant.
  void releasePooledSegments();

  /// Bytes currently held by the segment pool (test/metrics gauge).
  uint64_t pooledSegmentBytes() const { return PooledSegBytes; }
  uint32_t pooledSegmentCount() const { return PooledSegCount; }

  // --- Resource governance (support/limits.h) ------------------------------

  /// Routes resource budgets into allocation. The pointed-to limits are
  /// read on every allocation, so an embedder can retune them between
  /// runs. Null (or zero fields) disables enforcement.
  void attachLimits(const EngineLimits *L) { LimitsPtr = L; }

  /// Routes fault-injection hooks (support/faults.h) into allocation and
  /// segment paths. Null disables.
  void attachFaults(FaultInjector *F) { FaultsPtr = F; }
  FaultInjector *faults() const { return FaultsPtr; }

  /// Lets a pending trip reach the VM promptly: when a budget grants its
  /// reserve, the heap zeroes *\p Fuel so the dispatch loop reaches its
  /// next safe point immediately instead of allocating through the
  /// headroom for the rest of a full fuel interval.
  void attachFuel(int64_t *Fuel) { FuelPoke = Fuel; }

  /// Bytes currently committed to objects (live + not-yet-swept garbage);
  /// the quantity the heap byte budget governs.
  uint64_t bytesInUse() const { return BytesInUse; }
  /// Bytes the heap holds from the host allocator: tenured and nursery
  /// blocks plus large objects, pooled segments included. The gap to
  /// bytesInUse() is free space inside blocks.
  uint64_t reservedBytes() const;
  /// Live stack segments; the quantity the segment budget governs.
  uint32_t liveStackSegments() const { return LiveSegments; }

  /// Returns and clears the pending budget trip. The VM consumes this at
  /// its next safe point and raises the catchable limit exception.
  TripKind takePendingTrip() {
    TripKind T = PendingTrip;
    PendingTrip = TripKind::None;
    return T;
  }
  bool hasPendingTrip() const { return PendingTrip != TripKind::None; }

  /// Forces a heap-limit trip as if an allocation had exhausted the
  /// budget (the failing fault-injection sites route through this).
  void injectHeapTrip();

  /// Re-arms governance for a fresh run: drops any unconsumed trip and,
  /// when usage is back under budget, retires active headroom/reserve
  /// grants so the next exhaustion trips again.
  void resetGovernance();

  bool heapHeadroomActive() const { return EngineGrants.HeadroomActive; }
  bool segmentReserveActive() const { return EngineGrants.ReserveActive; }

  // --- Per-job accounts (fiber pool) ----------------------------------------

  /// Opens an account governed by \p L, held once by the caller.
  ResourceAccount *openAccount(const EngineLimits &L, uint64_t JobId);
  void retainAccount(ResourceAccount *A) { ++A->Refs; }
  /// Drops one hold; the last one frees the account.
  void releaseAccount(ResourceAccount *A);
  /// Makes \p A (or none) the account charged for allocation. A pending
  /// trip moves with its account, so it is delivered to the fiber that
  /// overran the budget.
  void setAccount(ResourceAccount *A);
  ResourceAccount *account() const { return CurAccount; }

private:
  friend class GCRoot;
  friend class RootedValues;

  struct Block {
    char *Mem;
    size_t Used;
    size_t Size;
  };

  void *allocRaw(size_t Bytes, ObjKind Kind);
  /// Bump allocation from the nursery for short-lived small objects (pairs
  /// and mark frames). Runs the same governance as allocRaw; falls back to
  /// allocRaw for oversized requests. At each collection an all-dead
  /// nursery block is rewound wholesale; a block with survivors is
  /// promoted into the tenured block set.
  void *allocNursery(size_t Bytes, ObjKind Kind);
  /// The one malloc wrapper (satellite fix for the unchecked calls): on
  /// failure releases the segment pool, collects, and retries, then
  /// reports exhaustion by throwing ResourceExhausted instead of
  /// dereferencing null or aborting.
  void *checkedMalloc(size_t Bytes, const char *What);
  /// Enforces the engine's and the current account's heap byte budgets for
  /// an allocation of \p Rounded bytes.
  void checkHeapBudget(size_t Rounded);
  /// Enforces \p L's byte budget on \p Used (the engine's bytes in use, or
  /// an account's charge; both shrink when this collects): may collect,
  /// grant \p G's headroom + set a pending trip, or throw.
  void checkByteBudget(const uint64_t &Used, const EngineLimits &L,
                       BudgetGrants &G, size_t Rounded);
  /// The same for \p L's live-segment budget and \p G's reserve.
  void checkSegmentBudget(const uint32_t &Live, const EngineLimits &L,
                          BudgetGrants &G);
  /// Charges the current account for \p Bytes / one segment taken.
  void chargeBytes(uint64_t Bytes) {
    if (CurAccount) {
      CurAccount->Bytes += Bytes;
      CurAccount->YoungBytes += Bytes;
    }
  }
  void chargeSegment(uint64_t Bytes) {
    ++SegmentsSinceGC;
    chargeBytes(Bytes);
    if (CurAccount) {
      ++CurAccount->Segments;
      ++CurAccount->YoungSegments;
    }
  }
  /// Credits every account with its young share of a collection's yield.
  void reclaimAccounts(uint64_t FreedBytes, uint64_t YoungBytes,
                       uint64_t FreedSegments, uint64_t YoungSegments);
  /// Records a trip for the VM's next safe point (first kind wins) and
  /// zeroes the attached fuel so that safe point arrives immediately.
  void notePendingTrip(TripKind K);
  void maybeCollect();
  void markFromWorklist();
  void traceObject(ObjHeader *O);
  void sweep();
  void sweepNursery(uint64_t &LiveBytes);
  /// True when the mark phase reached an object in \p B or \p B holds an
  /// immortal one.
  static bool hasSurvivor(const Block &B);
  /// Finalizes the dead object \p O and takes it out of the gauges.
  void retire(ObjHeader *O);
  /// Turns the dead object \p O into a free chunk on its size-class list.
  void pushFreeChunk(ObjHeader *O);
  /// Inserts a dead/vacated segment into the pool; false when recycling is
  /// off or the pool byte cap is reached (caller leaves it for the sweep).
  bool pushPooledSeg(StackSegObj *S);
  /// Pops a pooled chunk large enough for \p Rounded bytes, reinitialized
  /// to \p CapacitySlots; null on a pool miss.
  StackSegObj *popPooledSeg(size_t Rounded, uint32_t CapacitySlots);

  std::vector<Block> Blocks;
  std::vector<Block> NurseryBlocks; ///< Bump blocks for allocNursery.
  std::vector<ObjHeader *> LargeObjs;
  static constexpr size_t NumSizeClasses = 64;
  void *FreeLists[NumSizeClasses] = {};

  /// Segment pool: power-of-two size classes indexed by floor(log2
  /// (chunk bytes)); the intrusive next pointer lives in Slots[0]. Pooled
  /// chunks remain in LargeObjs (the sweep skips them) and in BytesInUse.
  static constexpr size_t NumSegClasses = 33;
  void *SegPool[NumSegClasses] = {};
  uint64_t PooledSegBytes = 0;
  uint32_t PooledSegCount = 0;
  bool RecyclingEnabled = true;

  std::vector<ObjHeader *> MarkWorklist;
  std::vector<GCRootSource *> RootSources;
  std::vector<GCRoot *> TempRoots;
  std::vector<RootedValues *> TempVectors;

  // Symbol interning table: name -> symbol value (interned symbols are
  // immortal, so the table needs no tracing).
  struct SymTableEntry {
    uint64_t Hash;
    Value Sym;
  };
  std::vector<std::vector<SymTableEntry>> SymBuckets;
  uint64_t GensymCounter = 0;

  uint64_t BytesSinceGC = 0;
  uint64_t GCThreshold;
  int GCPaused = 0;
  bool InGC = false;
  HeapStats Stats;
  VMStats *VmStatsPtr = nullptr;
  TraceBuffer *TraceBufPtr = nullptr;

  // Resource governance (support/limits.h).
  const EngineLimits *LimitsPtr = nullptr;
  FaultInjector *FaultsPtr = nullptr;
  int64_t *FuelPoke = nullptr; ///< VM fuel, zeroed when a trip is set.
  uint64_t BytesInUse = 0;   ///< Committed object bytes (incl. garbage).
  uint32_t LiveSegments = 0; ///< Live StackSeg objects.
  TripKind PendingTrip = TripKind::None;
  BudgetGrants EngineGrants;
  std::vector<std::unique_ptr<ResourceAccount>> Accounts;
  ResourceAccount *CurAccount = nullptr;
  uint64_t SegmentsSinceGC = 0; ///< Segments handed out since the last GC.
};

/// RAII wrapper for Heap::pauseGC/resumeGC.
class GCPauseScope {
public:
  explicit GCPauseScope(Heap &H) : H(H) { H.pauseGC(); }
  ~GCPauseScope() { H.resumeGC(); }

private:
  Heap &H;
};

} // namespace cmk

#endif // CMARKS_RUNTIME_HEAP_H
