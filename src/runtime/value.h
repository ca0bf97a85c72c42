//===- runtime/value.h - Tagged Scheme values ------------------*- C++ -*-===//
///
/// \file
/// The uniform 64-bit tagged value representation used throughout the
/// cmarks runtime, plus the heap-object layouts for every object kind.
///
/// Tagging (low 3 bits):
///   000  fixnum, 61 bits of signed payload
///   001  heap pointer (allocations are 8-byte aligned)
///   010  immediate; bits 3..7 select the immediate kind, payload above bit 8
///
/// Heap objects begin with an ObjHeader carrying the kind, GC mark bit and
/// total allocation size, followed by a kind-specific payload (often with a
/// flexible trailing array).
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_RUNTIME_VALUE_H
#define CMARKS_RUNTIME_VALUE_H

#include "support/debug.h"

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace cmk {

class Value;

/// Discriminates every heap-allocated object kind in the runtime.
enum class ObjKind : uint8_t {
  Pair,
  String,
  Symbol,
  Vector,
  Flonum,
  Closure,
  Native,
  Code,
  StackSeg,
  Cont,      ///< Underflow record; doubles as a continuation procedure.
  Box,       ///< Single mutable cell (assignment-converted variables).
  HashTable, ///< Mutable eq?/equal? hash table.
  Record,    ///< Generic tagged record used by the library layer.
  MarkFrame, ///< Per-frame key/value dictionary of the marks layer (7.5).
  Winder,    ///< dynamic-wind frame; carries a marks field (footnote 4).
  Port,      ///< Output port (stdio stream or in-memory string).
  CompositeCont, ///< Composable (delimited) continuation slice list.
  Parameter, ///< Dynamic-binding parameter object (library layer).
  Fiber,     ///< Green thread: captured one-shot continuation + scheduler
             ///< state (DESIGN.md 16).
};

/// Common header of every heap object. The GC relies on SizeBytes to walk
/// allocation blocks during sweep and on the mark bit in Flags.
struct ObjHeader {
  ObjKind Kind;
  uint8_t Flags;
  uint16_t Aux;      ///< Small per-kind payload (e.g. continuation shot kind).
  uint32_t SizeBytes; ///< Total allocation size including this header.
};

static_assert(sizeof(ObjHeader) == 8, "header must stay one word");

namespace objflags {
inline constexpr uint8_t GCMark = 1 << 0;
inline constexpr uint8_t Immortal = 1 << 1; ///< Never swept (interned symbols).
/// StackSeg only: some full/promoted continuation record references this
/// segment, so the VM must never hand it back to the segment pool eagerly
/// (sweep still recycles it once it is unreachable).
inline constexpr uint8_t SegPinned = 1 << 2;
/// StackSeg only: the segment sits on the heap's recycling free list. Its
/// slots are dead (poisoned in sanitized builds) and must not be traced.
inline constexpr uint8_t SegPooled = 1 << 3;
} // namespace objflags

/// Immediate sub-kinds (Value tag 010).
enum class ImmKind : uint8_t {
  Nil = 0,
  False = 1,
  True = 2,
  Void = 3,
  Eof = 4,
  Undefined = 5, ///< Unbound-variable marker; never user-visible.
  Char = 6,
  UnderflowSentinel = 7, ///< Return-address marker for reified frames.
};

/// A single Scheme value: fixnum, immediate, or heap pointer.
class Value {
public:
  Value() : Bits(encodeImm(ImmKind::Undefined, 0)) {}

  // --- Constructors -------------------------------------------------------

  static Value fixnum(int64_t N) {
    return Value(static_cast<uint64_t>(N) << 3);
  }
  static Value fromObj(ObjHeader *O) {
    CMK_CHECK((reinterpret_cast<uintptr_t>(O) & 7) == 0,
              "heap object must be 8-byte aligned");
    return Value(reinterpret_cast<uint64_t>(O) | 1);
  }
  static Value nil() { return Value(encodeImm(ImmKind::Nil, 0)); }
  static Value False() { return Value(encodeImm(ImmKind::False, 0)); }
  static Value True() { return Value(encodeImm(ImmKind::True, 0)); }
  static Value boolean(bool B) { return B ? True() : False(); }
  static Value voidValue() { return Value(encodeImm(ImmKind::Void, 0)); }
  static Value eof() { return Value(encodeImm(ImmKind::Eof, 0)); }
  static Value undefined() { return Value(encodeImm(ImmKind::Undefined, 0)); }
  static Value character(uint32_t C) {
    return Value(encodeImm(ImmKind::Char, C));
  }
  /// The distinguished return address of the bottom frame of every stack
  /// segment; returning to it enters the underflow handler (paper 5).
  static Value underflowSentinel() {
    return Value(encodeImm(ImmKind::UnderflowSentinel, 0));
  }

  // --- Predicates ----------------------------------------------------------

  bool isFixnum() const { return (Bits & 7) == 0; }
  bool isObj() const { return (Bits & 7) == 1; }
  bool isImm() const { return (Bits & 7) == 2; }
  bool isNil() const { return Bits == encodeImm(ImmKind::Nil, 0); }
  bool isFalse() const { return Bits == encodeImm(ImmKind::False, 0); }
  bool isTrue() const { return Bits == encodeImm(ImmKind::True, 0); }
  bool isBoolean() const { return isFalse() || isTrue(); }
  bool isVoid() const { return Bits == encodeImm(ImmKind::Void, 0); }
  bool isEof() const { return Bits == encodeImm(ImmKind::Eof, 0); }
  bool isUndefined() const { return Bits == encodeImm(ImmKind::Undefined, 0); }
  bool isChar() const { return isImm() && immKind() == ImmKind::Char; }
  bool isUnderflowSentinel() const {
    return Bits == encodeImm(ImmKind::UnderflowSentinel, 0);
  }
  /// Everything except #f is truthy, as in Scheme.
  bool isTruthy() const { return !isFalse(); }

  bool isKind(ObjKind K) const { return isObj() && obj()->Kind == K; }
  bool isPair() const { return isKind(ObjKind::Pair); }
  bool isString() const { return isKind(ObjKind::String); }
  bool isSymbol() const { return isKind(ObjKind::Symbol); }
  bool isVector() const { return isKind(ObjKind::Vector); }
  bool isFlonum() const { return isKind(ObjKind::Flonum); }
  bool isClosure() const { return isKind(ObjKind::Closure); }
  bool isNative() const { return isKind(ObjKind::Native); }
  bool isCode() const { return isKind(ObjKind::Code); }
  bool isCont() const { return isKind(ObjKind::Cont); }
  bool isBox() const { return isKind(ObjKind::Box); }
  bool isHashTable() const { return isKind(ObjKind::HashTable); }
  bool isRecord() const { return isKind(ObjKind::Record); }
  bool isMarkFrame() const { return isKind(ObjKind::MarkFrame); }
  bool isPort() const { return isKind(ObjKind::Port); }
  bool isCompositeCont() const { return isKind(ObjKind::CompositeCont); }
  bool isParameter() const { return isKind(ObjKind::Parameter); }
  bool isFiber() const { return isKind(ObjKind::Fiber); }
  bool isNumber() const { return isFixnum() || isFlonum(); }
  /// True for every value that can be applied as a procedure.
  bool isProcedure() const {
    return isClosure() || isNative() || isCont() || isCompositeCont() ||
           isParameter();
  }

  // --- Accessors -----------------------------------------------------------

  int64_t asFixnum() const {
    assert(isFixnum() && "not a fixnum");
    return static_cast<int64_t>(Bits) >> 3;
  }
  uint32_t asChar() const {
    assert(isChar() && "not a character");
    return static_cast<uint32_t>(Bits >> 8);
  }
  ObjHeader *obj() const {
    assert(isObj() && "not a heap object");
    return reinterpret_cast<ObjHeader *>(Bits & ~uint64_t(7));
  }
  ImmKind immKind() const {
    assert(isImm() && "not an immediate");
    return static_cast<ImmKind>((Bits >> 3) & 31);
  }

  /// Identity (eq?) comparison: bit equality.
  bool operator==(Value Other) const { return Bits == Other.Bits; }
  bool operator!=(Value Other) const { return Bits != Other.Bits; }

  uint64_t raw() const { return Bits; }
  static Value fromRaw(uint64_t Raw) { return Value(Raw); }

private:
  explicit Value(uint64_t B) : Bits(B) {}

  static constexpr uint64_t encodeImm(ImmKind K, uint64_t Payload) {
    return (Payload << 8) | (static_cast<uint64_t>(K) << 3) | 2;
  }

  uint64_t Bits;
};

static_assert(sizeof(Value) == 8, "values are one machine word");

// --- Heap object layouts ---------------------------------------------------

struct Pair {
  ObjHeader H;
  Value Car;
  Value Cdr;
};

struct StringObj {
  ObjHeader H;
  uint32_t Len;
  uint32_t Pad;
  char Data[]; ///< Not NUL-terminated; Len bytes.
};

struct SymbolObj {
  ObjHeader H;
  uint64_t Hash; ///< Precomputed name hash, stable across runs.
  uint32_t Len;
  uint32_t Pad;
  char Data[];
};

struct VectorObj {
  ObjHeader H;
  uint32_t Len;
  uint32_t Pad;
  Value Elems[];
};

struct FlonumObj {
  ObjHeader H;
  double Val;
};

struct BoxObj {
  ObjHeader H;
  Value Val;
};

/// Compiled code. Instructions and the constant pool are stored inline so
/// the whole object is a single GC allocation; the constant pool is traced.
struct CodeObj {
  ObjHeader H;
  uint32_t NumArgs;
  uint32_t NumLocals; ///< Args plus let-bound slots.
  uint32_t FrameSize; ///< Upper bound on slots used by the frame.
  uint32_t NumConsts;
  uint32_t NumInstrs; ///< In bytes.
  uint32_t Flags;     ///< codeflags:: bits.
  Value Name;         ///< Symbol or #f, for diagnostics.
  // Trailing: Value Consts[NumConsts]; uint8_t Instrs[NumInstrs];
  Value *consts() { return reinterpret_cast<Value *>(this + 1); }
  uint8_t *instrs() {
    return reinterpret_cast<uint8_t *>(consts() + NumConsts);
  }
};

namespace codeflags {
inline constexpr uint32_t HasRestArg = 1 << 0;
} // namespace codeflags

struct ClosureObj {
  ObjHeader H;
  uint32_t NumFree;
  uint32_t Pad;
  Value Code; ///< A CodeObj value.
  Value Free[];
};

class VM;

/// C ABI of native primitives: receives the VM, argument array, and count.
/// On error the native calls VM::raiseError and returns undefined.
using NativeFn = Value (*)(VM &M, Value *Args, uint32_t NArgs);

struct NativeObj {
  ObjHeader H;
  NativeFn Fn;
  Value Name;
  int32_t MinArgs;
  int32_t MaxArgs; ///< -1 for variadic.
};

/// Number of header slots at the base of every frame:
/// [saved-fp, ret-code, ret-pc, closure].
inline constexpr uint32_t FrameHeaderSlots = 4;

/// A stack segment: a heap object holding frames. Frame layout (paper 5,
/// adapted): [saved-fp, ret-code, ret-pc, closure, args..., locals/temps...]
struct StackSegObj {
  ObjHeader H;
  uint32_t Capacity; ///< In value slots (may be < the chunk's true size
                     ///< when a recycled segment is reused smaller).
  /// Number of opportunistic underflow records whose [Lo,Hi) slice lives in
  /// this segment. Maintained by the VM's reify/underflow paths; a segment
  /// with zero refs and no SegPinned flag can be recycled the moment the
  /// VM vacates it, without waiting for a collection.
  uint32_t RecordRefs;
  Value Slots[];
};

/// Continuation shot kinds (paper 6). Opportunistic one-shots are created by
/// reification-for-marks and stack overflow; call/cc promotes to Full.
enum class ContShot : uint16_t {
  Opportunistic = 0,
  Full = 1,
};

/// An underflow record (paper 5/6). Represents "the rest of the
/// continuation": a slice [Lo, Hi) of frames in Seg, the return address of
/// the frame that was split off, the marks of the rest of the continuation
/// (the extra pointer the paper adds), and the next record in the chain.
struct ContObj {
  ObjHeader H; ///< Aux holds the ContShot kind.
  Value Seg;
  uint32_t Lo;    ///< Start of captured frame slice in Seg.
  uint32_t Hi;    ///< One past the end (== caller sp at the split).
  uint32_t RetFp; ///< Frame pointer to restore (index into Seg).
  uint32_t MarkHeight; ///< Mark-stack height at the split (MarkStackMode).
  Value RetCode; ///< Code to resume (or underflow sentinel at stack bottom).
  Value RetPc;   ///< Fixnum resume offset.
  Value Marks;   ///< Attachment list of the rest of the continuation.
  Value Winders; ///< dynamic-wind chain of the rest of the continuation.
  Value Next;    ///< Next ContObj, or nil at the process bottom.
  Value PromptTag; ///< Tag if this record is a prompt boundary, else #f.
  Value MarkStackCopy; ///< Vector copy of the mark stack (MarkStackMode
                       ///< call/cc capture only), else #f.

  ContShot shot() const { return static_cast<ContShot>(H.Aux & 0xFF); }
  void setShot(ContShot S) {
    H.Aux = (H.Aux & ~uint16_t(0xFF)) | static_cast<uint16_t>(S);
  }

  /// Explicit one-shot continuations (call/1cc): using one twice is an
  /// error, unlike the internal opportunistic records.
  bool isExplicitOneShot() const { return (H.Aux & 0x100) != 0; }
  void setExplicitOneShot() { H.Aux |= 0x100; }
  bool isUsed() const { return (H.Aux & 0x200) != 0; }
  void setUsed() { H.Aux |= 0x200; }
};

struct HashTableObj {
  ObjHeader H; ///< Aux: 0 = eq?, 1 = equal?.
  uint32_t Count;
  uint32_t CapMask; ///< Capacity - 1 (capacity is a power of two).
  Value Keys;       ///< Vector of keys (undefined marks an empty slot).
  Value Vals;       ///< Vector of values.
};

struct RecordObj {
  ObjHeader H;
  uint32_t NumFields;
  uint32_t Pad;
  Value TypeTag; ///< Usually an interned symbol naming the record type.
  Value Fields[];
};

/// The attachment value installed by with-continuation-mark (paper 7.5).
/// Evolves from a single key/value pair to a small immutable dictionary;
/// the cache fields implement the N/2 path-compression of
/// continuation-mark-set-first and are validated against the list tail they
/// were computed for, so sharing a MarkFrame between mark chains is sound.
struct MarkFrameObj {
  ObjHeader H; ///< Aux bit 0: cache valid.
  uint32_t NumEntries;
  uint32_t Pad;
  Value CacheKey;  ///< Key whose downward search result is cached.
  Value CacheVal;  ///< Cached result (undefined encodes "not found").
  Value CacheTail; ///< The list tail the cache was computed against.
  Value Entries[]; ///< Alternating key/value, 2 * NumEntries slots.
};

/// dynamic-wind frame. Footnote 4: a winder record must also save the marks
/// of the dynamic-wind call's continuation, restored while winding.
struct WinderObj {
  ObjHeader H;
  Value Before;
  Value After;
  Value Marks;
  Value Next;
};

struct PortObj {
  ObjHeader H; ///< Aux: 0 = stdio stream, 1 = string buffer.
  void *Stream; ///< FILE* when Aux == 0, std::string* when Aux == 1.
  Value Name;
};

/// A composable continuation captured up to a prompt: an immutable vector
/// of underflow records (innermost first) that is replayed on application.
struct CompositeContObj {
  ObjHeader H;
  uint32_t NumRecords;
  uint32_t Pad;
  Value BoundaryMarks; ///< Marks register value at the prompt boundary.
  /// Winder chain at the capture point. The slice down to (but excluding)
  /// BoundaryWinders is the dynamic-wind extents the captured slice sits
  /// inside; re-applying the continuation re-enters them (the prelude's
  /// composable wrapper runs the before thunks and pushes fresh winders).
  Value Winders;
  Value BoundaryWinders; ///< Winder chain at the prompt boundary.
  Value Records[];
};

/// A parameter object (library layer): applied with no arguments it reads
/// the innermost dynamic binding via the marks layer.
struct ParameterObj {
  ObjHeader H;
  Value Key;     ///< Unique key used in mark frames.
  Value Default; ///< Value when no dynamic binding is present.
  Value Guard;   ///< Converter procedure or #f.
  Value Name;
};

/// Scheduler states of a fiber (vm/fibers.h). A fiber is born Fresh,
/// becomes Runnable when enqueued, Running while it owns the engine,
/// Parked while suspended on a wait (its continuation captured in Cont),
/// and Done exactly once.
enum class FiberState : uint16_t {
  Fresh = 0,
  Runnable = 1,
  Running = 2,
  Parked = 3,
  Done = 4,
};

struct ResourceAccount; // runtime/heap.h

/// A green thread: a captured one-shot continuation plus the scheduler
/// bookkeeping to suspend and resume it. The mark and winder context of
/// the fiber rides inside the captured record chain, so switching fibers
/// isolates marks/winders for free (the registers are restored from the
/// record on resume, and a fresh fiber boots on an empty halt record).
struct FiberObj {
  ObjHeader H; ///< Aux bits 0-2: FiberState; bit 3: finished with an error.
  uint64_t Id;
  uint64_t DueNs;    ///< Absolute steady-clock wake time while timed-parked
                     ///< (0 = untimed).
  uint64_t RunNs;    ///< Accumulated on-CPU time; excludes parked time.
  uint64_t BudgetNs; ///< Remaining run-time budget (0 = unlimited). Armed
                     ///< as the VM deadline at each switch-in, so a parked
                     ///< fiber never burns its timeout budget.
  uint64_t JobDeadlineNs; ///< Absolute wall-clock pool-job deadline (0=none).
  /// Pool job's account its heap use is charged to (runtime/heap.h), held
  /// by the fiber; null outside the pool. Sub-fibers share their job's.
  ResourceAccount *Account;
  Value Thunk;      ///< Entry procedure (only meaningful while Fresh).
  Value ArgsList;   ///< Argument list for Thunk.
  Value Cont;       ///< Captured continuation while Parked/Runnable-resumed.
  Value ResumeVal;  ///< Value the parked capture receives on resume.
  Value Result;     ///< Final value, or the error payload when erred.
  Value ErrKindSym; ///< 'timeout | 'interrupt | 'heap-limit | 'stack-limit
                    ///< | 'error when erred, else #f.
  Value Joiners;    ///< List of fibers parked in (fiber-join this).

  FiberState state() const { return static_cast<FiberState>(H.Aux & 7); }
  void setState(FiberState S) {
    H.Aux = (H.Aux & ~uint16_t(7)) | static_cast<uint16_t>(S);
  }
  bool erred() const { return (H.Aux & 8) != 0; }
  void setErred() { H.Aux |= 8; }
  /// Pool-job fibers retire the slice when they finish and are queued for
  /// collection by the pool worker (support/pool.cpp).
  bool isJob() const { return (H.Aux & 16) != 0; }
  void setJob() { H.Aux |= 16; }
};

// --- Casting helpers -------------------------------------------------------

template <typename T> T *objCast(Value V, ObjKind K) {
  assert(V.isKind(K) && "object kind mismatch");
  return reinterpret_cast<T *>(V.obj());
}

inline Pair *asPair(Value V) { return objCast<Pair>(V, ObjKind::Pair); }
inline StringObj *asString(Value V) {
  return objCast<StringObj>(V, ObjKind::String);
}
inline SymbolObj *asSymbol(Value V) {
  return objCast<SymbolObj>(V, ObjKind::Symbol);
}
inline VectorObj *asVector(Value V) {
  return objCast<VectorObj>(V, ObjKind::Vector);
}
inline FlonumObj *asFlonum(Value V) {
  return objCast<FlonumObj>(V, ObjKind::Flonum);
}
inline ClosureObj *asClosure(Value V) {
  return objCast<ClosureObj>(V, ObjKind::Closure);
}
inline NativeObj *asNative(Value V) {
  return objCast<NativeObj>(V, ObjKind::Native);
}
inline CodeObj *asCode(Value V) { return objCast<CodeObj>(V, ObjKind::Code); }
inline StackSegObj *asStackSeg(Value V) {
  return objCast<StackSegObj>(V, ObjKind::StackSeg);
}
inline ContObj *asCont(Value V) { return objCast<ContObj>(V, ObjKind::Cont); }
inline BoxObj *asBox(Value V) { return objCast<BoxObj>(V, ObjKind::Box); }
inline HashTableObj *asHashTable(Value V) {
  return objCast<HashTableObj>(V, ObjKind::HashTable);
}
inline RecordObj *asRecord(Value V) {
  return objCast<RecordObj>(V, ObjKind::Record);
}
inline MarkFrameObj *asMarkFrame(Value V) {
  return objCast<MarkFrameObj>(V, ObjKind::MarkFrame);
}
inline WinderObj *asWinder(Value V) {
  return objCast<WinderObj>(V, ObjKind::Winder);
}
inline PortObj *asPort(Value V) { return objCast<PortObj>(V, ObjKind::Port); }
inline CompositeContObj *asCompositeCont(Value V) {
  return objCast<CompositeContObj>(V, ObjKind::CompositeCont);
}
inline ParameterObj *asParameter(Value V) {
  return objCast<ParameterObj>(V, ObjKind::Parameter);
}
inline FiberObj *asFiber(Value V) {
  return objCast<FiberObj>(V, ObjKind::Fiber);
}

// --- Convenience accessors --------------------------------------------------

inline Value car(Value V) { return asPair(V)->Car; }
inline Value cdr(Value V) { return asPair(V)->Cdr; }

/// Returns the number of pairs in a proper list; -1 for improper lists.
int64_t listLength(Value List);

/// Returns a std::string copy of a string or symbol object's bytes.
const char *stringData(Value V, uint32_t &LenOut);

/// Fixnum payload limits (61-bit signed fixnums).
inline constexpr int64_t FixnumMax = (int64_t(1) << 60) - 1;
inline constexpr int64_t FixnumMin = -(int64_t(1) << 60);

inline bool fitsFixnum(int64_t N) { return N >= FixnumMin && N <= FixnumMax; }

} // namespace cmk

#endif // CMARKS_RUNTIME_VALUE_H
