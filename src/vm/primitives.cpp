//===- vm/primitives.cpp - Core primitive library --------------*- C++ -*-===//
///
/// \file
/// Numbers, predicates, vectors, boxes, hash tables, output, and
/// introspection natives. List and string primitives live in their own
/// files; control/marks primitives live next to their subsystems.
///
//===----------------------------------------------------------------------===//

#include "vm/vm.h"

#include "lib/parameters.h"
#include "runtime/equal.h"
#include "runtime/hashtable.h"
#include "runtime/numbers.h"
#include "runtime/printer.h"
#include "support/metrics.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

using namespace cmk;

namespace {

// --- Numeric primitives ------------------------------------------------------

/// Reports a failed NumResult: the operation's specific complaint when it
/// has one (e.g. "division by zero"), the generic type error otherwise.
Value numError(VM &M, const char *Who, const NumResult &R) {
  return M.raiseError(std::string(Who) + ": " +
                      (R.Err ? R.Err : "expected numbers"));
}

template <NumResult (*Fn)(Heap &, Value, Value)>
Value foldNumeric(VM &M, const char *Who, Value Init, Value *Args,
                  uint32_t NArgs) {
  GCRoot Acc(M.heap(), NArgs ? Args[0] : Init);
  for (uint32_t I = 1; I < NArgs; ++I) {
    NumResult R = Fn(M.heap(), Acc.get(), Args[I]);
    if (!R.Ok)
      return numError(M, Who, R);
    Acc.set(R.V);
  }
  return Acc.get();
}

Value nativeAdd(VM &M, Value *Args, uint32_t NArgs) {
  return foldNumeric<numAdd>(M, "+", Value::fixnum(0), Args, NArgs);
}

Value nativeSub(VM &M, Value *Args, uint32_t NArgs) {
  if (NArgs == 1) {
    NumResult R = numSub(M.heap(), Value::fixnum(0), Args[0]);
    if (!R.Ok)
      return M.raiseError("-: expected number");
    return R.V;
  }
  return foldNumeric<numSub>(M, "-", Value::fixnum(0), Args, NArgs);
}

Value nativeMul(VM &M, Value *Args, uint32_t NArgs) {
  return foldNumeric<numMul>(M, "*", Value::fixnum(1), Args, NArgs);
}

Value nativeDiv(VM &M, Value *Args, uint32_t NArgs) {
  if (NArgs == 1) {
    NumResult R = numDiv(M.heap(), Value::fixnum(1), Args[0]);
    if (!R.Ok)
      return numError(M, "/", R);
    return R.V;
  }
  return foldNumeric<numDiv>(M, "/", Value::fixnum(1), Args, NArgs);
}

template <int Lo, int Hi>
Value compareChain(VM &M, const char *Who, Value *Args, uint32_t NArgs) {
  for (uint32_t I = 0; I + 1 < NArgs; ++I) {
    int Cmp;
    if (!numCompare(Args[I], Args[I + 1], Cmp))
      return M.raiseError(std::string(Who) + ": expected numbers");
    if (Cmp < Lo || Cmp > Hi)
      return Value::False();
  }
  return Value::True();
}

Value nativeLt(VM &M, Value *A, uint32_t N) {
  return compareChain<-1, -1>(M, "<", A, N);
}
Value nativeLe(VM &M, Value *A, uint32_t N) {
  return compareChain<-1, 0>(M, "<=", A, N);
}
Value nativeGt(VM &M, Value *A, uint32_t N) {
  return compareChain<1, 1>(M, ">", A, N);
}
Value nativeGe(VM &M, Value *A, uint32_t N) {
  return compareChain<0, 1>(M, ">=", A, N);
}
Value nativeNumEq(VM &M, Value *A, uint32_t N) {
  return compareChain<0, 0>(M, "=", A, N);
}

Value nativeQuotient(VM &M, Value *Args, uint32_t NArgs) {
  NumResult R = numQuotient(M.heap(), Args[0], Args[1]);
  if (!R.Ok)
    return numError(M, "quotient", R);
  return R.V;
}

Value nativeRemainder(VM &M, Value *Args, uint32_t NArgs) {
  NumResult R = numRemainder(M.heap(), Args[0], Args[1]);
  if (!R.Ok)
    return numError(M, "remainder", R);
  return R.V;
}

Value nativeModulo(VM &M, Value *Args, uint32_t NArgs) {
  NumResult R = numModulo(M.heap(), Args[0], Args[1]);
  if (!R.Ok)
    return numError(M, "modulo", R);
  return R.V;
}

Value nativeMin(VM &M, Value *Args, uint32_t NArgs) {
  Value Best = Args[0];
  for (uint32_t I = 1; I < NArgs; ++I) {
    int Cmp;
    if (!numCompare(Args[I], Best, Cmp))
      return M.raiseError("min: expected numbers");
    if (Cmp < 0)
      Best = Args[I];
  }
  return Best;
}

Value nativeMax(VM &M, Value *Args, uint32_t NArgs) {
  Value Best = Args[0];
  for (uint32_t I = 1; I < NArgs; ++I) {
    int Cmp;
    if (!numCompare(Args[I], Best, Cmp))
      return M.raiseError("max: expected numbers");
    if (Cmp > 0)
      Best = Args[I];
  }
  return Best;
}

Value nativeAbs(VM &M, Value *Args, uint32_t NArgs) {
  Value A = Args[0];
  if (A.isFixnum())
    return Value::fixnum(std::llabs(A.asFixnum()));
  if (A.isFlonum())
    return M.heap().makeFlonum(std::fabs(asFlonum(A)->Val));
  return typeError(M, "abs", "number", A);
}

template <double (*Fn)(double)>
Value floUnary(VM &M, const char *Who, Value *Args) {
  if (!Args[0].isNumber())
    return typeError(M, Who, "number", Args[0]);
  return M.heap().makeFlonum(Fn(toDouble(Args[0])));
}

Value nativeSqrt(VM &M, Value *Args, uint32_t N) {
  if (Args[0].isFixnum() && Args[0].asFixnum() >= 0) {
    int64_t Root = static_cast<int64_t>(std::sqrt(
        static_cast<double>(Args[0].asFixnum())));
    // Prefer exact roots for exact inputs.
    for (int64_t R = std::max<int64_t>(0, Root - 1); R <= Root + 1; ++R)
      if (R * R == Args[0].asFixnum())
        return Value::fixnum(R);
  }
  return floUnary<std::sqrt>(M, "sqrt", Args);
}
Value nativeSin(VM &M, Value *Args, uint32_t N) {
  return floUnary<std::sin>(M, "sin", Args);
}
Value nativeCos(VM &M, Value *Args, uint32_t N) {
  return floUnary<std::cos>(M, "cos", Args);
}
Value nativeExp(VM &M, Value *Args, uint32_t N) {
  return floUnary<std::exp>(M, "exp", Args);
}
Value nativeLog(VM &M, Value *Args, uint32_t N) {
  return floUnary<std::log>(M, "log", Args);
}
Value nativeAtan(VM &M, Value *Args, uint32_t N) {
  if (N == 2) {
    if (!Args[0].isNumber() || !Args[1].isNumber())
      return typeError(M, "atan", "number", Args[0]);
    return M.heap().makeFlonum(std::atan2(toDouble(Args[0]),
                                          toDouble(Args[1])));
  }
  return floUnary<std::atan>(M, "atan", Args);
}

Value nativeExpt(VM &M, Value *Args, uint32_t N) {
  if (Args[0].isFixnum() && Args[1].isFixnum() && Args[1].asFixnum() >= 0) {
    int64_t Base = Args[0].asFixnum(), Exp = Args[1].asFixnum();
    int64_t Acc = 1;
    bool Overflow = false;
    for (int64_t I = 0; I < Exp && !Overflow; ++I)
      Overflow = __builtin_mul_overflow(Acc, Base, &Acc) || !fitsFixnum(Acc);
    if (!Overflow)
      return Value::fixnum(Acc);
  }
  if (!Args[0].isNumber() || !Args[1].isNumber())
    return typeError(M, "expt", "number", Args[0]);
  return M.heap().makeFlonum(std::pow(toDouble(Args[0]), toDouble(Args[1])));
}

Value nativeFloor(VM &M, Value *Args, uint32_t N) {
  if (Args[0].isFixnum())
    return Args[0];
  return floUnary<std::floor>(M, "floor", Args);
}
Value nativeCeiling(VM &M, Value *Args, uint32_t N) {
  if (Args[0].isFixnum())
    return Args[0];
  return floUnary<std::ceil>(M, "ceiling", Args);
}
Value nativeTruncate(VM &M, Value *Args, uint32_t N) {
  if (Args[0].isFixnum())
    return Args[0];
  return floUnary<std::trunc>(M, "truncate", Args);
}
Value nativeRound(VM &M, Value *Args, uint32_t N) {
  if (Args[0].isFixnum())
    return Args[0];
  return floUnary<std::nearbyint>(M, "round", Args);
}

Value nativeExactToInexact(VM &M, Value *Args, uint32_t N) {
  if (!Args[0].isNumber())
    return typeError(M, "exact->inexact", "number", Args[0]);
  return Args[0].isFlonum() ? Args[0] : M.heap().makeFlonum(toDouble(Args[0]));
}

Value nativeInexactToExact(VM &M, Value *Args, uint32_t N) {
  if (Args[0].isFixnum())
    return Args[0];
  if (Args[0].isFlonum()) {
    double D = asFlonum(Args[0])->Val;
    if (D == std::trunc(D) && fitsFixnum(static_cast<int64_t>(D)))
      return Value::fixnum(static_cast<int64_t>(D));
    return M.raiseError("inexact->exact: no exact representation");
  }
  return typeError(M, "inexact->exact", "number", Args[0]);
}

// --- Predicates --------------------------------------------------------------

Value nativeNumberP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isNumber());
}
Value nativeIntegerP(VM &, Value *Args, uint32_t) {
  if (Args[0].isFixnum())
    return Value::True();
  if (Args[0].isFlonum())
    return Value::boolean(asFlonum(Args[0])->Val ==
                          std::trunc(asFlonum(Args[0])->Val));
  return Value::False();
}
Value nativeFixnumP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isFixnum());
}
Value nativeFlonumP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isFlonum());
}
Value nativeEvenP(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isFixnum())
    return typeError(M, "even?", "fixnum", Args[0]);
  return Value::boolean(Args[0].asFixnum() % 2 == 0);
}
Value nativeOddP(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isFixnum())
    return typeError(M, "odd?", "fixnum", Args[0]);
  return Value::boolean(Args[0].asFixnum() % 2 != 0);
}
Value nativePositiveP(VM &M, Value *Args, uint32_t) {
  int Cmp;
  if (!numCompare(Args[0], Value::fixnum(0), Cmp))
    return typeError(M, "positive?", "number", Args[0]);
  return Value::boolean(Cmp != CmpUnordered && Cmp > 0);
}
Value nativeNegativeP(VM &M, Value *Args, uint32_t) {
  int Cmp;
  if (!numCompare(Args[0], Value::fixnum(0), Cmp))
    return typeError(M, "negative?", "number", Args[0]);
  return Value::boolean(Cmp < 0);
}
Value nativeZeroP(VM &M, Value *Args, uint32_t) {
  int Cmp;
  if (!numCompare(Args[0], Value::fixnum(0), Cmp))
    return typeError(M, "zero?", "number", Args[0]);
  return Value::boolean(Cmp == 0);
}

Value nativeEqP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0] == Args[1]);
}
Value nativeEqvP(VM &, Value *Args, uint32_t) {
  return Value::boolean(isEqv(Args[0], Args[1]));
}
Value nativeEqualP(VM &, Value *Args, uint32_t) {
  return Value::boolean(isEqual(Args[0], Args[1]));
}
Value nativeNot(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isFalse());
}
Value nativeBooleanP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isBoolean());
}
Value nativeSymbolP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isSymbol());
}
Value nativeStringP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isString());
}
Value nativeCharP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isChar());
}
Value nativeProcedureP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isProcedure());
}
Value nativeVectorP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isVector());
}
Value nativeNullP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isNil());
}
Value nativePairP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isPair());
}
Value nativeVoidP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isVoid());
}
Value nativeVoid(VM &, Value *, uint32_t) { return Value::voidValue(); }
Value nativeEofObjectP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isEof());
}

// --- Vectors -----------------------------------------------------------------

Value nativeMakeVector(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[0].isFixnum() || Args[0].asFixnum() < 0)
    return typeError(M, "make-vector", "nonnegative fixnum", Args[0]);
  Value Fill = NArgs > 1 ? Args[1] : Value::fixnum(0);
  return M.heap().makeVector(static_cast<uint32_t>(Args[0].asFixnum()), Fill);
}

Value nativeVector(VM &M, Value *Args, uint32_t NArgs) {
  RootedValues Roots(M.heap());
  for (uint32_t I = 0; I < NArgs; ++I)
    Roots.push(Args[I]);
  Value V = M.heap().makeVector(NArgs, Value::fixnum(0));
  for (uint32_t I = 0; I < NArgs; ++I)
    asVector(V)->Elems[I] = Roots[I];
  return V;
}

Value nativeVectorLength(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isVector())
    return typeError(M, "vector-length", "vector", Args[0]);
  return Value::fixnum(asVector(Args[0])->Len);
}

Value nativeVectorRef(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isVector() || !Args[1].isFixnum())
    return typeError(M, "vector-ref", "vector and index", Args[0]);
  VectorObj *V = asVector(Args[0]);
  int64_t I = Args[1].asFixnum();
  if (I < 0 || I >= V->Len)
    return M.raiseError("vector-ref: index out of range");
  return V->Elems[I];
}

Value nativeVectorSet(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isVector() || !Args[1].isFixnum())
    return typeError(M, "vector-set!", "vector and index", Args[0]);
  VectorObj *V = asVector(Args[0]);
  int64_t I = Args[1].asFixnum();
  if (I < 0 || I >= V->Len)
    return M.raiseError("vector-set!: index out of range");
  V->Elems[I] = Args[2];
  return Value::voidValue();
}

Value nativeVectorFill(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isVector())
    return typeError(M, "vector-fill!", "vector", Args[0]);
  VectorObj *V = asVector(Args[0]);
  for (uint32_t I = 0; I < V->Len; ++I)
    V->Elems[I] = Args[1];
  return Value::voidValue();
}

Value nativeVectorToList(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isVector())
    return typeError(M, "vector->list", "vector", Args[0]);
  GCRoot VecRoot(M.heap(), Args[0]);
  GCRoot Acc(M.heap(), Value::nil());
  for (uint32_t I = asVector(VecRoot.get())->Len; I > 0; --I)
    Acc.set(
        M.heap().makePair(asVector(VecRoot.get())->Elems[I - 1], Acc.get()));
  return Acc.get();
}

Value nativeListToVector(VM &M, Value *Args, uint32_t) {
  int64_t Len = listLength(Args[0]);
  if (Len < 0)
    return typeError(M, "list->vector", "proper list", Args[0]);
  GCRoot ListRoot(M.heap(), Args[0]);
  Value V = M.heap().makeVector(static_cast<uint32_t>(Len), Value::fixnum(0));
  Value P = ListRoot.get();
  for (int64_t I = 0; I < Len; ++I) {
    asVector(V)->Elems[I] = car(P);
    P = cdr(P);
  }
  return V;
}

Value nativeVectorCopy(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[0].isVector())
    return typeError(M, "vector-copy", "vector", Args[0]);
  GCRoot VecRoot(M.heap(), Args[0]);
  uint32_t Len = asVector(Args[0])->Len;
  Value V = M.heap().makeVector(Len, Value::fixnum(0));
  for (uint32_t I = 0; I < Len; ++I)
    asVector(V)->Elems[I] = asVector(VecRoot.get())->Elems[I];
  return V;
}

// --- Boxes -------------------------------------------------------------------

Value nativeBox(VM &M, Value *Args, uint32_t) {
  return M.heap().makeBox(Args[0]);
}
Value nativeUnbox(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isBox())
    return typeError(M, "unbox", "box", Args[0]);
  return asBox(Args[0])->Val;
}
Value nativeSetBox(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isBox())
    return typeError(M, "set-box!", "box", Args[0]);
  asBox(Args[0])->Val = Args[1];
  return Value::voidValue();
}
Value nativeBoxP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isBox());
}

// --- Hash tables -------------------------------------------------------------

Value nativeMakeHash(VM &M, Value *, uint32_t) {
  return M.heap().makeHashTable(/*EqualBased=*/false);
}
Value nativeMakeEqualHash(VM &M, Value *, uint32_t) {
  return M.heap().makeHashTable(/*EqualBased=*/true);
}
Value nativeHashP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isHashTable());
}
Value nativeHashSet(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isHashTable())
    return typeError(M, "hash-set!", "hash table", Args[0]);
  htSet(M.heap(), Args[0], Args[1], Args[2]);
  return Value::voidValue();
}
Value nativeHashRef(VM &M, Value *Args, uint32_t NArgs) {
  if (!Args[0].isHashTable())
    return typeError(M, "hash-ref", "hash table", Args[0]);
  Value Dflt = NArgs > 2 ? Args[2] : Value::False();
  return htGet(Args[0], Args[1], Dflt);
}
Value nativeHashRemove(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isHashTable())
    return typeError(M, "hash-remove!", "hash table", Args[0]);
  return Value::boolean(htDelete(Args[0], Args[1]));
}
Value nativeHashCount(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isHashTable())
    return typeError(M, "hash-count", "hash table", Args[0]);
  return Value::fixnum(htCount(Args[0]));
}
Value nativeHashKeys(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isHashTable())
    return typeError(M, "hash-keys", "hash table", Args[0]);
  GCRoot TableRoot(M.heap(), Args[0]);
  GCRoot Acc(M.heap(), Value::nil());
  // Collect first (htForEach forbids mutation; allocation is fine since
  // the table's vectors are rooted via the table).
  std::vector<Value> Keys;
  htForEach(TableRoot.get(), [&](Value K, Value) { Keys.push_back(K); });
  RootedValues Roots(M.heap());
  for (Value K : Keys)
    Roots.push(K);
  for (size_t I = Keys.size(); I > 0; --I)
    Acc.set(M.heap().makePair(Roots[I - 1], Acc.get()));
  return Acc.get();
}

// --- Output ------------------------------------------------------------------

Value outputValue(VM &M, Value V, bool Display, Value *Args, uint32_t NArgs,
                  uint32_t PortIdx) {
  Value Port =
      NArgs > PortIdx ? Args[PortIdx] : currentOutputPort(M);
  if (!Port.isPort())
    return typeError(M, "write/display", "port", Port);
  std::string Out;
  printValue(Out, V, Display);
  portWrite(M, Port, Out);
  return Value::voidValue();
}

Value nativeDisplay(VM &M, Value *Args, uint32_t NArgs) {
  return outputValue(M, Args[0], /*Display=*/true, Args, NArgs, 1);
}
Value nativeWrite(VM &M, Value *Args, uint32_t NArgs) {
  return outputValue(M, Args[0], /*Display=*/false, Args, NArgs, 1);
}
Value nativeNewline(VM &M, Value *Args, uint32_t NArgs) {
  Value Port = NArgs > 0 ? Args[0] : currentOutputPort(M);
  if (!Port.isPort())
    return typeError(M, "newline", "port", Port);
  portWrite(M, Port, "\n");
  return Value::voidValue();
}

Value nativeOpenOutputString(VM &M, Value *, uint32_t) {
  return M.heap().makeStringPort(M.heap().intern("string"));
}

Value nativeGetOutputString(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isPort() || asPort(Args[0])->H.Aux != 1)
    return typeError(M, "get-output-string", "string port", Args[0]);
  std::string *Buf = static_cast<std::string *>(asPort(Args[0])->Stream);
  return M.heap().makeString(*Buf);
}

Value nativePortP(VM &, Value *Args, uint32_t) {
  return Value::boolean(Args[0].isPort());
}

// --- Misc --------------------------------------------------------------------

Value nativeFatalError(VM &M, Value *Args, uint32_t NArgs) {
  std::string Msg;
  for (uint32_t I = 0; I < NArgs; ++I) {
    if (I)
      Msg += ' ';
    printValue(Msg, Args[I], /*Display=*/true);
  }
  return M.raiseError(Msg);
}

/// (#%fatal-limit kind msg ...): like #%fatal-error but classifies the
/// failure as the named limit trip, so the embedding API (and the REPL's
/// exit code) can tell an uncaught limit exception from a plain error.
/// The prelude routes uncaught limit exceptions here.
Value nativeFatalLimit(VM &M, Value *Args, uint32_t NArgs) {
  ErrorKind Kind = ErrorKind::Runtime;
  if (Args[0].isSymbol()) {
    std::string Name = displayToString(Args[0]);
    if (Name == "heap-limit")
      Kind = ErrorKind::HeapLimit;
    else if (Name == "stack-limit")
      Kind = ErrorKind::StackLimit;
    else if (Name == "timeout")
      Kind = ErrorKind::Timeout;
    else if (Name == "interrupt")
      Kind = ErrorKind::Interrupt;
  }
  std::string Msg;
  for (uint32_t I = 1; I < NArgs; ++I) {
    if (I > 1)
      Msg += ' ';
    printValue(Msg, Args[I], /*Display=*/true);
  }
  if (Msg.empty())
    Msg = "limit exceeded";
  return M.raiseErrorKind(Kind, Msg);
}

/// (#%set-snapshot-key! key): the prelude hands the VM its trace mark key
/// so raiseError can attach a stack snapshot to fatal reports.
Value nativeSetSnapshotKey(VM &M, Value *Args, uint32_t) {
  M.SnapshotKey = Args[0];
  return Value::voidValue();
}

/// (#%fault-stats) -> ((site hits injected) ...) for every fault site.
Value nativeFaultStats(VM &M, Value *, uint32_t) {
  RootedValues Rows(M.heap());
  for (int I = 0; I < NumFaultSites; ++I) {
    FaultSite S = static_cast<FaultSite>(I);
    GCRoot Sym(M.heap(), M.heap().intern(faultSiteName(S)));
    GCRoot Row(M.heap(),
               M.heap().makePair(
                   Value::fixnum(static_cast<int64_t>(M.faults().injected(S))),
                   Value::nil()));
    Row.set(M.heap().makePair(
        Value::fixnum(static_cast<int64_t>(M.faults().hits(S))), Row.get()));
    Row.set(M.heap().makePair(Sym.get(), Row.get()));
    Rows.push(Row.get());
  }
  GCRoot Acc(M.heap(), Value::nil());
  for (size_t I = Rows.size(); I > 0; --I)
    Acc.set(M.heap().makePair(Rows[I - 1], Acc.get()));
  return Acc.get();
}

Value nativeApply(VM &M, Value *Args, uint32_t NArgs) {
  // (apply f a b ... rest-list)
  GCRoot FnRoot(M.heap(), Args[0]);
  std::vector<Value> CallArgs;
  for (uint32_t I = 1; I + 1 < NArgs; ++I)
    CallArgs.push_back(Args[I]);
  Value Rest = Args[NArgs - 1];
  if (NArgs > 1) {
    if (listLength(Rest) < 0)
      return typeError(M, "apply", "proper list", Rest);
    for (Value P = Rest; P.isPair(); P = cdr(P))
      CallArgs.push_back(car(P));
  }
  M.scheduleTailCall(FnRoot.get(), CallArgs.data(),
                     static_cast<uint32_t>(CallArgs.size()));
  return Value::voidValue();
}

Value nativeGensym(VM &M, Value *Args, uint32_t NArgs) {
  std::string Prefix = "g";
  if (NArgs > 0 && (Args[0].isSymbol() || Args[0].isString())) {
    uint32_t Len;
    const char *Data = stringData(Args[0], Len);
    Prefix.assign(Data, Len);
  }
  return M.heap().gensym(Prefix.c_str());
}

Value nativeCollectGarbage(VM &M, Value *, uint32_t) {
  M.heap().collect();
  return Value::voidValue();
}

Value nativeCurrentMillis(VM &M, Value *, uint32_t) {
  return M.heap().makeFlonum(
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count()) /
      1000.0);
}

/// (sleep-ms n) waits n milliseconds (clamped to [0, 60000]; NaN waits
/// not at all — the old cast of NaN*1000 to int64_t was undefined).
/// Models a request handler waiting on a backend.
///
/// With fiber scheduling active the wait is cooperative: the call tail-
/// calls the prelude's #%fiber-sleep, which parks the calling fiber on a
/// timer so sibling fibers (and, in a fiber pool, other jobs on this
/// worker) run during the wait.
///
/// Otherwise the engine's thread blocks — but in <=10ms chunks that poll
/// for pending interrupts, budget trips, and passed deadlines between
/// chunks, so `(sleep-ms 60000)` no longer pins a requestInterrupt() (or
/// a timeout) for the full minute: delivery lands within one chunk.
Value nativeSleepMs(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isNumber())
    return typeError(M, "sleep-ms", "number", Args[0]);
  double Ms = toDouble(Args[0]);
  if (!(Ms > 0)) // Negative, zero, and NaN all mean "no wait".
    Ms = 0;
  if (Ms > 60000)
    Ms = 60000;
  if (M.Fibers.schedulingActive() && !M.config().MarkStackMode) {
    Value Sleep = M.getGlobal("#%fiber-sleep");
    if (Sleep.isClosure()) {
      Value A[1] = {M.heap().makeFlonum(Ms)};
      M.scheduleTailCall(Sleep, A, 1);
      return Value::voidValue();
    }
  }
  int64_t LeftUs = static_cast<int64_t>(Ms * 1000.0);
  while (LeftUs > 0) {
    if (M.deliverTripFromNative())
      return Value::voidValue();
    int64_t ChunkUs = LeftUs < 10000 ? LeftUs : 10000;
    std::this_thread::sleep_for(std::chrono::microseconds(ChunkUs));
    LeftUs -= ChunkUs;
  }
  // A signal that lands during the final chunk is still delivered here
  // rather than waiting for the next safe point (there may be none — a
  // toplevel sleep returns straight into Halt).
  M.deliverTripFromNative();
  return Value::voidValue();
}

/// Calls \p F with the name and value of every counter (runtime-stats)
/// reports, in its order: the VM counter table (support/stats.h), then the
/// heap's counters and the trace ring's drop count.
template <typename Fn> void forEachRuntimeStat(VM &M, Fn F) {
  const VMStats &S = M.stats();
  const HeapStats &HS = M.heap().stats();
  int N = 0;
  const StatsCounterDesc *Table = statsCounters(N);
  for (int I = 0; I < N; ++I)
    F(Table[I].Name, S.*(Table[I].Field));
  F("gc-collections", HS.Collections);
  F("gc-one-shot-promotions", HS.OneShotPromotions);
  F("gc-bytes-allocated", HS.BytesAllocated);
  // Observability meta-telemetry: a nonzero drop count means the trace
  // ring wrapped and a Perfetto export holds only the newest window.
  F("trace-events-dropped", M.trace().dropped());
}

/// (#%vm-stat 'name) exposes one runtime counter to tests and benchmarks:
/// any name (runtime-stats) reports, plus mark-stack-size.
Value nativeVmStat(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isSymbol())
    return typeError(M, "#%vm-stat", "symbol", Args[0]);
  std::string Name = displayToString(Args[0]);
  if (Name == "mark-stack-size")
    return Value::fixnum(M.MarkStack.size());
  Value Found = Value::undefined();
  forEachRuntimeStat(M, [&](const char *StatName, uint64_t V) {
    if (Name == StatName)
      Found = Value::fixnum(V);
  });
  if (!Found.isUndefined())
    return Found;
  return M.raiseError("#%vm-stat: unknown counter " + Name);
}

/// (runtime-stats) -> association list ((name . count) ...) of every VM
/// event counter plus the GC-side counters, newest schema in
/// support/stats.h. The alist order matches the counter table.
Value nativeRuntimeStats(VM &M, Value *, uint32_t) {
  RootedValues Cells(M.heap());
  forEachRuntimeStat(M, [&](const char *Name, uint64_t V) {
    GCRoot Sym(M.heap(), M.heap().intern(Name));
    Cells.push(M.heap().makePair(Sym.get(), Value::fixnum(V)));
  });
  GCRoot Acc(M.heap(), Value::nil());
  for (size_t I = Cells.size(); I > 0; --I)
    Acc.set(M.heap().makePair(Cells[I - 1], Acc.get()));
  return Acc.get();
}

/// (runtime-stats-reset!) zeroes the VM event counters (GC counters are
/// cumulative for the heap's lifetime and are not reset).
Value nativeRuntimeStatsReset(VM &M, Value *, uint32_t) {
  M.stats().reset();
  return Value::voidValue();
}

/// (runtime-trace-start!) or (runtime-trace-start! capacity): clears the
/// trace ring (resizing it when a capacity is given) and starts recording.
Value nativeTraceStart(VM &M, Value *Args, uint32_t NArgs) {
  uint32_t Cap = 0;
  if (NArgs > 0) {
    if (!Args[0].isFixnum() || Args[0].asFixnum() <= 0)
      return typeError(M, "runtime-trace-start!", "positive fixnum", Args[0]);
    Cap = static_cast<uint32_t>(Args[0].asFixnum());
  }
  M.trace().start(Cap);
  return Value::voidValue();
}

Value nativeTraceStop(VM &M, Value *, uint32_t) {
  M.trace().stop();
  return Value::voidValue();
}

/// (runtime-trace-dump) returns the Chrome trace-event JSON as a string;
/// (runtime-trace-dump "file.json") writes it to the file and returns #t
/// (#f on an I/O failure).
Value nativeTraceDump(VM &M, Value *Args, uint32_t NArgs) {
  if (NArgs == 0) {
    std::string S = M.trace().toJson();
    return M.heap().makeString(S.data(), static_cast<uint32_t>(S.size()));
  }
  if (!Args[0].isString())
    return typeError(M, "runtime-trace-dump", "string", Args[0]);
  StringObj *S = asString(Args[0]);
  return Value::boolean(
      writeFile(std::string(S->Data, S->Len), M.trace().toJson()));
}

/// (profiler-start!) / (profiler-start! hz) / (profiler-start! hz capacity):
/// starts the safe-point sampling profiler on this engine (see
/// support/profiler.h). Samples attribute to the current procedure plus
/// the `#%trace-key` mark stack kept by with-stack-frame, so flamegraphs
/// show named Scheme procedures without any frame walking.
Value nativeProfilerStart(VM &M, Value *Args, uint32_t NArgs) {
  uint32_t Hz = SamplingProfiler::DefaultHz;
  uint32_t Cap = 0;
  if (NArgs > 0) {
    if (!Args[0].isFixnum() || Args[0].asFixnum() <= 0)
      return typeError(M, "profiler-start!", "positive fixnum", Args[0]);
    Hz = static_cast<uint32_t>(Args[0].asFixnum());
  }
  if (NArgs > 1) {
    if (!Args[1].isFixnum() || Args[1].asFixnum() <= 0)
      return typeError(M, "profiler-start!", "positive fixnum", Args[1]);
    Cap = static_cast<uint32_t>(Args[1].asFixnum());
  }
  M.profiler().start(M, Hz, Cap);
  return Value::voidValue();
}

/// (profiler-stop!) stops the sampler thread; captured samples stay
/// exportable. Returns the number of samples held.
Value nativeProfilerStop(VM &M, Value *, uint32_t) {
  M.profiler().stop();
  return Value::fixnum(static_cast<int64_t>(M.profiler().sampleCount()));
}

/// (profiler-dump) returns the collapsed-stack profile as a string;
/// (profiler-dump "file") writes it to the file and returns #t (#f on an
/// I/O failure). One "frames count" line per distinct stack —
/// flamegraph.pl / speedscope compatible.
Value nativeProfilerDump(VM &M, Value *Args, uint32_t NArgs) {
  if (NArgs == 0) {
    std::string S = M.profiler().toCollapsed();
    return M.heap().makeString(S.data(), static_cast<uint32_t>(S.size()));
  }
  if (!Args[0].isString())
    return typeError(M, "profiler-dump", "string", Args[0]);
  StringObj *S = asString(Args[0]);
  return Value::boolean(
      writeFile(std::string(S->Data, S->Len), M.profiler().toCollapsed()));
}

/// (runtime-metrics) -> the engine's `cmarks-metrics-v1` JSON document as
/// a string: every (runtime-stats) counter plus heap gauges and
/// trace/profile meta-telemetry, in the same schema EnginePool exports.
Value nativeRuntimeMetrics(VM &M, Value *, uint32_t) {
  MetricsRegistry R;
  M.fillMetrics(R);
  std::string S = R.json("engine");
  return M.heap().makeString(S.data(), static_cast<uint32_t>(S.size()));
}

/// (runtime-metrics-text) -> the same snapshot in Prometheus text
/// exposition format (scrape-ready).
Value nativeRuntimeMetricsText(VM &M, Value *, uint32_t) {
  MetricsRegistry R;
  M.fillMetrics(R);
  std::string S = R.prometheusText();
  return M.heap().makeString(S.data(), static_cast<uint32_t>(S.size()));
}

/// Label text for a user trace event: symbols and strings contribute
/// their characters, anything else its written form.
std::string traceLabelOf(Value V) {
  if (V.isSymbol()) {
    SymbolObj *S = asSymbol(V);
    return std::string(S->Data, S->Len);
  }
  if (V.isString()) {
    StringObj *S = asString(V);
    return std::string(S->Data, S->Len);
  }
  return writeToString(V);
}

/// (#%trace-span-begin label): opens a labeled slice in the trace (the
/// substrate of call-with-profiling). No-ops while tracing is stopped.
Value nativeTraceSpanBegin(VM &M, Value *Args, uint32_t NArgs) {
  if (M.trace().Enabled) {
    std::string L = NArgs > 0 ? traceLabelOf(Args[0]) : std::string();
    M.trace().record(TraceEv::SpanBegin, L.data(), L.size());
  }
  return Value::voidValue();
}

Value nativeTraceSpanEnd(VM &M, Value *, uint32_t) {
  CMK_TRACE_EV(M.trace(), SpanEnd);
  return Value::voidValue();
}

/// (#%trace-instant label): a labeled instant (stack snapshots).
Value nativeTraceInstant(VM &M, Value *Args, uint32_t NArgs) {
  if (M.trace().Enabled) {
    std::string L = NArgs > 0 ? traceLabelOf(Args[0]) : std::string();
    M.trace().record(TraceEv::Instant, L.data(), L.size());
  }
  return Value::voidValue();
}

Value nativeAdd1(VM &M, Value *Args, uint32_t) {
  NumResult R = numAdd(M.heap(), Args[0], Value::fixnum(1));
  if (!R.Ok)
    return typeError(M, "add1", "number", Args[0]);
  return R.V;
}

Value nativeSub1(VM &M, Value *Args, uint32_t) {
  NumResult R = numSub(M.heap(), Args[0], Value::fixnum(1));
  if (!R.Ok)
    return typeError(M, "sub1", "number", Args[0]);
  return R.V;
}

Value nativeSymbolToString(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isSymbol())
    return typeError(M, "symbol->string", "symbol", Args[0]);
  SymbolObj *S = asSymbol(Args[0]);
  return M.heap().makeString(S->Data, S->Len);
}

Value nativeStringToSymbol(VM &M, Value *Args, uint32_t) {
  if (!Args[0].isString())
    return typeError(M, "string->symbol", "string", Args[0]);
  StringObj *S = asString(Args[0]);
  return M.heap().intern(S->Data, S->Len);
}

} // namespace

void cmk::installPrimitives(VM &M) {
  M.defineNative("+", nativeAdd, 0, -1);
  M.defineNative("-", nativeSub, 1, -1);
  M.defineNative("*", nativeMul, 0, -1);
  M.defineNative("/", nativeDiv, 1, -1);
  M.defineNative("<", nativeLt, 2, -1);
  M.defineNative("<=", nativeLe, 2, -1);
  M.defineNative(">", nativeGt, 2, -1);
  M.defineNative(">=", nativeGe, 2, -1);
  M.defineNative("=", nativeNumEq, 2, -1);
  M.defineNative("quotient", nativeQuotient, 2, 2);
  M.defineNative("remainder", nativeRemainder, 2, 2);
  M.defineNative("modulo", nativeModulo, 2, 2);
  M.defineNative("min", nativeMin, 1, -1);
  M.defineNative("max", nativeMax, 1, -1);
  M.defineNative("abs", nativeAbs, 1, 1);
  M.defineNative("sqrt", nativeSqrt, 1, 1);
  M.defineNative("sin", nativeSin, 1, 1);
  M.defineNative("cos", nativeCos, 1, 1);
  M.defineNative("exp", nativeExp, 1, 1);
  M.defineNative("log", nativeLog, 1, 1);
  M.defineNative("atan", nativeAtan, 1, 2);
  M.defineNative("expt", nativeExpt, 2, 2);
  M.defineNative("floor", nativeFloor, 1, 1);
  M.defineNative("ceiling", nativeCeiling, 1, 1);
  M.defineNative("truncate", nativeTruncate, 1, 1);
  M.defineNative("round", nativeRound, 1, 1);
  M.defineNative("exact->inexact", nativeExactToInexact, 1, 1);
  M.defineNative("inexact->exact", nativeInexactToExact, 1, 1);
  M.defineNative("add1", nativeAdd1, 1, 1);
  M.defineNative("sub1", nativeSub1, 1, 1);
  M.defineNative("number?", nativeNumberP, 1, 1);
  M.defineNative("integer?", nativeIntegerP, 1, 1);
  M.defineNative("fixnum?", nativeFixnumP, 1, 1);
  M.defineNative("flonum?", nativeFlonumP, 1, 1);
  M.defineNative("even?", nativeEvenP, 1, 1);
  M.defineNative("odd?", nativeOddP, 1, 1);
  M.defineNative("positive?", nativePositiveP, 1, 1);
  M.defineNative("negative?", nativeNegativeP, 1, 1);
  M.defineNative("zero?", nativeZeroP, 1, 1);
  M.defineNative("eq?", nativeEqP, 2, 2);
  M.defineNative("eqv?", nativeEqvP, 2, 2);
  M.defineNative("equal?", nativeEqualP, 2, 2);
  M.defineNative("not", nativeNot, 1, 1);
  M.defineNative("boolean?", nativeBooleanP, 1, 1);
  M.defineNative("symbol?", nativeSymbolP, 1, 1);
  M.defineNative("string?", nativeStringP, 1, 1);
  M.defineNative("char?", nativeCharP, 1, 1);
  M.defineNative("procedure?", nativeProcedureP, 1, 1);
  M.defineNative("vector?", nativeVectorP, 1, 1);
  M.defineNative("null?", nativeNullP, 1, 1);
  M.defineNative("pair?", nativePairP, 1, 1);
  M.defineNative("void?", nativeVoidP, 1, 1);
  M.defineNative("void", nativeVoid, 0, -1);
  M.defineNative("eof-object?", nativeEofObjectP, 1, 1);
  M.defineNative("make-vector", nativeMakeVector, 1, 2);
  M.defineNative("vector", nativeVector, 0, -1);
  M.defineNative("vector-length", nativeVectorLength, 1, 1);
  M.defineNative("vector-ref", nativeVectorRef, 2, 2);
  M.defineNative("vector-set!", nativeVectorSet, 3, 3);
  M.defineNative("vector-fill!", nativeVectorFill, 2, 2);
  M.defineNative("vector->list", nativeVectorToList, 1, 1);
  M.defineNative("list->vector", nativeListToVector, 1, 1);
  M.defineNative("vector-copy", nativeVectorCopy, 1, 1);
  M.defineNative("box", nativeBox, 1, 1);
  M.defineNative("unbox", nativeUnbox, 1, 1);
  M.defineNative("set-box!", nativeSetBox, 2, 2);
  M.defineNative("box?", nativeBoxP, 1, 1);
  M.defineNative("make-hash", nativeMakeHash, 0, 0);
  M.defineNative("make-equal-hash", nativeMakeEqualHash, 0, 0);
  M.defineNative("hash?", nativeHashP, 1, 1);
  M.defineNative("hash-set!", nativeHashSet, 3, 3);
  M.defineNative("hash-ref", nativeHashRef, 2, 3);
  M.defineNative("hash-remove!", nativeHashRemove, 2, 2);
  M.defineNative("hash-count", nativeHashCount, 1, 1);
  M.defineNative("hash-keys", nativeHashKeys, 1, 1);
  M.defineNative("display", nativeDisplay, 1, 2);
  M.defineNative("write", nativeWrite, 1, 2);
  M.defineNative("newline", nativeNewline, 0, 1);
  M.defineNative("open-output-string", nativeOpenOutputString, 0, 0);
  M.defineNative("get-output-string", nativeGetOutputString, 1, 1);
  M.defineNative("port?", nativePortP, 1, 1);
  M.defineNative("#%fatal-error", nativeFatalError, 1, -1);
  M.defineNative("#%fatal-limit", nativeFatalLimit, 1, -1);
  M.defineNative("#%set-snapshot-key!", nativeSetSnapshotKey, 1, 1);
  M.defineNative("#%fault-stats", nativeFaultStats, 0, 0);
  M.defineNative("error", nativeFatalError, 1, -1); // Overridden in prelude.
  M.defineNative("apply", nativeApply, 1, -1);
  M.defineNative("gensym", nativeGensym, 0, 1);
  M.defineNative("collect-garbage", nativeCollectGarbage, 0, 0);
  M.defineNative("current-inexact-milliseconds", nativeCurrentMillis, 0, 0);
  M.defineNative("sleep-ms", nativeSleepMs, 1, 1);
  M.defineNative("#%vm-stat", nativeVmStat, 1, 1);
  M.defineNative("runtime-stats", nativeRuntimeStats, 0, 0);
  M.defineNative("runtime-stats-reset!", nativeRuntimeStatsReset, 0, 0);
  M.defineNative("runtime-trace-start!", nativeTraceStart, 0, 1);
  M.defineNative("runtime-trace-stop!", nativeTraceStop, 0, 0);
  M.defineNative("runtime-trace-dump", nativeTraceDump, 0, 1);
  M.defineNative("#%trace-span-begin", nativeTraceSpanBegin, 0, 1);
  M.defineNative("#%trace-span-end", nativeTraceSpanEnd, 0, 0);
  M.defineNative("#%trace-instant", nativeTraceInstant, 0, 1);
  M.defineNative("profiler-start!", nativeProfilerStart, 0, 2);
  M.defineNative("profiler-stop!", nativeProfilerStop, 0, 0);
  M.defineNative("profiler-dump", nativeProfilerDump, 0, 1);
  M.defineNative("runtime-metrics", nativeRuntimeMetrics, 0, 0);
  M.defineNative("runtime-metrics-text", nativeRuntimeMetricsText, 0, 0);
  M.defineNative("symbol->string", nativeSymbolToString, 1, 1);
  M.defineNative("string->symbol", nativeStringToSymbol, 1, 1);
}
