//===- support/profiler.cpp - Safe-point sampling profiler ----------------===//
///
/// \file
/// Sampler thread, the allocation-free capture path, and collapsed-stack
/// folding. See profiler.h for the protocol and DESIGN.md §13 for why
/// capture must not touch VMStats or fuel.
///
//===----------------------------------------------------------------------===//

#include "support/profiler.h"

#include "marks/marks.h"
#include "support/timing.h"
#include "vm/vm.h"

#include <chrono>
#include <cstring>

using namespace cmk;

void SamplingProfiler::start(VM &M, uint32_t Hz, uint32_t Capacity) {
  if (running())
    return;
  if (Hz == 0)
    Hz = DefaultHz;
  Cap = Capacity ? Capacity : (Cap ? Cap : DefaultCapacity);
  Samples.assign(Cap, ProfileSample{});
  Head = 0;
  Pokes.store(0, std::memory_order_relaxed);
  StopRequested = false;
  auto Period = std::chrono::nanoseconds(1000000000ull / Hz);
  // The thread touches only the VM's atomic signal word — the engine
  // itself never blocks on the sampler and the sampler never reads
  // engine state, so this is TSan-clean by construction.
  Sampler = std::thread([this, &M, Period] {
    std::unique_lock<std::mutex> L(SamplerMu);
    for (;;) {
      if (SamplerCv.wait_for(L, Period, [this] { return StopRequested; }))
        return;
      M.pokeSample();
      Pokes.fetch_add(1, std::memory_order_relaxed);
    }
  });
}

void SamplingProfiler::stopThread() {
  if (!Sampler.joinable())
    return;
  {
    std::lock_guard<std::mutex> L(SamplerMu);
    StopRequested = true;
  }
  SamplerCv.notify_all();
  Sampler.join();
}

namespace {

/// Appends a frame value's text to [*P, End), returning false when it
/// does not fully fit (the caller then stops adding outer frames, keeping
/// the leaf-side attribution intact). Handles the value shapes
/// with-stack-frame plausibly stores; no allocation.
bool appendFrameText(char *&P, char *End, Value V) {
  const char *Data = nullptr;
  size_t Len = 0;
  char Buf[24];
  if (V.isSymbol()) {
    SymbolObj *S = asSymbol(V);
    Data = S->Data;
    Len = S->Len;
  } else if (V.isString()) {
    StringObj *S = asString(V);
    Data = S->Data;
    Len = S->Len;
  } else if (V.isFixnum()) {
    Len = static_cast<size_t>(std::snprintf(
        Buf, sizeof(Buf), "%lld", static_cast<long long>(V.asFixnum())));
    Data = Buf;
  } else {
    Data = "?";
    Len = 1;
  }
  if (static_cast<size_t>(End - P) < Len)
    return false;
  // Collapsed-stack syntax reserves ';' (frame separator) and ' '
  // (count separator): map them to ':' and '_'.
  for (size_t I = 0; I < Len; ++I) {
    char C = Data[I];
    *P++ = C == ';' ? ':' : (C == ' ' ? '_' : C);
  }
  return true;
}

} // namespace

void SamplingProfiler::captureSample(VM &M) {
  if (!Cap)
    return; // Stale poke consumed after stop()/before start().
  ProfileSample &S = Samples[Head % Cap];
  S.TimeNs = nowNanos();

  // Gather the #%trace-key mark chain, innermost first, straight off the
  // attachment list (or the MarkStackMode side stack) — the same data
  // current-stack-snapshot reads, but without the counting/caching
  // lookup entry points, so sampling never perturbs VMStats.
  Value Frames[MaxDepth];
  uint32_t N = 0;
  Value Key = M.SnapshotKey;
  if (!Key.isUndefined()) {
    if (M.config().MarkStackMode) {
      for (size_t I = M.MarkStack.size(); I > 0 && N < MaxDepth; --I)
        if (M.MarkStack[I - 1].Key == Key)
          Frames[N++] = M.MarkStack[I - 1].Val;
    } else {
      for (Value P = M.currentMarksList(); P.isPair() && N < MaxDepth;
           P = asPair(P)->Cdr) {
        Value Att = asPair(P)->Car;
        if (!Att.isMarkFrame())
          continue;
        Value V = markFrameLookup(Att, Key);
        if (!V.isUndefined())
          Frames[N++] = V;
      }
    }
  }

  // The leaf is the procedure the VM is actually executing — named even
  // for let-bound loops (the compiler names letrec/let lambdas), which is
  // what makes mark-free code attributable.
  char *P = S.Stack;
  char *End = S.Stack + sizeof(S.Stack) - 1;
  // Root-first: outermost mark frame ... innermost mark frame ; leaf.
  for (uint32_t I = N; I > 0; --I) {
    char *Save = P;
    if (!appendFrameText(P, End - 1, Frames[I - 1])) {
      P = Save;
      break;
    }
    *P++ = ';';
  }
  Value Name = Value::undefined();
  if (M.Regs.CurCode.isKind(ObjKind::Code))
    Name = asCode(M.Regs.CurCode)->Name;
  if (Name.isSymbol()) {
    if (!appendFrameText(P, End, Name)) {
      // No room for the leaf after the mark prefix: restart with the
      // leaf alone so attribution survives.
      P = S.Stack;
      appendFrameText(P, End, Name);
    }
  } else {
    const char *Anon = "(anonymous)";
    size_t Len = std::strlen(Anon);
    if (static_cast<size_t>(End - P) < Len)
      P = S.Stack;
    std::memcpy(P, Anon, Len);
    P += Len;
  }
  *P = '\0';
  ++Head;
}

void SamplingProfiler::foldInto(std::map<std::string, uint64_t> &Out) const {
  uint64_t N = sampleCount();
  uint64_t Oldest = Head < Cap ? 0 : Head - Cap;
  for (uint64_t I = 0; I < N; ++I) {
    const ProfileSample &S = Samples[(Oldest + I) % Cap];
    if (S.Stack[0])
      ++Out[S.Stack];
  }
}

std::string
SamplingProfiler::collapsedText(const std::map<std::string, uint64_t> &F) {
  std::string Out;
  for (const auto &KV : F) {
    Out += KV.first;
    Out += ' ';
    char Buf[24];
    std::snprintf(Buf, sizeof(Buf), "%llu",
                  static_cast<unsigned long long>(KV.second));
    Out += Buf;
    Out += '\n';
  }
  return Out;
}

std::string SamplingProfiler::toCollapsed() const {
  std::map<std::string, uint64_t> F;
  foldInto(F);
  return collapsedText(F);
}
