//===- support/trace.cpp - Trace ring buffer and JSON export ---*- C++ -*-===//
///
/// \file
/// TraceBuffer implementation: the event descriptor table, the ring
/// recording path, and the Chrome trace-event JSON exporter with
/// Begin/End re-balancing.
///
//===----------------------------------------------------------------------===//

#include "support/trace.h"
#include "support/metrics.h"
#include "support/timing.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace cmk;

// Keep in declaration order of TraceEv; the exporter indexes by kind.
static const TraceEventDesc Descs[] = {
    {"reify-tail-frame", "reify", 'i'},
    {"reify-split", "reify", 'i'},
    {"attach-call-reify", "reify", 'i'},
    {"attach-op-reify", "reify", 'i'},
    {"underflow-fuse", "oneshot", 'i'},
    {"underflow-copy", "oneshot", 'i'},
    {"one-shot-promote", "oneshot", 'i'},
    {"capture", "cont", 'i'},
    {"cont-apply", "cont", 'i'},
    {"cont-jump", "cont", 'i'},
    {"segment-alloc", "segment", 'i'},
    {"segment-overflow", "segment", 'i'},
    {"dynamic-wind", "wind", 'B'},
    {"dynamic-wind", "wind", 'E'},
    {"wcm", "marks", 'B'},
    {"wcm", "marks", 'E'},
    {"wcm-tail", "marks", 'B'},
    {"wcm-tail", "marks", 'E'},
    {"span", "scheme", 'B'},
    {"span", "scheme", 'E'},
    {"snapshot", "scheme", 'i'},
    {"job", "job", 'B'},
    {"job", "job", 'E'},
    {"worker-restart", "supervision", 'B'},
    {"worker-restart", "supervision", 'E'},
    {"segment-recycle", "segment", 'i'},
    {"mark-frame-create", "marks-detail", 'i'},
    {"mark-frame-extend", "marks-detail", 'i'},
    {"mark-frame-rebind", "marks-detail", 'i'},
    {"mark-cache-hit", "marks-detail", 'i'},
    {"mark-cache-install", "marks-detail", 'i'},
    {"mark-set-capture", "marks-detail", 'i'},
};

static_assert(sizeof(Descs) / sizeof(Descs[0]) ==
                  static_cast<size_t>(TraceEv::NumKinds),
              "descriptor table out of sync with TraceEv");

const TraceEventDesc *cmk::traceEventDescs(int &Count) {
  Count = static_cast<int>(TraceEv::NumKinds);
  return Descs;
}

void TraceBuffer::start(uint32_t Capacity) {
  reset(Capacity ? Capacity : (Cap ? Cap : DefaultCapacity));
  EpochNs = nowNanos();
  Enabled = true;
}

void TraceBuffer::reset(uint32_t Capacity) {
  Events.clear();
  if (Capacity) {
    Cap = Capacity < MinCapacity ? MinCapacity : Capacity;
    Events.shrink_to_fit();
  }
  Head = 0;
}

TraceEvent &TraceBuffer::nextSlot() {
  if (!Cap)
    reset(DefaultCapacity);
  if (Head >= Cap)
    return Events[Head % Cap];
  // Until the ring first fills, Events holds exactly the Head events
  // recorded. It grows by doubling but never past Cap, so a ring that
  // fills only partly costs only what it holds.
  if (Events.size() == Events.capacity())
    Events.reserve(std::min<size_t>(
        Cap, std::max<size_t>(2 * Events.size(), MinCapacity)));
  return Events.emplace_back();
}

void TraceBuffer::record(TraceEv Kind, uint64_t Arg) {
  TraceEvent &E = nextSlot();
  E.TimeNs = nowNanos();
  E.Arg = Arg;
  E.Kind = Kind;
  E.Label[0] = '\0';
  ++Head;
}

void TraceBuffer::record(TraceEv Kind, const char *Label, size_t LabelLen,
                         uint64_t Arg) {
  TraceEvent &E = nextSlot();
  E.TimeNs = nowNanos();
  E.Arg = Arg;
  E.Kind = Kind;
  size_t N = LabelLen < sizeof(E.Label) - 1 ? LabelLen : sizeof(E.Label) - 1;
  std::memcpy(E.Label, Label, N);
  E.Label[N] = '\0';
  ++Head;
}

uint64_t TraceBuffer::size() const { return Head < Cap ? Head : Cap; }

uint64_t TraceBuffer::dropped() const { return Head < Cap ? 0 : Head - Cap; }

const TraceEvent &TraceBuffer::at(uint64_t I) const {
  uint64_t Oldest = Head < Cap ? 0 : Head - Cap;
  return Events[(Oldest + I) % Cap];
}

namespace {

/// Appends one Chrome trace-event object. \p Ts is microseconds relative
/// to the trace epoch; \p Name overrides the descriptor name when given.
void appendEvent(std::string &Out, const TraceEventDesc &D, char Phase,
                 double Ts, const char *Name, uint64_t Arg, bool First,
                 int Tid = 1) {
  if (!First)
    Out += ",\n";
  char Buf[96];
  Out += "    {\"name\":\"";
  appendJsonEscaped(Out, Name && Name[0] ? Name : D.Name);
  Out += "\",\"cat\":\"";
  Out += D.Category;
  std::snprintf(Buf, sizeof(Buf),
                "\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,\"tid\":%d", Phase, Ts,
                Tid);
  Out += Buf;
  if (Phase != 'E') {
    std::snprintf(Buf, sizeof(Buf),
                  ",\"args\":{\"n\":%llu}",
                  static_cast<unsigned long long>(Arg));
    Out += Buf;
  }
  Out += "}";
}

/// Emits one buffer's events as tid \p Tid, timestamps relative to
/// \p EpochNs, repairing Begin/End balance exactly as toJson always has:
/// orphaned Ends are dropped, unclosed Begins are closed at the final
/// timestamp. The export-side stack is per buffer — spans never cross
/// engines.
void appendBufferEvents(std::string &Out, const TraceBuffer &TB,
                        uint64_t EpochNs, int Tid) {
  struct OpenSpan {
    const TraceEventDesc *D;
    std::string Name;
  };
  std::vector<OpenSpan> Open;

  int NumDescs = 0;
  const TraceEventDesc *DTable = traceEventDescs(NumDescs);
  uint64_t N = TB.size();
  double LastTs = 0.0;
  for (uint64_t I = 0; I < N; ++I) {
    const TraceEvent &E = TB.at(I);
    const TraceEventDesc &D = DTable[static_cast<size_t>(E.Kind)];
    // Events recorded before start() reset the epoch cannot exist (start
    // clears the ring), so TimeNs >= EpochNs always holds.
    double Ts = static_cast<double>(E.TimeNs - EpochNs) / 1e3;
    LastTs = Ts;
    if (D.Phase == 'B') {
      const char *Name = E.Label[0] ? E.Label : D.Name;
      appendEvent(Out, D, 'B', Ts, Name, E.Arg, false, Tid);
      Open.push_back({&D, Name});
    } else if (D.Phase == 'E') {
      // An End with no matching Begin in the retained window (ring
      // wraparound dropped it, or a continuation jump skipped the Begin):
      // emitting it would corrupt nesting, so drop it.
      if (Open.empty())
        continue;
      appendEvent(Out, *Open.back().D, 'E', Ts, Open.back().Name.c_str(),
                  E.Arg, false, Tid);
      Open.pop_back();
    } else {
      appendEvent(Out, D, D.Phase, Ts, E.Label, E.Arg, false, Tid);
    }
  }
  // Close spans left open (still running at stop, or exited by a
  // continuation jump whose resumption was never traced).
  while (!Open.empty()) {
    appendEvent(Out, *Open.back().D, 'E', LastTs, Open.back().Name.c_str(), 0,
                false, Tid);
    Open.pop_back();
  }
}

} // namespace

std::string TraceBuffer::toJson() const {
  std::string Out;
  Out.reserve(size() * 96 + 512);
  Out += "{\n  \"traceEvents\": [\n";
  Out += "    {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"cmarks\"}}";
  appendBufferEvents(Out, *this, EpochNs, /*Tid=*/1);

  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "\n  ],\n  \"displayTimeUnit\": \"ms\",\n"
                "  \"otherData\": {\"schema\": \"cmarks-trace-v1\", "
                "\"events\": %llu, \"dropped\": %llu}\n}\n",
                static_cast<unsigned long long>(size()),
                static_cast<unsigned long long>(dropped()));
  Out += Buf;
  return Out;
}

std::string
cmk::mergedTraceJson(const std::vector<const TraceBuffer *> &Buffers,
                     const std::vector<std::string> &ThreadNames) {
  std::string Out;
  uint64_t Events = 0, Dropped = 0;
  uint64_t Epoch = UINT64_MAX;
  for (const TraceBuffer *TB : Buffers)
    if (TB && TB->epochNs() && TB->epochNs() < Epoch)
      Epoch = TB->epochNs();
  if (Epoch == UINT64_MAX)
    Epoch = 0;

  Out += "{\n  \"traceEvents\": [\n";
  Out += "    {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"cmarks-pool\"}}";
  for (size_t I = 0; I < Buffers.size(); ++I) {
    const TraceBuffer *TB = Buffers[I];
    if (!TB || !TB->epochNs())
      continue;
    int Tid = static_cast<int>(I) + 1;
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  ",\n    {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"",
                  Tid);
    Out += Buf;
    appendJsonEscaped(Out, I < ThreadNames.size() ? ThreadNames[I].c_str()
                                                  : "worker");
    Out += "\"}}";
    appendBufferEvents(Out, *TB, Epoch, Tid);
    Events += TB->size();
    Dropped += TB->dropped();
  }

  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "\n  ],\n  \"displayTimeUnit\": \"ms\",\n"
                "  \"otherData\": {\"schema\": \"cmarks-trace-v1\", "
                "\"events\": %llu, \"dropped\": %llu, \"threads\": %llu}\n}\n",
                static_cast<unsigned long long>(Events),
                static_cast<unsigned long long>(Dropped),
                static_cast<unsigned long long>(Buffers.size()));
  Out += Buf;
  return Out;
}
