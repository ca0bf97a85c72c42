//===- support/metrics.cpp - Histograms and metrics export ----------------===//

#include "support/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace cmk;

// -----------------------------------------------------------------------------
// LogHistogram
// -----------------------------------------------------------------------------
//
// Bucket math (HdrHistogram-style): values below SubBuckets (16) get one
// exact bucket each. For larger values let m = index of the highest set
// bit (m >= SubBucketBits); the octave [2^m, 2^(m+1)) is split into
// SubBuckets equal ranges of width 2^(m - SubBucketBits). The first
// octave (m == SubBucketBits) continues seamlessly from the exact
// region: its sub-bucket width is 1.

uint32_t LogHistogram::bucketIndex(uint64_t V) {
  if (V < SubBuckets)
    return static_cast<uint32_t>(V);
  uint32_t Msb = 63 - static_cast<uint32_t>(__builtin_clzll(V));
  uint32_t Octave = Msb - SubBucketBits + 1;
  uint32_t Sub =
      static_cast<uint32_t>(V >> (Msb - SubBucketBits)) - SubBuckets;
  return Octave * SubBuckets + Sub;
}

uint64_t LogHistogram::bucketLow(uint32_t Idx) {
  if (Idx < SubBuckets)
    return Idx;
  uint32_t Octave = Idx / SubBuckets; // >= 1
  uint32_t Sub = Idx % SubBuckets;
  return static_cast<uint64_t>(SubBuckets + Sub) << (Octave - 1);
}

uint64_t LogHistogram::bucketHigh(uint32_t Idx) {
  if (Idx < SubBuckets)
    return Idx;
  uint32_t Octave = Idx / SubBuckets;
  uint64_t Width = uint64_t(1) << (Octave - 1);
  return bucketLow(Idx) + (Width - 1);
}

void LogHistogram::record(uint64_t V) {
  ++Buckets[bucketIndex(V)];
  ++Count;
  uint64_t NewSum = Sum + V;
  Sum = NewSum >= Sum ? NewSum : UINT64_MAX; // Saturate, never wrap.
  if (V < Min)
    Min = V;
  if (V > Max)
    Max = V;
}

void LogHistogram::merge(const LogHistogram &O) {
  for (uint32_t I = 0; I < NumBuckets; ++I)
    Buckets[I] += O.Buckets[I];
  Count += O.Count;
  uint64_t NewSum = Sum + O.Sum;
  Sum = NewSum >= Sum ? NewSum : UINT64_MAX;
  if (O.Count) {
    if (O.Min < Min)
      Min = O.Min;
    if (O.Max > Max)
      Max = O.Max;
  }
}

void LogHistogram::reset() { *this = LogHistogram(); }

uint64_t LogHistogram::percentile(double P) const {
  if (!Count)
    return 0;
  double Exact = P / 100.0 * static_cast<double>(Count);
  uint64_t Rank = static_cast<uint64_t>(std::ceil(Exact));
  if (Rank < 1)
    Rank = 1;
  if (Rank > Count)
    Rank = Count;
  uint64_t Seen = 0;
  for (uint32_t I = 0; I < NumBuckets; ++I) {
    Seen += Buckets[I];
    if (Seen >= Rank) {
      uint64_t V = bucketHigh(I);
      return V > Max ? Max : V; // Clamp: Max is exact.
    }
  }
  return Max;
}

HistogramSnapshot LogHistogram::snapshot() const {
  HistogramSnapshot S;
  S.Count = Count;
  S.Sum = Sum;
  S.Min = min();
  S.Max = Max;
  S.P50 = percentile(50);
  S.P90 = percentile(90);
  S.P99 = percentile(99);
  S.P999 = percentile(99.9);
  return S;
}

// -----------------------------------------------------------------------------
// MetricsRegistry
// -----------------------------------------------------------------------------

void MetricsRegistry::counter(const std::string &Name, const std::string &Help,
                              const Labels &L, uint64_t Value) {
  Entries.push_back({Entry::Kind::Counter, Name, Help, L,
                     static_cast<double>(Value), {}, 1.0});
}

void MetricsRegistry::gauge(const std::string &Name, const std::string &Help,
                            const Labels &L, double Value) {
  Entries.push_back({Entry::Kind::Gauge, Name, Help, L, Value, {}, 1.0});
}

void MetricsRegistry::histogram(const std::string &Name,
                                const std::string &Help, const Labels &L,
                                const LogHistogram &H, double Scale) {
  Entries.push_back({Entry::Kind::Histogram, Name, Help, L, 0, H.snapshot(),
                     Scale});
}

void cmk::appendJsonEscaped(std::string &Out, std::string_view S) {
  for (char Ch : S) {
    unsigned char C = static_cast<unsigned char>(Ch);
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
}

bool cmk::writeFile(const std::string &Path, const std::string &Body) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Body.data(), 1, Body.size(), F) == Body.size();
  return std::fclose(F) == 0 && Ok;
}

namespace {

/// Number formatting shared by both exports: integers render without a
/// fraction so counters stay exact; everything else gets enough digits
/// to round-trip.
void appendNumber(std::string &Out, double V) {
  if (V == static_cast<double>(static_cast<long long>(V)) &&
      std::fabs(V) < 9.0e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
    Out += Buf;
  } else {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.10g", V);
    Out += Buf;
  }
}

void appendPromLabels(std::string &Out, const MetricsRegistry::Labels &L,
                      const char *ExtraKey = nullptr,
                      const char *ExtraVal = nullptr) {
  if (L.empty() && !ExtraKey)
    return;
  Out += '{';
  bool First = true;
  for (const auto &KV : L) {
    if (!First)
      Out += ',';
    First = false;
    Out += KV.first;
    Out += "=\"";
    appendJsonEscaped(Out, KV.second);
    Out += '"';
  }
  if (ExtraKey) {
    if (!First)
      Out += ',';
    Out += ExtraKey;
    Out += "=\"";
    Out += ExtraVal;
    Out += '"';
  }
  Out += '}';
}

void appendJsonLabels(std::string &Out, const MetricsRegistry::Labels &L) {
  Out += "\"labels\":{";
  bool First = true;
  for (const auto &KV : L) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    appendJsonEscaped(Out, KV.first);
    Out += "\":\"";
    appendJsonEscaped(Out, KV.second);
    Out += '"';
  }
  Out += '}';
}

} // namespace

std::string MetricsRegistry::prometheusText() const {
  std::string Out;
  Out.reserve(Entries.size() * 128 + 256);
  // One # HELP/# TYPE header per distinct metric name, emitted before the
  // name's first sample (Prometheus requires series of one name to be
  // grouped; entries of one name are appended consecutively by the
  // producers here).
  std::string LastName;
  for (const Entry &E : Entries) {
    if (E.Name != LastName) {
      LastName = E.Name;
      const char *Type = E.K == Entry::Kind::Counter ? "counter"
                         : E.K == Entry::Kind::Gauge ? "gauge"
                                                     : "summary";
      Out += "# HELP " + E.Name + " " + E.Help + "\n";
      Out += "# TYPE " + E.Name + " " + Type + "\n";
    }
    if (E.K == Entry::Kind::Histogram) {
      const HistogramSnapshot &S = E.Snap;
      const struct {
        const char *Q;
        uint64_t V;
      } Quantiles[] = {{"0.5", S.P50}, {"0.9", S.P90}, {"0.99", S.P99},
                       {"0.999", S.P999}};
      for (const auto &Q : Quantiles) {
        Out += E.Name;
        appendPromLabels(Out, E.L, "quantile", Q.Q);
        Out += ' ';
        appendNumber(Out, static_cast<double>(Q.V) * E.Scale);
        Out += '\n';
      }
      Out += E.Name + "_sum";
      appendPromLabels(Out, E.L);
      Out += ' ';
      appendNumber(Out, static_cast<double>(S.Sum) * E.Scale);
      Out += '\n';
      Out += E.Name + "_count";
      appendPromLabels(Out, E.L);
      Out += ' ';
      appendNumber(Out, static_cast<double>(S.Count));
      Out += '\n';
    } else {
      Out += E.Name;
      appendPromLabels(Out, E.L);
      Out += ' ';
      appendNumber(Out, E.Value);
      Out += '\n';
    }
  }
  return Out;
}

std::string MetricsRegistry::json(const std::string &Component) const {
  std::string Out;
  Out.reserve(Entries.size() * 160 + 256);
  Out += "{\n  \"schema\": \"cmarks-metrics-v1\",\n  \"component\": \"";
  appendJsonEscaped(Out, Component);
  Out += "\",\n";

  auto AppendScalarSection = [&](const char *Section, Entry::Kind K) {
    Out += "  \"";
    Out += Section;
    Out += "\": [";
    bool First = true;
    for (const Entry &E : Entries) {
      if (E.K != K)
        continue;
      Out += First ? "\n" : ",\n";
      First = false;
      Out += "    {\"name\":\"";
      appendJsonEscaped(Out, E.Name);
      Out += "\",";
      appendJsonLabels(Out, E.L);
      Out += ",\"value\":";
      appendNumber(Out, E.Value);
      Out += '}';
    }
    Out += First ? "]" : "\n  ]";
  };

  AppendScalarSection("counters", Entry::Kind::Counter);
  Out += ",\n";
  AppendScalarSection("gauges", Entry::Kind::Gauge);
  Out += ",\n  \"histograms\": [";
  bool First = true;
  for (const Entry &E : Entries) {
    if (E.K != Entry::Kind::Histogram)
      continue;
    Out += First ? "\n" : ",\n";
    First = false;
    const HistogramSnapshot &S = E.Snap;
    Out += "    {\"name\":\"";
    appendJsonEscaped(Out, E.Name);
    Out += "\",";
    appendJsonLabels(Out, E.L);
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), ",\"count\":%llu,\"sum\":",
                  static_cast<unsigned long long>(S.Count));
    Out += Buf;
    appendNumber(Out, static_cast<double>(S.Sum) * E.Scale);
    const struct {
      const char *Key;
      uint64_t V;
    } Fields[] = {{"min", S.Min}, {"max", S.Max},   {"p50", S.P50},
                  {"p90", S.P90}, {"p99", S.P99},   {"p999", S.P999}};
    for (const auto &F : Fields) {
      Out += ",\"";
      Out += F.Key;
      Out += "\":";
      appendNumber(Out, static_cast<double>(F.V) * E.Scale);
    }
    Out += '}';
  }
  Out += First ? "]" : "\n  ]";
  Out += "\n}\n";
  return Out;
}
