//===- support/metrics.h - Serving telemetry: histograms + export -*- C++ -*-===//
///
/// \file
/// Production-serving metrics for cmarks: log-bucketed latency histograms
/// (HDR-style), monotonic counters, and gauges, plus a registry that
/// renders one snapshot as Prometheus text exposition or as a versioned
/// JSON document (schema `cmarks-metrics-v1`, validated by
/// tools/metrics_report.py).
///
/// The recording design is lock-cheap by construction rather than by
/// clever atomics: a LogHistogram is a plain (single-writer) object, and
/// every concurrent producer owns a private one — EnginePool gives each
/// worker a telemetry shard guarded by that worker's own mutex, so the
/// retirement path locks an uncontended mutex and never touches a global.
/// Readers *merge* histograms across shards (merge is associative and
/// commutative: plain bucket-wise addition), which is what makes the
/// snapshot model work: record into shards, merge on read.
///
/// Bucket layout (HdrHistogram-style log buckets): values below
/// `SubBuckets` (16) are exact; above that, each power-of-two octave is
/// split into 16 sub-buckets, so any reported quantile is within a
/// relative error of 1/16 = 6.25% of the true sample. Covers the full
/// uint64 range in ~976 buckets (one fixed 8 KiB array, no allocation
/// after construction).
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_SUPPORT_METRICS_H
#define CMARKS_SUPPORT_METRICS_H

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cmk {

/// Pre-computed percentile summary of one histogram (snapshot()).
/// Percentile values are bucket upper bounds: an estimate is never below
/// the true quantile and is within 1/16 relative error above it.
struct HistogramSnapshot {
  uint64_t Count = 0;
  uint64_t Sum = 0; ///< Exact sum of recorded values (saturating).
  uint64_t Min = 0; ///< Exact; 0 when empty.
  uint64_t Max = 0; ///< Exact; 0 when empty.
  uint64_t P50 = 0;
  uint64_t P90 = 0;
  uint64_t P99 = 0;
  uint64_t P999 = 0;
};

/// Log-bucketed histogram of non-negative integer samples (typically
/// microseconds). Single writer; merge() combines histograms recorded by
/// different writers. All operations are allocation-free.
class LogHistogram {
public:
  /// Sub-bucket resolution: 2^4 = 16 sub-buckets per octave.
  static constexpr uint32_t SubBucketBits = 4;
  static constexpr uint32_t SubBuckets = 1u << SubBucketBits;
  /// Buckets 0..SubBuckets-1 are exact; octaves for msb in
  /// [SubBucketBits .. 63] contribute SubBuckets buckets each.
  static constexpr uint32_t NumBuckets =
      SubBuckets + (64 - SubBucketBits) * SubBuckets;

  /// Bucket index holding \p V.
  static uint32_t bucketIndex(uint64_t V);
  /// Smallest value mapping to bucket \p Idx.
  static uint64_t bucketLow(uint32_t Idx);
  /// Largest value mapping to bucket \p Idx (the quantile estimate).
  static uint64_t bucketHigh(uint32_t Idx);

  void record(uint64_t V);
  /// Bucket-wise addition; associative and commutative.
  void merge(const LogHistogram &O);
  void reset();

  uint64_t count() const { return Count; }
  uint64_t sum() const { return Sum; }
  uint64_t min() const { return Count ? Min : 0; }
  uint64_t max() const { return Max; }

  /// Value at percentile \p P (0 < P <= 100): the upper bound of the
  /// bucket holding the ceil(P/100 * count)-th smallest sample, clamped
  /// to the exact max. 0 when empty.
  uint64_t percentile(double P) const;

  HistogramSnapshot snapshot() const;

private:
  std::array<uint64_t, NumBuckets> Buckets{};
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = UINT64_MAX;
  uint64_t Max = 0;
};

/// One snapshot of named metrics, rendered to either export format. Not
/// a live registry: producers own their state (atomics, shards) and pour
/// a consistent snapshot in here at export time, so the registry itself
/// needs no synchronization.
///
/// Labels are (key, value) pairs rendered as `name{k="v",...}` in
/// Prometheus and as a JSON object in the JSON document.
class MetricsRegistry {
public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  void counter(const std::string &Name, const std::string &Help,
               const Labels &L, uint64_t Value);
  void gauge(const std::string &Name, const std::string &Help,
             const Labels &L, double Value);
  /// Records a summary (count/sum/min/max + p50/p90/p99/p999) of \p H.
  /// \p Scale converts recorded units to exported units (e.g. 1e-6 for
  /// microsecond samples exported as seconds).
  void histogram(const std::string &Name, const std::string &Help,
                 const Labels &L, const LogHistogram &H, double Scale = 1.0);

  /// Prometheus text exposition (one # HELP/# TYPE block per metric name;
  /// histograms as summary-typed quantile series).
  std::string prometheusText() const;

  /// Versioned JSON document: {"schema":"cmarks-metrics-v1",
  /// "component":..., "counters":[...], "gauges":[...],
  /// "histograms":[...]}.
  std::string json(const std::string &Component) const;

private:
  struct Entry {
    enum class Kind { Counter, Gauge, Histogram } K;
    std::string Name;
    std::string Help;
    Labels L;
    double Value = 0;       ///< Counter/gauge payload.
    HistogramSnapshot Snap; ///< Histogram payload.
    double Scale = 1.0;
  };
  std::vector<Entry> Entries;
};

/// Appends \p S to \p Out as the inside of a JSON string literal: quote,
/// backslash, newline and tab get their short escapes, other control
/// characters `\u00XX`. Shared by the metrics and trace exporters.
void appendJsonEscaped(std::string &Out, std::string_view S);

/// Writes \p Body to the file at \p Path, replacing its contents. False
/// when the file cannot be opened or a byte does not reach it, including
/// a failure that only surfaces when the file is closed (a full disk).
/// Every export to a file (traces, profiles, metrics) goes through here.
bool writeFile(const std::string &Path, const std::string &Body);

} // namespace cmk

#endif // CMARKS_SUPPORT_METRICS_H
