//===- support/profiler.h - Safe-point sampling profiler -------*- C++ -*-===//
///
/// \file
/// A sampling profiler built exactly the way the paper says tooling should
/// be built (§2): stack attribution comes from continuation marks, not
/// from walking frames. A sampler thread periodically pokes the engine
/// (VM::pokeSample, a relaxed fetch_or on the word every safe-point site
/// already loads); at its next safe point the engine captures one sample —
/// the running procedure's name plus the `#%trace-key` mark chain the
/// prelude's with-stack-frame/profiled forms maintain — into a fixed ring.
///
/// The capture path is allocation-free and counter-free: it renders the
/// mark chain into an inline char buffer by walking the attachment list
/// (or the MarkStackMode side stack) directly, the same data
/// current-stack-snapshot reads, without calling the counting/caching
/// lookup entry points. Sampling therefore never perturbs VMStats, fuel,
/// or the safe-point poll schedule — the differential fuzzer's
/// determinism check and the CI safe-point-polls gate both hold with the
/// sampler on (see DESIGN.md §13 for the protocol).
///
/// Output is collapsed-stack format ("frame;frame;leaf count" lines),
/// directly consumable by flamegraph.pl and speedscope.
///
/// Threading: start()/stop() and captureSample() run on the engine's
/// thread (stop joins the sampler thread, which only ever touches the
/// VM's atomic signal word). Readers (toCollapsed, foldInto) must run on
/// the engine thread or after the engine is idle — the same discipline as
/// TraceBuffer.
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_SUPPORT_PROFILER_H
#define CMARKS_SUPPORT_PROFILER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cmk {

class VM;

/// One captured sample: a ';'-joined frame path, root first, leaf last.
struct ProfileSample {
  uint64_t TimeNs;
  char Stack[248]; ///< NUL-terminated; deep stacks are truncated at the
                   ///< root end so the leaf attribution survives.
};

static_assert(sizeof(ProfileSample) == 256, "keep the sample ring dense");

class SamplingProfiler {
public:
  static constexpr uint32_t DefaultHz = 97; ///< Prime: avoids phase-locking
                                            ///< with millisecond-periodic work.
  static constexpr uint32_t DefaultCapacity = 4096; ///< 1 MiB of samples.
  /// Frames kept per sample (innermost MaxDepth when deeper).
  static constexpr uint32_t MaxDepth = 32;

  ~SamplingProfiler() { stopThread(); }

  /// Starts sampling \p M at \p Hz. Clears previously captured samples.
  /// No-op when already running.
  void start(VM &M, uint32_t Hz = DefaultHz, uint32_t Capacity = 0);

  /// Stops and joins the sampler thread; captured samples stay readable.
  void stop() { stopThread(); }

  bool running() const { return Sampler.joinable(); }

  /// Called by the VM at a safe point after consuming the sample signal.
  /// Allocation-free; must not touch VMStats or fuel.
  void captureSample(VM &M);

  uint64_t sampleCount() const { return Head < Cap ? Head : Cap; }
  uint64_t total() const { return Head; }
  uint64_t dropped() const { return Head < Cap ? 0 : Head - Cap; }
  /// Pokes issued by the sampler thread; pokes that landed while the
  /// engine was idle (no run in progress) capture nothing.
  uint64_t pokes() const { return Pokes.load(std::memory_order_relaxed); }

  /// Folds the retained samples into \p Out: collapsed stack -> count.
  void foldInto(std::map<std::string, uint64_t> &Out) const;

  /// Collapsed-stack text ("stack count\n" per distinct stack, sorted by
  /// stack string for determinism).
  std::string toCollapsed() const;

  /// Renders a fold (possibly merged across engines) as collapsed text.
  static std::string collapsedText(const std::map<std::string, uint64_t> &F);

private:
  void stopThread();

  std::vector<ProfileSample> Samples;
  uint32_t Cap = 0;
  uint64_t Head = 0; ///< Monotonic count of samples ever captured.

  std::thread Sampler;
  std::mutex SamplerMu;              ///< Guards StopRequested hand-off.
  std::condition_variable SamplerCv; ///< Wakes the thread for prompt stop.
  bool StopRequested = false;
  std::atomic<uint64_t> Pokes{0};
};

} // namespace cmk

#endif // CMARKS_SUPPORT_PROFILER_H
