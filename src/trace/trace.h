// Pipeline observability: structured tracing, typed counters and histograms.
//
// A zero-dependency, process-global instrumentation layer. Three kinds of
// telemetry, all named and documented in the registry (src/trace/registry.*,
// docs/telemetry.md):
//
//   * spans      — hierarchical timed regions (pipeline stage -> induction
//                  round -> proof job), emitted as Chrome `chrome://tracing`
//                  / Perfetto-compatible JSON ("X" complete events);
//   * counters   — monotonic uint64 totals (SAT conflicts, CEX replays,
//                  job retries, ...), summed across all threads;
//   * histograms — power-of-two-bucketed value distributions (learned-clause
//                  sizes, queue depths, ...).
//
// Compiled in, default off. The disabled cost is one relaxed atomic load per
// call site (spans additionally skip their clock reads), and the disabled
// path performs no allocation — test_trace checks this with a counting
// operator new. Instrumented hot loops (the SAT solver's conflict loop) do
// not call into this layer per event; they accumulate locally and flush one
// delta per solve() call, so enabled-mode overhead stays below the noise
// floor of bench_micro (see docs/telemetry.md "Overhead").
//
// Determinism contract: counters and histograms marked `deterministic` in
// the registry are bit-identical for any worker-thread count and any
// checkpoint/resume-free schedule (sums of per-job deltas, and jobs are pure
// functions of their inputs — see DESIGN.md §5.7). Span *sets* (name + args,
// ignoring timestamps and thread ids) are deterministic too; timestamps,
// durations, and the job->thread assignment are not. `normalized_events()`
// applies exactly this erasure so two runs can be diffed.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pdat::trace {

// --- metric identities -------------------------------------------------------
// Enum-indexed so the hot path never hashes a string. Names, units, and
// stability guarantees live in registry.cpp and docs/telemetry.md; a unit
// test cross-checks that every enumerator is documented.

enum class Counter : unsigned {
  // SAT solver (flushed once per Solver::solve call).
  SatSolveCalls = 0,
  SatSolveSat,
  SatSolveUnsat,
  SatSolveUnknown,
  SatConflicts,
  SatDecisions,
  SatPropagations,
  SatRestarts,
  SatLearnedClauses,
  SatLearnedLiterals,
  SatDbReductions,
  // Bounded model checking.
  BmcChecks,
  BmcFramesSolved,
  BmcViolations,
  // Candidate generation / simulation filter.
  SimFilterCycles,
  SimFilterDropped,
  SimFilterAssumeViolationCycles,
  EquivClasses,
  EquivCandidates,
  // Temporal induction.
  InductionRounds,
  InductionSatCalls,
  InductionCexReplays,
  InductionCexReplayCycles,
  InductionCexKills,
  InductionBudgetKills,
  InductionSolveMicrosGlobal,
  InductionSolveMicrosLocalized,
  InductionPartitionMicros,
  InductionEncodeMicros,
  InductionReplayMicros,
  // Cone-of-influence localization.
  CoiPartitions,
  CoiCones,
  CoiConeCandidates,
  // Content-addressed proof cache.
  ProofCacheHits,
  ProofCacheMisses,
  ProofCacheStores,
  // Supervised proof runtime.
  RuntimeJobsDispatched,
  RuntimeJobAttempts,
  RuntimeJobRetries,
  RuntimeJobDrops,
  RuntimeJobCrashes,
  RuntimeJobAborts,
  RuntimeWorkerBusyMicros,
  // Process-isolated workers (--isolation=process).
  RuntimeProcForks,
  RuntimeProcResults,
  RuntimeProcDeaths,
  RuntimeProcDeadlineKills,
  RuntimeProcRestarts,
  // Certified solving (--certify).
  CertCertificatesEmitted,
  CertCertificatesChecked,
  CertCertificatesFailed,
  CertProofBytes,
  // Differential fuzzing (--fuzz).
  FuzzPrograms,
  FuzzInstructions,
  FuzzInconclusive,
  FuzzDivergences,
  FuzzShrinkRuns,
  FuzzCorpusRetained,
  FuzzCoveredPairs,
  FuzzSimPasses,
  FuzzPassCycles,
  FuzzLaneCycles,
  kCount,
};
inline constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);

enum class Histogram : unsigned {
  SatLearnedClauseSize = 0,
  SatLearnedClauseLbd,
  SatConflictsPerCall,
  RuntimeQueueDepth,
  RuntimeAttemptsPerJob,
  InductionRoundKills,
  CoiConeCells,
  CertCheckMicros,
  CertProofLines,
  FuzzShrunkLen,
  kCount,
};
inline constexpr std::size_t kNumHistograms = static_cast<std::size_t>(Histogram::kCount);

/// Buckets are powers of two: bucket 0 counts value 0, bucket i counts
/// values in [2^(i-1), 2^i) for i < kHistogramBuckets-1, and the last
/// bucket absorbs everything larger.
inline constexpr std::size_t kHistogramBuckets = 16;

struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
};

// --- enablement --------------------------------------------------------------

/// True when counters/histograms are being recorded (metrics or tracing on).
bool collecting();
/// True when span events are being recorded.
bool tracing();

/// Resets all counters, histograms, per-round records, and buffered span
/// events, then enables collection. `events` additionally enables span
/// recording. Process-global: concurrent run_pdat calls share one tracer.
void begin_run(bool events);
/// Disables all collection (recorded data stays readable until the next
/// begin_run).
void end_run();

// --- counters / histograms ---------------------------------------------------

void add(Counter c, std::uint64_t n);
void observe(Histogram h, std::uint64_t value);

/// Folds a histogram *delta* recorded elsewhere into this process's
/// histogram — process-isolated proof workers (runtime/procworker.h) ship
/// their child-side telemetry back in the result payload because a forked
/// child's counter updates die with its copy-on-write memory. Buckets,
/// count, and sum accumulate; max folds via max(). No-op while collection
/// is off.
void merge(Histogram h, const HistogramSnapshot& delta);

std::uint64_t counter_value(Counter c);
HistogramSnapshot histogram_snapshot(Histogram h);

/// Which power-of-two bucket `value` falls into (exposed for tests).
std::size_t histogram_bucket(std::uint64_t value);

// --- per-round proof records -------------------------------------------------
// Appended by the induction engine at each round barrier (main thread, in
// round order), so metrics.json can show where candidates died without
// parsing the trace.

struct RoundRecord {
  int round = 0;  // -1 = base case
  std::uint64_t alive_before = 0;
  std::uint64_t cex_kills = 0;
  std::uint64_t budget_kills = 0;
  std::uint64_t sat_calls = 0;
};

void record_round(const RoundRecord& r);
std::vector<RoundRecord> round_records();

// --- spans -------------------------------------------------------------------

struct SpanArg {
  const char* key;
  std::int64_t value;
};

/// RAII timed region. Constructing with tracing() off is a no-op: no clock
/// read, no allocation. `name` and arg keys must be string literals (they
/// are stored by pointer). At most kMaxArgs args are kept; extras are
/// dropped silently.
class Span {
 public:
  static constexpr std::size_t kMaxArgs = 6;

  explicit Span(const char* name);
  Span(const char* name, SpanArg a);
  Span(const char* name, SpanArg a, SpanArg b);
  Span(const char* name, SpanArg a, SpanArg b, SpanArg c);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a result arg after construction (e.g. kill counts known only
  /// at scope exit). No-op when the span is inactive.
  void arg(const char* key, std::int64_t value);

 private:
  const char* name_ = nullptr;
  std::uint64_t start_us_ = 0;
  std::array<SpanArg, kMaxArgs> args_{};
  std::size_t num_args_ = 0;
  bool active_ = false;
};

/// One recorded span, as written to the Chrome trace.
struct Event {
  const char* name;
  std::uint32_t tid;        // stable per-thread id, 0 = first tracing thread
  std::uint64_t ts_us;      // since begin_run
  std::uint64_t dur_us;
  std::array<SpanArg, Span::kMaxArgs> args;
  std::size_t num_args;
};

/// All buffered events (every thread's buffer, concatenated in thread-
/// registration order). Call only while no traced work is running.
std::vector<Event> events();

/// The determinism-contract view of the trace: timestamps, durations, and
/// thread ids erased, remaining (name, args) tuples sorted. Two runs of the
/// same proof problem yield identical normalized event lists for any thread
/// count. `tools/validate_telemetry.py --normalize` applies the same erasure
/// to a written trace file.
std::vector<std::string> normalized_events();

/// Writes the Chrome trace ({"traceEvents": [...]}; load in chrome://tracing
/// or https://ui.perfetto.dev). Events are sorted by (ts, tid) for a stable
/// timeline.
void write_chrome_trace(std::ostream& os);

}  // namespace pdat::trace
