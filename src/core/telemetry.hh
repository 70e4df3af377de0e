/**
 * @file
 * Observability layer: metrics, trace spans, and exporters.
 *
 * The pipeline is a stack of opaque stages — back-prop to a loose stop
 * threshold, k-fold cross validation, surrogate surface sweeps, a
 * fork-join underneath — and "why did this trial stall / converge /
 * get pruned" must be answerable without printf archaeology. This
 * module provides the three usual observability primitives:
 *
 *  - A **metrics registry**: Counter (monotone u64), Gauge (last-set
 *    double), Histogram (u64 samples in fixed log2 buckets). The hot
 *    path is lock-free: every thread owns a private shard per metric
 *    (relaxed atomics nobody else writes), and shards are merged on
 *    snapshot. Registration and shard acquisition take a mutex but
 *    happen once per (metric, thread).
 *  - **Scoped trace spans** (WCNN_SPAN) and instant events
 *    (WCNN_EVENT): a structured event stream with monotonic
 *    timestamps, per-thread begin/end nesting, and up to
 *    kMaxEventArgs numeric arguments per event. Events land in
 *    per-thread buffers (one uncontended mutex each) and are merged
 *    into a (timestamp, sequence)-sorted stream on collection.
 *  - **Exporters**: JSONL event log (writeJsonl), Chrome trace_event
 *    JSON loadable in about://tracing (writeChromeTrace), and a human
 *    summary table (summaryTable). Recorder bundles them behind the
 *    benches' `--telemetry <path>` / `--telemetry-summary` flags.
 *
 * Recording is OFF by default: the macros cost one relaxed atomic load
 * until setEnabled(true). Under -DWCNN_NO_TELEMETRY the macros compile
 * to an unevaluated no-op (the argument expressions are type-checked
 * inside sizeof, never executed), mirroring WCNN_NO_CONTRACTS. The
 * function API below is NOT conditioned on the switch — it must stay
 * ODR-identical across mixed translation units — so exporters and
 * direct metric handles keep working even in a no-telemetry build;
 * only macro-instrumented call sites vanish.
 *
 * Determinism contract: telemetry never draws randomness, never
 * branches the computation, and instrumented code must only *read*
 * state when WCNN_TELEMETRY_ENABLED() — so telemetry on/off/compiled
 * out yields bit-identical model weights, CV scores, and surfaces
 * (pinned by tests/telemetry_overhead_test.cc and the golden suite
 * under the no-contracts preset).
 *
 * Timing policy (lint rule R5): this header is the only sanctioned
 * clock in the tree. Raw std::chrono::*_clock::now() calls outside
 * src/core/telemetry are banned; time a stage with WCNN_SPAN, or with
 * nowNs()/timedSeconds() when a number is needed in-process.
 *
 * Event names must be string literals (or otherwise outlive the
 * session): events store the pointer, not a copy.
 */

#ifndef WCNN_CORE_TELEMETRY_HH
#define WCNN_CORE_TELEMETRY_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace wcnn {
namespace core {
namespace telemetry {

/** Maximum numeric arguments carried by one event. */
constexpr std::size_t kMaxEventArgs = 4;

/**
 * Histogram bucket count. Bucket 0 holds the value 0; bucket b >= 1
 * holds values in [2^(b-1), 2^b), so bucket 64 tops out the u64 range.
 */
constexpr std::size_t kHistogramBuckets = 65;

/**
 * Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
 * The only sanctioned raw clock in the repository (lint rule R5).
 */
std::int64_t nowNs();

/**
 * CPU time the calling thread has run, in nanoseconds
 * (CLOCK_THREAD_CPUTIME_ID). Unlike nowNs(), it does not advance while
 * the thread waits for a CPU, so a bench comparing two short loops on
 * a shared host is not charged for the other tenants' work.
 */
std::int64_t threadCpuNs();

namespace detail {

/** Macro gate; read through enabled(). */
extern std::atomic<bool> gEnabled;

struct MetricData;

/** Unevaluated-argument sink for the WCNN_NO_TELEMETRY macro bodies. */
template <class... Args> int argSink(const Args &...);

} // namespace detail

/** Whether recording is on. One relaxed atomic load. */
inline bool
enabled()
{
    return detail::gEnabled.load(std::memory_order_relaxed);
}

/**
 * Turn recording on/off. Enabling does not clear prior data; call
 * reset() to start a fresh session.
 */
void setEnabled(bool on);

/**
 * Clear all events and zero all metric values, and re-anchor the
 * session timestamp origin. Call only while no instrumented code is
 * running concurrently (between pipeline stages, not inside one).
 */
void reset();

/** Event kinds in the trace stream. */
enum class EventPhase { SpanBegin, SpanEnd, Instant };

/** One trace event. `name` points at the caller's string literal. */
struct Event
{
    /** Event name (static storage; not owned). */
    const char *name = nullptr;

    EventPhase phase = EventPhase::Instant;

    /** Monotonic time relative to the session origin. */
    std::int64_t tsNs = 0;

    /** Global emission sequence number (total order tie-break). */
    std::uint64_t seq = 0;

    /** Small stable id of the emitting thread. */
    int tid = 0;

    /**
     * Span nesting depth on the emitting thread: a SpanBegin at depth
     * d matches the next SpanEnd at depth d on the same tid; Instant
     * events record the depth they were emitted at.
     */
    int depth = 0;

    /** Number of valid entries in args. */
    int nargs = 0;

    /** Numeric arguments (schema is per event name; see DESIGN.md). */
    std::array<double, kMaxEventArgs> args{};
};

/**
 * RAII trace span: emits SpanBegin on construction and the matching
 * SpanEnd on destruction. Prefer the WCNN_SPAN macro, which also
 * honours WCNN_NO_TELEMETRY. A span constructed while recording is
 * disabled stays inert even if recording is enabled before it closes,
 * so begin/end events always balance.
 */
class SpanScope
{
  public:
    /**
     * @param name Span name; must be a string literal.
     * @param args Up to kMaxEventArgs numeric attributes.
     */
    template <class... Args>
    explicit SpanScope(const char *name, Args... args)
    {
        static_assert(sizeof...(Args) <= kMaxEventArgs,
                      "too many span arguments");
        if (enabled()) {
            const double values[kMaxEventArgs + 1] = {
                static_cast<double>(args)...};
            begin(name, values, sizeof...(Args));
        }
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    ~SpanScope()
    {
        if (spanName != nullptr)
            end();
    }

  private:
    void begin(const char *name, const double *args, std::size_t nargs);
    void end();

    /** Non-null exactly when a begin event was emitted. */
    const char *spanName = nullptr;
};

namespace detail {

void emitInstant(const char *name, const double *args, std::size_t nargs);

} // namespace detail

/**
 * Emit an instant event. Prefer the WCNN_EVENT macro.
 *
 * @param name Event name; must be a string literal.
 * @param args Up to kMaxEventArgs numeric attributes.
 */
template <class... Args>
void
emitInstant(const char *name, Args... args)
{
    static_assert(sizeof...(Args) <= kMaxEventArgs,
                  "too many event arguments");
    const double values[kMaxEventArgs + 1] = {static_cast<double>(args)...};
    detail::emitInstant(name, values, sizeof...(Args));
}

/**
 * Monotonically increasing counter handle. Copyable; all copies refer
 * to the same registered metric. add() always records — the runtime
 * enabled() gate lives in the macros, not the object API.
 */
class Counter
{
  public:
    /** Add delta to this thread's shard (lock-free). */
    void add(std::uint64_t delta = 1);

  private:
    friend Counter counter(const char *name);
    explicit Counter(detail::MetricData *m) : metric(m) {}
    detail::MetricData *metric;
};

/** Last-written-value gauge handle. */
class Gauge
{
  public:
    /** Record value; last write (any thread) wins. */
    void set(double value);

  private:
    friend Gauge gauge(const char *name);
    explicit Gauge(detail::MetricData *m) : metric(m) {}
    detail::MetricData *metric;
};

/** Fixed-log2-bucket histogram handle for u64 samples. */
class Histogram
{
  public:
    /** Record one sample into this thread's shard (lock-free). */
    void record(std::uint64_t value);

  private:
    friend Histogram histogram(const char *name);
    explicit Histogram(detail::MetricData *m) : metric(m) {}
    detail::MetricData *metric;
};

/**
 * Find or register the named metric. Names are global; registering the
 * same name with two different kinds is a contract violation. Handles
 * stay valid for the process lifetime.
 */
Counter counter(const char *name);
Gauge gauge(const char *name);
Histogram histogram(const char *name);

/** Snapshot of one counter. */
struct CounterValue
{
    std::string name;
    std::uint64_t value = 0;
};

/** Snapshot of one gauge. */
struct GaugeValue
{
    std::string name;
    double value = 0.0;
    /** Number of set() calls; 0 means value was never written. */
    std::uint64_t sets = 0;
};

/** Snapshot of one histogram. */
struct HistogramValue
{
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, kHistogramBuckets> buckets{};

    /** Mean sample, 0 when empty. */
    double mean() const;
};

/** Name-sorted, shard-merged snapshot of every registered metric. */
struct MetricsSnapshot
{
    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;
};

/**
 * Merge all per-thread shards into a deterministic snapshot: metrics
 * sorted by name, values summed over shards. Safe to call while other
 * threads record (their in-flight increments may or may not be seen).
 */
MetricsSnapshot snapshotMetrics();

/**
 * Merged trace stream: retired-thread events plus every live thread's
 * buffer, sorted by (tsNs, seq). Call between pipeline stages for a
 * complete, quiescent view.
 */
std::vector<Event> collectEvents();

/**
 * Log2 bucket index of a sample: 0 for 0, else bit_width(value), so
 * bucket b >= 1 covers [2^(b-1), 2^b). Exposed for tests.
 */
std::size_t histogramBucket(std::uint64_t value);

/**
 * Write the session as JSON Lines, one object per line: a meta line,
 * one line per event, then one line per metric. Schema in DESIGN.md
 * §5.3; doubles are printed with round-trip (%.17g) precision.
 */
void writeJsonl(std::ostream &os);

/**
 * Write the session in Chrome trace_event format (a JSON object with
 * a traceEvents array), loadable in about://tracing or Perfetto.
 */
void writeChromeTrace(std::ostream &os);

/** Human-readable aggregate table: spans, counters, gauges, histograms. */
std::string summaryTable();

/**
 * Wall-clock seconds spent in fn(), traced as a span named `name`
 * (which must be a string literal). Returns a valid duration whether
 * or not recording is enabled — this is the sanctioned replacement for
 * ad-hoc steady_clock stopwatches (lint rule R5).
 */
double timedSeconds(const char *name, const std::function<void()> &fn);

/**
 * RAII session recorder behind the CLI flags: on construction resets
 * the session and enables recording; on destruction disables it,
 * writes `<prefix>.jsonl` and `<prefix>.trace.json` (when a prefix was
 * given) and prints summaryTable() to stdout (when summary printing
 * was requested). Inactive when default-constructed.
 */
class Recorder
{
  public:
    Recorder() = default;

    /**
     * @param prefix        Output path prefix; empty writes no files.
     * @param print_summary Print the summary table on destruction.
     */
    Recorder(std::string prefix, bool print_summary);

    /**
     * Parse and strip `--telemetry <prefix>`, `--telemetry=<prefix>`
     * and `--telemetry-summary` from argv (so downstream flag parsers
     * never see them) and return the matching Recorder. With none of
     * the flags present the Recorder is inactive.
     */
    static Recorder fromArgs(int &argc, char **argv);

    Recorder(Recorder &&other) noexcept;
    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;
    Recorder &operator=(Recorder &&) = delete;

    ~Recorder();

    /** Whether this recorder enabled recording. */
    bool active() const { return isActive; }

  private:
    std::string pathPrefix;
    bool printSummary = false;
    bool isActive = false;
};

} // namespace telemetry
} // namespace core
} // namespace wcnn

/*
 * Instrumentation macros. WCNN_SPAN declares a block-scoped span;
 * the others are expression statements. All of them evaluate their
 * arguments only when recording is enabled, and compile to an
 * unevaluated no-op under WCNN_NO_TELEMETRY.
 *
 * WCNN_TELEMETRY_ENABLED() guards *auxiliary* work whose only purpose
 * is to feed an event (e.g. computing a gradient norm): false at
 * compile time when telemetry is compiled out, a relaxed atomic load
 * otherwise. Never branch the actual computation on it.
 */

#if defined(WCNN_NO_TELEMETRY)

#define WCNN_TELEMETRY_ENABLED() false

/* Compiled out: arguments are type-checked inside sizeof, never run. */
#define WCNN_SPAN(...)                                                         \
    (static_cast<void>(                                                        \
        sizeof(::wcnn::core::telemetry::detail::argSink(__VA_ARGS__))))
#define WCNN_EVENT(...)                                                        \
    (static_cast<void>(                                                        \
        sizeof(::wcnn::core::telemetry::detail::argSink(__VA_ARGS__))))
#define WCNN_COUNTER_ADD(name, delta)                                          \
    (static_cast<void>(                                                        \
        sizeof(::wcnn::core::telemetry::detail::argSink(name, delta))))
#define WCNN_GAUGE_SET(name, value)                                            \
    (static_cast<void>(                                                        \
        sizeof(::wcnn::core::telemetry::detail::argSink(name, value))))
#define WCNN_HISTOGRAM_RECORD(name, value)                                     \
    (static_cast<void>(                                                        \
        sizeof(::wcnn::core::telemetry::detail::argSink(name, value))))

#else

#define WCNN_TELEMETRY_ENABLED() (::wcnn::core::telemetry::enabled())

#define WCNN_TELEMETRY_CAT_(a, b) a##b
#define WCNN_TELEMETRY_CAT(a, b) WCNN_TELEMETRY_CAT_(a, b)

/** Scoped trace span: WCNN_SPAN("cv.fold", fold_index); */
#define WCNN_SPAN(...)                                                         \
    ::wcnn::core::telemetry::SpanScope WCNN_TELEMETRY_CAT(                     \
        wcnn_span_, __LINE__)(__VA_ARGS__)

/** Instant event: WCNN_EVENT("train.epoch", epoch, loss); */
#define WCNN_EVENT(...)                                                        \
    do {                                                                       \
        if (::wcnn::core::telemetry::enabled())                                \
            ::wcnn::core::telemetry::emitInstant(__VA_ARGS__);                 \
    } while (false)

/** Add to a named counter (name must be a string literal). */
#define WCNN_COUNTER_ADD(name, delta)                                          \
    do {                                                                       \
        if (::wcnn::core::telemetry::enabled()) {                              \
            static ::wcnn::core::telemetry::Counter                            \
                wcnn_telemetry_counter_ =                                      \
                    ::wcnn::core::telemetry::counter(name);                    \
            wcnn_telemetry_counter_.add(delta);                                \
        }                                                                      \
    } while (false)

/** Set a named gauge (name must be a string literal). */
#define WCNN_GAUGE_SET(name, value)                                            \
    do {                                                                       \
        if (::wcnn::core::telemetry::enabled()) {                              \
            static ::wcnn::core::telemetry::Gauge wcnn_telemetry_gauge_ =      \
                ::wcnn::core::telemetry::gauge(name);                          \
            wcnn_telemetry_gauge_.set(value);                                  \
        }                                                                      \
    } while (false)

/** Record into a named histogram (name must be a string literal). */
#define WCNN_HISTOGRAM_RECORD(name, value)                                     \
    do {                                                                       \
        if (::wcnn::core::telemetry::enabled()) {                              \
            static ::wcnn::core::telemetry::Histogram                          \
                wcnn_telemetry_histogram_ =                                    \
                    ::wcnn::core::telemetry::histogram(name);                  \
            wcnn_telemetry_histogram_.record(value);                           \
        }                                                                      \
    } while (false)

#endif // WCNN_NO_TELEMETRY

#endif // WCNN_CORE_TELEMETRY_HH
