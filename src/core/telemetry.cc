#include "telemetry.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "core/contracts.hh"

namespace wcnn {
namespace core {
namespace telemetry {

namespace detail {

std::atomic<bool> gEnabled{false};

namespace {

/** Per-thread buffers stop growing past this many events per thread. */
constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 22;

enum class MetricKind { Counter, Gauge, Histogram };

[[maybe_unused]] const char *
kindName(MetricKind kind)
{
    switch (kind) {
    case MetricKind::Counter:
        return "counter";
    case MetricKind::Gauge:
        return "gauge";
    case MetricKind::Histogram:
        return "histogram";
    }
    WCNN_UNREACHABLE("unknown metric kind");
}

/**
 * One thread's private slice of a metric: an array of relaxed-atomic
 * words only the owning thread writes. Counters use 1 word; histograms
 * use [0]=count, [1]=sum, [2 + bucket]=per-bucket counts.
 */
struct ShardData
{
    explicit ShardData(std::size_t words)
        : size(words),
          words(std::make_unique<std::atomic<std::uint64_t>[]>(words))
    {
    }

    std::size_t size;
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
};

} // namespace

/** Registry-side state of one named metric. */
struct MetricData
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::size_t id = 0;
    std::size_t wordsPerShard = 1;

    /** Guards `shards`; the hot path never takes it. */
    std::mutex shardMutex;
    std::vector<std::unique_ptr<ShardData>> shards;

    /** Gauges are cold and global rather than sharded. */
    std::atomic<std::uint64_t> gaugeBits{0};
    std::atomic<std::uint64_t> gaugeSets{0};
};

namespace {

/**
 * Per-thread recording state. States are pooled: when a thread exits,
 * its events move to the registry's retired list and the state (tid
 * and metric shards included) is parked for reuse by the next new
 * thread, so memory is bounded by the peak concurrent thread count.
 */
struct ThreadState
{
    int tid = 0;

    /** Guards `events` against concurrent collectEvents()/reset(). */
    std::mutex eventMutex;
    std::vector<Event> events;
    std::uint64_t dropped = 0;

    /** Shard pointer per metric id; owner thread only. */
    std::vector<ShardData *> shardByMetric;

    /** Current span nesting depth; owner thread only. */
    int depth = 0;
};

struct Registry
{
    /** Guards metrics/byName/thread lists/retiredEvents. */
    std::mutex mutex;

    std::vector<std::unique_ptr<MetricData>> metrics;
    std::unordered_map<std::string, MetricData *> byName;

    std::vector<std::unique_ptr<ThreadState>> states;
    std::vector<ThreadState *> liveStates;
    std::vector<ThreadState *> freeStates;

    /** Events of threads that have exited. */
    std::vector<Event> retiredEvents;
    std::uint64_t retiredDropped = 0;

    std::atomic<std::uint64_t> nextSeq{0};
    std::atomic<std::int64_t> epochNs{0};
};

/**
 * Leaky singleton: thread-exit destructors and static-destruction
 * order must never race a dying registry.
 */
Registry &
registry()
{
    static Registry *instance = []() {
        auto *r = new Registry;
        r->epochNs.store(nowNs(), std::memory_order_relaxed);
        return r;
    }();
    return *instance;
}

ThreadState *
attachThread()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    ThreadState *state = nullptr;
    if (!r.freeStates.empty()) {
        state = r.freeStates.back();
        r.freeStates.pop_back();
    } else {
        r.states.push_back(std::make_unique<ThreadState>());
        state = r.states.back().get();
        state->tid = static_cast<int>(r.states.size()) - 1;
    }
    r.liveStates.push_back(state);
    return state;
}

void
detachThread(ThreadState *state)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    {
        std::lock_guard<std::mutex> eventLock(state->eventMutex);
        r.retiredEvents.insert(r.retiredEvents.end(),
                               state->events.begin(),
                               state->events.end());
        r.retiredDropped += state->dropped;
        state->events.clear();
        state->dropped = 0;
    }
    state->depth = 0;
    r.liveStates.erase(std::find(r.liveStates.begin(),
                                 r.liveStates.end(), state));
    r.freeStates.push_back(state);
}

/** RAII owner of the calling thread's state. */
struct ThreadHandle
{
    ThreadState *state = nullptr;

    ~ThreadHandle()
    {
        if (state != nullptr)
            detachThread(state);
    }
};

thread_local ThreadHandle tlsHandle;

ThreadState &
threadState()
{
    if (tlsHandle.state == nullptr)
        tlsHandle.state = attachThread();
    return *tlsHandle.state;
}

/** The calling thread's shard of `metric`, created on first use. */
ShardData &
shardFor(MetricData &metric)
{
    ThreadState &state = threadState();
    if (state.shardByMetric.size() <= metric.id)
        state.shardByMetric.resize(metric.id + 1, nullptr);
    ShardData *&slot = state.shardByMetric[metric.id];
    if (slot == nullptr) {
        auto shard = std::make_unique<ShardData>(metric.wordsPerShard);
        slot = shard.get();
        std::lock_guard<std::mutex> lock(metric.shardMutex);
        metric.shards.push_back(std::move(shard));
    }
    return *slot;
}

MetricData *
findOrRegister(const char *name, MetricKind kind)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.byName.find(name);
    if (it != r.byName.end()) {
        WCNN_REQUIRE(it->second->kind == kind, "metric '", name,
                     "' already registered as ",
                     kindName(it->second->kind), ", requested again as ",
                     kindName(kind));
        return it->second;
    }
    auto metric = std::make_unique<MetricData>();
    metric->name = name;
    metric->kind = kind;
    metric->id = r.metrics.size();
    metric->wordsPerShard =
        kind == MetricKind::Histogram ? 2 + kHistogramBuckets : 1;
    MetricData *raw = metric.get();
    r.metrics.push_back(std::move(metric));
    r.byName.emplace(raw->name, raw);
    return raw;
}

void
pushEvent(const char *name, EventPhase phase, const double *args,
          std::size_t nargs, int depth, ThreadState &state)
{
    Registry &r = registry();
    Event e;
    e.name = name;
    e.phase = phase;
    e.tsNs = nowNs() - r.epochNs.load(std::memory_order_relaxed);
    e.seq = r.nextSeq.fetch_add(1, std::memory_order_relaxed);
    e.tid = state.tid;
    e.depth = depth;
    e.nargs = static_cast<int>(nargs);
    for (std::size_t i = 0; i < nargs; ++i)
        e.args[i] = args[i];
    std::lock_guard<std::mutex> lock(state.eventMutex);
    if (state.events.size() >= kMaxEventsPerThread) {
        ++state.dropped;
        return;
    }
    state.events.push_back(e);
}

/** JSON-safe number: non-finite doubles become null. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

const char *
phaseName(EventPhase phase)
{
    switch (phase) {
    case EventPhase::SpanBegin:
        return "span_begin";
    case EventPhase::SpanEnd:
        return "span_end";
    case EventPhase::Instant:
        return "instant";
    }
    WCNN_UNREACHABLE("unknown event phase");
}

} // namespace

void
emitInstant(const char *name, const double *args, std::size_t nargs)
{
    ThreadState &state = threadState();
    pushEvent(name, EventPhase::Instant, args, nargs, state.depth,
              state);
}

} // namespace detail

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
threadCpuNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void
setEnabled(bool on)
{
    detail::gEnabled.store(on, std::memory_order_relaxed);
}

void
reset()
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.retiredEvents.clear();
    r.retiredDropped = 0;
    for (const auto &state : r.states) {
        std::lock_guard<std::mutex> eventLock(state->eventMutex);
        state->events.clear();
        state->dropped = 0;
    }
    for (const auto &metric : r.metrics) {
        std::lock_guard<std::mutex> shardLock(metric->shardMutex);
        for (const auto &shard : metric->shards) {
            for (std::size_t w = 0; w < shard->size; ++w)
                shard->words[w].store(0, std::memory_order_relaxed);
        }
        metric->gaugeBits.store(0, std::memory_order_relaxed);
        metric->gaugeSets.store(0, std::memory_order_relaxed);
    }
    r.nextSeq.store(0, std::memory_order_relaxed);
    r.epochNs.store(nowNs(), std::memory_order_relaxed);
}

void
SpanScope::begin(const char *name, const double *args, std::size_t nargs)
{
    detail::ThreadState &state = detail::threadState();
    detail::pushEvent(name, EventPhase::SpanBegin, args, nargs,
                      state.depth, state);
    ++state.depth;
    spanName = name;
}

void
SpanScope::end()
{
    detail::ThreadState &state = detail::threadState();
    --state.depth;
    detail::pushEvent(spanName, EventPhase::SpanEnd, nullptr, 0,
                      state.depth, state);
    spanName = nullptr;
}

void
Counter::add(std::uint64_t delta)
{
    detail::ShardData &shard = detail::shardFor(*metric);
    shard.words[0].fetch_add(delta, std::memory_order_relaxed);
}

void
Gauge::set(double value)
{
    metric->gaugeBits.store(std::bit_cast<std::uint64_t>(value),
                            std::memory_order_relaxed);
    metric->gaugeSets.fetch_add(1, std::memory_order_relaxed);
}

std::size_t
histogramBucket(std::uint64_t value)
{
    return static_cast<std::size_t>(std::bit_width(value));
}

void
Histogram::record(std::uint64_t value)
{
    detail::ShardData &shard = detail::shardFor(*metric);
    shard.words[0].fetch_add(1, std::memory_order_relaxed);
    shard.words[1].fetch_add(value, std::memory_order_relaxed);
    shard.words[2 + histogramBucket(value)].fetch_add(
        1, std::memory_order_relaxed);
}

Counter
counter(const char *name)
{
    return Counter(
        detail::findOrRegister(name, detail::MetricKind::Counter));
}

Gauge
gauge(const char *name)
{
    return Gauge(detail::findOrRegister(name, detail::MetricKind::Gauge));
}

Histogram
histogram(const char *name)
{
    return Histogram(
        detail::findOrRegister(name, detail::MetricKind::Histogram));
}

double
HistogramValue::mean() const
{
    return count == 0 ? 0.0
                      : static_cast<double>(sum) /
                            static_cast<double>(count);
}

MetricsSnapshot
snapshotMetrics()
{
    detail::Registry &r = detail::registry();
    MetricsSnapshot out;
    std::lock_guard<std::mutex> lock(r.mutex);
    // Metric ids are registration-ordered; sort a view by name so the
    // snapshot is independent of registration order.
    std::vector<detail::MetricData *> sorted;
    sorted.reserve(r.metrics.size());
    for (const auto &metric : r.metrics)
        sorted.push_back(metric.get());
    std::sort(sorted.begin(), sorted.end(),
              [](const detail::MetricData *a,
                 const detail::MetricData *b) { return a->name < b->name; });

    for (detail::MetricData *metric : sorted) {
        switch (metric->kind) {
        case detail::MetricKind::Counter: {
            CounterValue v;
            v.name = metric->name;
            std::lock_guard<std::mutex> shardLock(metric->shardMutex);
            for (const auto &shard : metric->shards)
                v.value +=
                    shard->words[0].load(std::memory_order_relaxed);
            out.counters.push_back(std::move(v));
            break;
        }
        case detail::MetricKind::Gauge: {
            GaugeValue v;
            v.name = metric->name;
            v.value = std::bit_cast<double>(
                metric->gaugeBits.load(std::memory_order_relaxed));
            v.sets = metric->gaugeSets.load(std::memory_order_relaxed);
            out.gauges.push_back(std::move(v));
            break;
        }
        case detail::MetricKind::Histogram: {
            HistogramValue v;
            v.name = metric->name;
            std::lock_guard<std::mutex> shardLock(metric->shardMutex);
            for (const auto &shard : metric->shards) {
                v.count +=
                    shard->words[0].load(std::memory_order_relaxed);
                v.sum += shard->words[1].load(std::memory_order_relaxed);
                for (std::size_t b = 0; b < kHistogramBuckets; ++b)
                    v.buckets[b] += shard->words[2 + b].load(
                        std::memory_order_relaxed);
            }
            out.histograms.push_back(std::move(v));
            break;
        }
        }
    }
    return out;
}

std::vector<Event>
collectEvents()
{
    detail::Registry &r = detail::registry();
    std::vector<Event> all;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        all = r.retiredEvents;
        for (detail::ThreadState *state : r.liveStates) {
            std::lock_guard<std::mutex> eventLock(state->eventMutex);
            all.insert(all.end(), state->events.begin(),
                       state->events.end());
        }
    }
    std::sort(all.begin(), all.end(),
              [](const Event &a, const Event &b) {
                  return a.tsNs != b.tsNs ? a.tsNs < b.tsNs
                                          : a.seq < b.seq;
              });
    return all;
}

void
writeJsonl(std::ostream &os)
{
    const std::vector<Event> events = collectEvents();
    const MetricsSnapshot metrics = snapshotMetrics();

    std::uint64_t dropped = 0;
    {
        detail::Registry &r = detail::registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        dropped = r.retiredDropped;
        for (detail::ThreadState *state : r.liveStates) {
            std::lock_guard<std::mutex> eventLock(state->eventMutex);
            dropped += state->dropped;
        }
    }

    os << "{\"type\":\"meta\",\"version\":1,\"clock\":\"steady\","
          "\"unit\":\"ns\",\"events\":"
       << events.size() << ",\"dropped\":" << dropped << "}\n";

    for (const Event &e : events) {
        os << "{\"type\":\"" << detail::phaseName(e.phase)
           << "\",\"name\":\"" << detail::jsonEscape(e.name)
           << "\",\"ts_ns\":" << e.tsNs << ",\"seq\":" << e.seq
           << ",\"tid\":" << e.tid << ",\"depth\":" << e.depth
           << ",\"args\":[";
        for (int i = 0; i < e.nargs; ++i) {
            if (i)
                os << ',';
            os << detail::jsonNumber(e.args[i]);
        }
        os << "]}\n";
    }

    for (const CounterValue &c : metrics.counters) {
        os << "{\"type\":\"counter\",\"name\":\""
           << detail::jsonEscape(c.name) << "\",\"value\":" << c.value
           << "}\n";
    }
    for (const GaugeValue &g : metrics.gauges) {
        os << "{\"type\":\"gauge\",\"name\":\""
           << detail::jsonEscape(g.name)
           << "\",\"value\":" << detail::jsonNumber(g.value)
           << ",\"sets\":" << g.sets << "}\n";
    }
    for (const HistogramValue &h : metrics.histograms) {
        os << "{\"type\":\"histogram\",\"name\":\""
           << detail::jsonEscape(h.name) << "\",\"count\":" << h.count
           << ",\"sum\":" << h.sum << ",\"buckets\":[";
        bool first = true;
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
            if (h.buckets[b] == 0)
                continue;
            if (!first)
                os << ',';
            first = false;
            os << '[' << b << ',' << h.buckets[b] << ']';
        }
        os << "]}\n";
    }
}

void
writeChromeTrace(std::ostream &os)
{
    const std::vector<Event> events = collectEvents();
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const Event &e : events) {
        const char *ph = e.phase == EventPhase::SpanBegin ? "B"
                         : e.phase == EventPhase::SpanEnd ? "E"
                                                          : "i";
        if (!first)
            os << ',';
        first = false;
        os << "\n{\"name\":\"" << detail::jsonEscape(e.name)
           << "\",\"cat\":\"wcnn\",\"ph\":\"" << ph << "\",\"ts\":"
           << detail::jsonNumber(static_cast<double>(e.tsNs) / 1000.0)
           << ",\"pid\":1,\"tid\":" << e.tid;
        if (e.phase == EventPhase::Instant)
            os << ",\"s\":\"t\"";
        if (e.nargs > 0) {
            os << ",\"args\":{";
            for (int i = 0; i < e.nargs; ++i) {
                if (i)
                    os << ',';
                os << "\"a" << i
                   << "\":" << detail::jsonNumber(e.args[i]);
            }
            os << '}';
        }
        os << '}';
    }
    os << "\n]}\n";
}

std::string
summaryTable()
{
    const std::vector<Event> events = collectEvents();
    const MetricsSnapshot metrics = snapshotMetrics();

    // Aggregate span durations by name: walk each thread's stream with
    // a stack; begin/end pairs match by (tid, depth).
    struct SpanAgg
    {
        std::uint64_t count = 0;
        std::int64_t totalNs = 0;
        std::int64_t minNs = 0;
        std::int64_t maxNs = 0;
    };
    std::unordered_map<std::string, SpanAgg> spans;
    std::vector<std::string> spanOrder;
    std::unordered_map<int, std::vector<const Event *>> stacks;
    for (const Event &e : events) {
        if (e.phase == EventPhase::SpanBegin) {
            stacks[e.tid].push_back(&e);
        } else if (e.phase == EventPhase::SpanEnd) {
            auto &stack = stacks[e.tid];
            if (stack.empty())
                continue;
            const Event *begin = stack.back();
            stack.pop_back();
            const std::int64_t duration = e.tsNs - begin->tsNs;
            auto it = spans.find(begin->name);
            if (it == spans.end()) {
                it = spans.emplace(begin->name, SpanAgg{}).first;
                spanOrder.push_back(begin->name);
            }
            SpanAgg &agg = it->second;
            if (agg.count == 0 || duration < agg.minNs)
                agg.minNs = duration;
            if (agg.count == 0 || duration > agg.maxNs)
                agg.maxNs = duration;
            ++agg.count;
            agg.totalNs += duration;
        }
    }
    std::sort(spanOrder.begin(), spanOrder.end());

    std::ostringstream os;
    // Every column after the first opens with a space, so a value
    // wider than its column still stands apart from its neighbours.
    const auto col = [&os](int width) -> std::ostream & {
        return os << ' ' << std::setw(width - 1);
    };
    os << "== telemetry summary ==\n";
    if (!spanOrder.empty()) {
        os << std::left << std::setw(28) << "span" << std::right;
        col(10) << "count";
        col(14) << "total ms";
        col(12) << "mean ms";
        col(12) << "min ms";
        col(12) << "max ms" << '\n';
        os << std::fixed << std::setprecision(3);
        for (const std::string &name : spanOrder) {
            const SpanAgg &agg = spans.at(name);
            os << std::left << std::setw(28) << name << std::right;
            col(10) << agg.count;
            col(14) << static_cast<double>(agg.totalNs) * 1e-6;
            col(12) << static_cast<double>(agg.totalNs) * 1e-6 /
                           static_cast<double>(agg.count);
            col(12) << static_cast<double>(agg.minNs) * 1e-6;
            col(12) << static_cast<double>(agg.maxNs) * 1e-6 << '\n';
        }
    }
    if (!metrics.counters.empty()) {
        os << std::left << std::setw(28) << "counter" << std::right;
        col(14) << "value" << '\n';
        for (const CounterValue &c : metrics.counters) {
            os << std::left << std::setw(28) << c.name << std::right;
            col(14) << c.value << '\n';
        }
    }
    if (!metrics.gauges.empty()) {
        os << std::left << std::setw(28) << "gauge" << std::right;
        col(14) << "value";
        col(10) << "sets" << '\n';
        for (const GaugeValue &g : metrics.gauges) {
            os << std::left << std::setw(28) << g.name << std::right;
            col(14) << std::setprecision(6) << g.value;
            col(10) << g.sets << '\n';
        }
    }
    if (!metrics.histograms.empty()) {
        os << std::left << std::setw(28) << "histogram" << std::right;
        col(12) << "count";
        col(16) << "mean";
        col(16) << "max bucket" << '\n';
        for (const HistogramValue &h : metrics.histograms) {
            std::size_t top = 0;
            for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
                if (h.buckets[b] != 0)
                    top = b;
            }
            os << std::left << std::setw(28) << h.name << std::right;
            col(12) << h.count;
            col(16) << std::setprecision(1) << h.mean();
            col(13) << (h.count == 0
                            ? 0.0
                            : std::exp2(static_cast<double>(top)))
                    << " <2^" << top << '\n';
        }
    }
    if (spanOrder.empty() && metrics.counters.empty() &&
        metrics.gauges.empty() && metrics.histograms.empty())
        os << "(no telemetry recorded)\n";
    return os.str();
}

double
timedSeconds(const char *name, const std::function<void()> &fn)
{
    WCNN_SPAN(name);
    const std::int64_t start = nowNs();
    fn();
    return static_cast<double>(nowNs() - start) * 1e-9;
}

Recorder::Recorder(std::string prefix, bool print_summary)
    : pathPrefix(std::move(prefix)), printSummary(print_summary)
{
    if (pathPrefix.empty() && !printSummary)
        return;
    reset();
    setEnabled(true);
    isActive = true;
}

Recorder
Recorder::fromArgs(int &argc, char **argv)
{
    std::string prefix;
    bool summary = false;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--telemetry" && i + 1 < argc) {
            prefix = argv[++i];
        } else if (arg.rfind("--telemetry=", 0) == 0) {
            prefix = arg.substr(12);
        } else if (arg == "--telemetry-summary") {
            summary = true;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return Recorder(std::move(prefix), summary);
}

Recorder::Recorder(Recorder &&other) noexcept
    : pathPrefix(std::move(other.pathPrefix)),
      printSummary(other.printSummary), isActive(other.isActive)
{
    other.isActive = false;
    other.printSummary = false;
}

Recorder::~Recorder()
{
    if (!isActive)
        return;
    setEnabled(false);
    if (!pathPrefix.empty()) {
        {
            std::ofstream jsonl(pathPrefix + ".jsonl");
            writeJsonl(jsonl);
        }
        {
            std::ofstream trace(pathPrefix + ".trace.json");
            writeChromeTrace(trace);
        }
        std::printf("[telemetry] wrote %s.jsonl and %s.trace.json\n",
                    pathPrefix.c_str(), pathPrefix.c_str());
    }
    if (printSummary)
        std::fputs(summaryTable().c_str(), stdout);
}

} // namespace telemetry
} // namespace core
} // namespace wcnn
