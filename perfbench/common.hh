/**
 * @file
 * Shared pieces of the benchmark driver: flag parsing, a small JSON
 * object writer, order statistics, an FNV-1a digest, and the span log
 * the traced runs record around every call into a wcnn layer.
 *
 * Spans live in memory until writeJsonl() at the end of a run. A span's
 * self time is its duration minus the union of its children's
 * intervals, so a stage that only waits on its children reads near 0.
 */

#ifndef WCNN_PERFBENCH_COMMON_HH
#define WCNN_PERFBENCH_COMMON_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** `--key value` flags after the mode word. */
class Args
{
  public:
    Args(int argc, char **argv, int first);

    std::string str(const std::string &key,
                    const std::string &fallback = "") const;
    double num(const std::string &key, double fallback) const;

  private:
    std::map<std::string, std::string> values;
};

/** Flat JSON object writer; doubles keep all 17 significant digits. */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double value);
    JsonObject &count(const std::string &key, std::uint64_t value);
    JsonObject &str(const std::string &key, const std::string &value);
    JsonObject &flag(const std::string &key, bool value);
    /** Insert already-serialized JSON (an object or array). */
    JsonObject &raw(const std::string &key, const std::string &json);
    std::string text() const;

  private:
    void key(const std::string &k);
    std::string body;
};

/** Nearest-rank quantile of an ascending-sorted sample; 0 when empty. */
double quantile(const std::vector<double> &sorted, double q);

/** FNV-1a 64 over raw bytes, continuing from `hash`. */
std::uint64_t fnv1a(const void *data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ull);

/** Hex form of a 64-bit digest. */
std::string hex64(std::uint64_t value);

/** Seconds between two telemetry::nowNs() readings. */
double seconds(std::int64_t from_ns, std::int64_t to_ns);

/** Whether two vectors hold the same doubles, bit for bit. */
bool sameBits(const std::vector<double> &a, const std::vector<double> &b);

/** Seconds of CPU (user + system) this process has used. */
double processCpuSeconds();

/** One recorded span. Times are telemetry::nowNs() nanoseconds. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Id of the enclosing span, or -1 at the root. */
    std::int64_t parent = -1;
    /** Request id for per-request spans, or -1. */
    std::int64_t request = -1;
};

/**
 * In-memory span log. Thread-safe; ids are indices in record order.
 */
class SpanLog
{
  public:
    /** Record a finished span; returns its id. */
    std::int64_t add(Span span);

    /** Open a span now; close() stamps its end. */
    std::int64_t open(const std::string &name, std::int64_t parent = -1);
    void close(std::int64_t id);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Seconds of the named spans, summed. */
    double totalSeconds(const std::string &name) const;

    /**
     * Self time per span name in milliseconds: each span's duration
     * minus the union of its direct children's intervals.
     */
    std::map<std::string, double> selfMs() const;

    /** Write one JSON object per span, with its self time. */
    void writeJsonl(const std::string &path) const;

  private:
    mutable std::mutex mutex;
    std::vector<Span> log;
};

/**
 * Scoped span: opens on construction, closes on destruction.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name,
               std::int64_t parent = -1);
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    ~ScopedSpan();

    std::int64_t id() const { return spanId; }

  private:
    SpanLog *log;
    std::int64_t spanId = -1;
};

} // namespace perfbench

#endif // WCNN_PERFBENCH_COMMON_HH
