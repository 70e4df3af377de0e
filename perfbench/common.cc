#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/telemetry.hh"

namespace perfbench {

namespace telemetry = wcnn::core::telemetry;

Args::Args(int argc, char **argv, int first)
{
    for (int i = first; i < argc; ++i) {
        const std::string token = argv[i];
        if (token.rfind("--", 0) != 0)
            throw std::runtime_error("unexpected argument: " + token);
        if (i + 1 >= argc)
            throw std::runtime_error("flag without a value: " + token);
        values[token.substr(2)] = argv[++i];
    }
}

std::string
Args::str(const std::string &key, const std::string &fallback) const
{
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
}

double
Args::num(const std::string &key, double fallback) const
{
    const auto it = values.find(key);
    if (it == values.end())
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        throw std::runtime_error("--" + key + " needs a number");
    return v;
}

namespace {

/** JSON string literal with escapes. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

void
JsonObject::key(const std::string &k)
{
    if (!body.empty())
        body += ", ";
    body += jsonString(k) + ": ";
}

JsonObject &
JsonObject::num(const std::string &k, double value)
{
    key(k);
    if (!std::isfinite(value)) {
        body += "null";
        return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    body += buf;
    return *this;
}

JsonObject &
JsonObject::count(const std::string &k, std::uint64_t value)
{
    key(k);
    body += std::to_string(value);
    return *this;
}

JsonObject &
JsonObject::str(const std::string &k, const std::string &value)
{
    key(k);
    body += jsonString(value);
    return *this;
}

JsonObject &
JsonObject::flag(const std::string &k, bool value)
{
    key(k);
    body += value ? "true" : "false";
    return *this;
}

JsonObject &
JsonObject::raw(const std::string &k, const std::string &json)
{
    key(k);
    body += json;
    return *this;
}

std::string
JsonObject::text() const
{
    return "{" + body + "}";
}

double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
}

std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t hash)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
hex64(std::uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

double
seconds(std::int64_t from_ns, std::int64_t to_ns)
{
    return static_cast<double>(to_ns - from_ns) * 1e-9;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::int64_t
SpanLog::add(Span span)
{
    const std::lock_guard<std::mutex> lock(mutex);
    log.push_back(std::move(span));
    return static_cast<std::int64_t>(log.size()) - 1;
}

std::int64_t
SpanLog::open(const std::string &name, std::int64_t parent)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.startNs = telemetry::nowNs();
    return add(std::move(span));
}

void
SpanLog::close(std::int64_t id)
{
    const std::int64_t now = telemetry::nowNs();
    const std::lock_guard<std::mutex> lock(mutex);
    log.at(static_cast<std::size_t>(id)).endNs = now;
}

std::vector<Span>
SpanLog::spans() const
{
    const std::lock_guard<std::mutex> lock(mutex);
    return log;
}

double
SpanLog::totalSeconds(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex);
    double total = 0.0;
    for (const Span &s : log)
        if (s.name == name)
            total += seconds(s.startNs, s.endNs);
    return total;
}

namespace {

/** Per-span self time in ns: duration minus the union of children. */
std::vector<std::int64_t>
selfNs(const std::vector<Span> &log)
{
    std::vector<std::vector<std::size_t>> children(log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        const std::int64_t p = log[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < log.size())
            children[static_cast<std::size_t>(p)].push_back(i);
    }
    std::vector<std::int64_t> self(log.size(), 0);
    for (std::size_t i = 0; i < log.size(); ++i) {
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (const std::size_t c : children[i])
            iv.emplace_back(std::max(log[c].startNs, log[i].startNs),
                            std::min(log[c].endNs, log[i].endNs));
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cursor = log[i].startNs;
        for (const auto &[lo, hi] : iv) {
            const std::int64_t from = std::max(lo, cursor);
            if (hi > from) {
                covered += hi - from;
                cursor = hi;
            }
        }
        self[i] = (log[i].endNs - log[i].startNs) - covered;
    }
    return self;
}

} // namespace

std::map<std::string, double>
SpanLog::selfMs() const
{
    const std::vector<Span> copy = spans();
    const std::vector<std::int64_t> self = selfNs(copy);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < copy.size(); ++i)
        if (copy[i].request < 0)
            out[copy[i].name] += static_cast<double>(self[i]) * 1e-6;
    return out;
}

void
SpanLog::writeJsonl(const std::string &path) const
{
    const std::vector<Span> copy = spans();
    const std::vector<std::int64_t> self = selfNs(copy);
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write span log " + path);
    for (std::size_t i = 0; i < copy.size(); ++i) {
        const Span &s = copy[i];
        os << JsonObject()
                  .count("id", i)
                  .str("name", s.name)
                  .raw("parent", std::to_string(s.parent))
                  .raw("request", std::to_string(s.request))
                  .raw("start_ns", std::to_string(s.startNs))
                  .raw("end_ns", std::to_string(s.endNs))
                  .raw("self_ns", std::to_string(self[i]))
                  .text()
           << '\n';
    }
}

ScopedSpan::ScopedSpan(SpanLog *span_log, const std::string &name,
                       std::int64_t parent)
    : log(span_log)
{
    if (log != nullptr)
        spanId = log->open(name, parent);
}

ScopedSpan::~ScopedSpan()
{
    if (log != nullptr)
        log->close(spanId);
}

} // namespace perfbench
