/**
 * @file
 * Contract suite for src/core/telemetry: metrics registry exactness,
 * span nesting well-formedness, snapshot-merge determinism, the
 * enabled() gate, and exporter schema basics. Thread-safety contracts
 * live in telemetry_threaded_test.cc; the WCNN_NO_TELEMETRY compile-out
 * proof lives in telemetry_notelemetry_test.cc.
 *
 * The registry is process-global, so every test starts from
 * setEnabled + reset and disables recording on exit.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/contracts.hh"
#include "core/telemetry.hh"

namespace {

namespace telemetry = wcnn::core::telemetry;
using telemetry::Event;
using telemetry::EventPhase;

/** Fresh enabled session per test; recording off afterwards. */
class TelemetryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        telemetry::setEnabled(false);
        telemetry::reset();
        telemetry::setEnabled(true);
    }

    void
    TearDown() override
    {
        telemetry::setEnabled(false);
        telemetry::reset();
    }
};

/**
 * Metric registrations last for the process lifetime (handles must
 * stay valid), so a suite sharing one process accumulates names:
 * assertions go through name lookup, never through vector sizes.
 */
template <class Value>
const Value *
findByName(const std::vector<Value> &values, const std::string &name)
{
    for (const Value &v : values) {
        if (v.name == name)
            return &v;
    }
    return nullptr;
}

/**
 * Walk one event stream and check span well-formedness: every SpanEnd
 * matches the innermost open SpanBegin of its thread by name and
 * depth, and no span stays open.
 */
void
expectBalancedSpans(const std::vector<Event> &events)
{
    std::map<int, std::vector<const Event *>> stacks;
    for (const Event &e : events) {
        if (e.phase == EventPhase::SpanBegin) {
            EXPECT_EQ(e.depth, static_cast<int>(stacks[e.tid].size()));
            stacks[e.tid].push_back(&e);
        } else if (e.phase == EventPhase::SpanEnd) {
            ASSERT_FALSE(stacks[e.tid].empty())
                << "SpanEnd '" << e.name << "' with no open span";
            const Event *begin = stacks[e.tid].back();
            EXPECT_STREQ(e.name, begin->name);
            EXPECT_EQ(e.depth, begin->depth);
            EXPECT_LE(begin->tsNs, e.tsNs);
            stacks[e.tid].pop_back();
        }
    }
    for (const auto &[tid, stack] : stacks)
        EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
}

TEST_F(TelemetryTest, CounterAccumulatesExactly)
{
    telemetry::Counter ctr = telemetry::counter("test.counter");
    ctr.add();
    ctr.add(41);
    const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
    const telemetry::CounterValue *v =
        findByName(snap.counters, "test.counter");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->value, 42u);
}

TEST_F(TelemetryTest, CounterHandlesAliasSameMetric)
{
    telemetry::Counter a = telemetry::counter("test.alias");
    telemetry::Counter b = telemetry::counter("test.alias");
    a.add(2);
    b.add(3);
    const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
    const telemetry::CounterValue *v =
        findByName(snap.counters, "test.alias");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->value, 5u);
}

TEST_F(TelemetryTest, GaugeKeepsLastValueAndCountsSets)
{
    telemetry::Gauge g = telemetry::gauge("test.gauge");
    const telemetry::MetricsSnapshot before = telemetry::snapshotMetrics();
    const telemetry::GaugeValue *v0 =
        findByName(before.gauges, "test.gauge");
    ASSERT_NE(v0, nullptr);
    EXPECT_EQ(v0->sets, 0u);

    g.set(1.5);
    g.set(-2.25);
    const telemetry::MetricsSnapshot after = telemetry::snapshotMetrics();
    const telemetry::GaugeValue *v1 =
        findByName(after.gauges, "test.gauge");
    ASSERT_NE(v1, nullptr);
    EXPECT_EQ(v1->value, -2.25);
    EXPECT_EQ(v1->sets, 2u);
}

TEST_F(TelemetryTest, HistogramBucketBoundaries)
{
    EXPECT_EQ(telemetry::histogramBucket(0), 0u);
    EXPECT_EQ(telemetry::histogramBucket(1), 1u);
    EXPECT_EQ(telemetry::histogramBucket(2), 2u);
    EXPECT_EQ(telemetry::histogramBucket(3), 2u);
    EXPECT_EQ(telemetry::histogramBucket(4), 3u);
    EXPECT_EQ(telemetry::histogramBucket(7), 3u);
    EXPECT_EQ(telemetry::histogramBucket(8), 4u);
    EXPECT_EQ(telemetry::histogramBucket((1ull << 20) - 1), 20u);
    EXPECT_EQ(telemetry::histogramBucket(1ull << 20), 21u);
    EXPECT_EQ(
        telemetry::histogramBucket(std::numeric_limits<std::uint64_t>::max()),
        64u);
    static_assert(telemetry::kHistogramBuckets == 65,
                  "bucket 64 must exist for the u64 maximum");
}

TEST_F(TelemetryTest, HistogramCountsSumsAndBuckets)
{
    telemetry::Histogram h = telemetry::histogram("test.hist");
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(1024);
    const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
    const telemetry::HistogramValue *found =
        findByName(snap.histograms, "test.hist");
    ASSERT_NE(found, nullptr);
    const telemetry::HistogramValue &v = *found;
    EXPECT_EQ(v.count, 5u);
    EXPECT_EQ(v.sum, 1030u);
    EXPECT_EQ(v.buckets[0], 1u); // 0
    EXPECT_EQ(v.buckets[1], 1u); // 1
    EXPECT_EQ(v.buckets[2], 2u); // 2, 3
    EXPECT_EQ(v.buckets[11], 1u); // 1024
    EXPECT_DOUBLE_EQ(v.mean(), 1030.0 / 5.0);
}

TEST_F(TelemetryTest, SnapshotIsNameSortedRegardlessOfRegistrationOrder)
{
    telemetry::counter("z.last").add(1);
    telemetry::counter("a.first").add(1);
    telemetry::counter("m.middle").add(1);
    const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
    ASSERT_GE(snap.counters.size(), 3u);
    EXPECT_TRUE(std::is_sorted(
        snap.counters.begin(), snap.counters.end(),
        [](const telemetry::CounterValue &a,
           const telemetry::CounterValue &b) { return a.name < b.name; }));
    EXPECT_NE(findByName(snap.counters, "a.first"), nullptr);
    EXPECT_NE(findByName(snap.counters, "m.middle"), nullptr);
    EXPECT_NE(findByName(snap.counters, "z.last"), nullptr);
}

#ifndef WCNN_NO_CONTRACTS
TEST_F(TelemetryTest, KindMismatchIsAContractViolation)
{
    telemetry::counter("test.kind_clash");
    EXPECT_THROW(telemetry::gauge("test.kind_clash"),
                 wcnn::ContractViolation);
    EXPECT_THROW(telemetry::histogram("test.kind_clash"),
                 wcnn::ContractViolation);
}
#endif

TEST_F(TelemetryTest, ResetZeroesValuesAndDropsEvents)
{
    telemetry::counter("test.reset.ctr").add(9);
    telemetry::histogram("test.reset.hist").record(5);
    telemetry::emitInstant("test.reset.event", 1.0);
    telemetry::reset();

    EXPECT_TRUE(telemetry::collectEvents().empty());
    const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
    for (const auto &c : snap.counters)
        EXPECT_EQ(c.value, 0u) << c.name;
    for (const auto &h : snap.histograms)
        EXPECT_EQ(h.count, 0u) << h.name;
    for (const auto &g : snap.gauges)
        EXPECT_EQ(g.sets, 0u) << g.name;
}

TEST_F(TelemetryTest, EventsCarryArgsAndArrive)
{
    telemetry::emitInstant("test.event", 1.0, 2.5, -3.0);
    const std::vector<Event> events = telemetry::collectEvents();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "test.event");
    EXPECT_EQ(events[0].phase, EventPhase::Instant);
    ASSERT_EQ(events[0].nargs, 3);
    EXPECT_EQ(events[0].args[0], 1.0);
    EXPECT_EQ(events[0].args[1], 2.5);
    EXPECT_EQ(events[0].args[2], -3.0);
}

TEST_F(TelemetryTest, SpansNestAndBalance)
{
    {
        telemetry::SpanScope outer("outer", 1.0);
        {
            telemetry::SpanScope inner("inner");
            telemetry::emitInstant("leaf", 7.0);
        }
        telemetry::SpanScope sibling("sibling");
    }
    const std::vector<Event> events = telemetry::collectEvents();
    ASSERT_EQ(events.size(), 7u);
    expectBalancedSpans(events);

    EXPECT_STREQ(events[0].name, "outer");
    EXPECT_EQ(events[0].phase, EventPhase::SpanBegin);
    EXPECT_EQ(events[0].depth, 0);
    EXPECT_STREQ(events[1].name, "inner");
    EXPECT_EQ(events[1].depth, 1);
    EXPECT_STREQ(events[2].name, "leaf");
    EXPECT_EQ(events[2].depth, 2);
    EXPECT_STREQ(events[3].name, "inner");
    EXPECT_EQ(events[3].phase, EventPhase::SpanEnd);
    EXPECT_STREQ(events[6].name, "outer");
    EXPECT_EQ(events[6].phase, EventPhase::SpanEnd);
}

TEST_F(TelemetryTest, CollectedStreamIsTimeAndSequenceOrdered)
{
    for (int i = 0; i < 100; ++i)
        telemetry::emitInstant("tick", static_cast<double>(i));
    const std::vector<Event> events = telemetry::collectEvents();
    ASSERT_EQ(events.size(), 100u);
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_LE(events[i - 1].tsNs, events[i].tsNs);
        EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
    EXPECT_GE(events.front().tsNs, 0);
}

TEST_F(TelemetryTest, NothingRecordsWhileDisabled)
{
    telemetry::setEnabled(false);
    {
        WCNN_SPAN("disabled.span");
        WCNN_EVENT("disabled.event", 1.0);
        WCNN_COUNTER_ADD("disabled.ctr", 1);
        WCNN_GAUGE_SET("disabled.gauge", 1.0);
        WCNN_HISTOGRAM_RECORD("disabled.hist", 1);
    }
    EXPECT_TRUE(telemetry::collectEvents().empty());
    // The macros never even registered their metrics.
    const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
    EXPECT_EQ(findByName(snap.counters, "disabled.ctr"), nullptr);
    EXPECT_EQ(findByName(snap.gauges, "disabled.gauge"), nullptr);
    EXPECT_EQ(findByName(snap.histograms, "disabled.hist"), nullptr);
}

TEST_F(TelemetryTest, SpanOpenedWhileDisabledStaysInert)
{
    telemetry::setEnabled(false);
    {
        telemetry::SpanScope span("flip.span");
        // Recording turns on mid-span: the close must not emit an
        // unmatched SpanEnd.
        telemetry::setEnabled(true);
        telemetry::emitInstant("flip.event");
    }
    const std::vector<Event> events = telemetry::collectEvents();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "flip.event");
    expectBalancedSpans(events);
}

#ifndef WCNN_NO_TELEMETRY
TEST_F(TelemetryTest, MacrosEvaluateArgsOnlyWhenEnabled)
{
    int evaluations = 0;
    auto probe = [&evaluations]() {
        ++evaluations;
        return 1.0;
    };
    telemetry::setEnabled(false);
    WCNN_EVENT("probe.event", probe());
    WCNN_GAUGE_SET("probe.gauge", probe());
    EXPECT_EQ(evaluations, 0);
    EXPECT_FALSE(WCNN_TELEMETRY_ENABLED());

    telemetry::setEnabled(true);
    WCNN_EVENT("probe.event", probe());
    EXPECT_EQ(evaluations, 1);
    EXPECT_TRUE(WCNN_TELEMETRY_ENABLED());
}

TEST_F(TelemetryTest, MacroSpanAndMetricsRecord)
{
    {
        WCNN_SPAN("macro.span", 3.0);
        WCNN_COUNTER_ADD("macro.ctr", 2);
        WCNN_HISTOGRAM_RECORD("macro.hist", 16);
        WCNN_GAUGE_SET("macro.gauge", 0.5);
    }
    const std::vector<Event> events = telemetry::collectEvents();
    ASSERT_EQ(events.size(), 2u);
    expectBalancedSpans(events);
    EXPECT_STREQ(events[0].name, "macro.span");
    ASSERT_EQ(events[0].nargs, 1);
    EXPECT_EQ(events[0].args[0], 3.0);

    const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
    const telemetry::CounterValue *ctr =
        findByName(snap.counters, "macro.ctr");
    ASSERT_NE(ctr, nullptr);
    EXPECT_EQ(ctr->value, 2u);
    const telemetry::HistogramValue *hist =
        findByName(snap.histograms, "macro.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->buckets[5], 1u); // 16 -> [16,32)
    const telemetry::GaugeValue *gauge =
        findByName(snap.gauges, "macro.gauge");
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->value, 0.5);
}
#endif // WCNN_NO_TELEMETRY

TEST_F(TelemetryTest, JsonlSchemaRoundTrips)
{
    {
        telemetry::SpanScope span("jsonl.span", 2.0);
        telemetry::emitInstant("jsonl.event", 0.1);
    }
    telemetry::counter("jsonl.ctr").add(3);
    std::ostringstream os;
    telemetry::writeJsonl(os);
    const std::string text = os.str();

    std::istringstream is(text);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(is, line))
        lines.push_back(line);
    // Meta first, events in order next; metric lines (one per metric
    // ever registered in this process) follow.
    ASSERT_GE(lines.size(), 5u);
    EXPECT_NE(lines[0].find("\"type\":\"meta\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"events\":3"), std::string::npos);
    EXPECT_NE(lines[1].find("\"type\":\"span_begin\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"name\":\"jsonl.span\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"args\":[2]"), std::string::npos);
    EXPECT_NE(lines[2].find("\"type\":\"instant\""), std::string::npos);
    EXPECT_NE(lines[3].find("\"type\":\"span_end\""), std::string::npos);
    bool sawCounter = false;
    for (const std::string &l : lines) {
        EXPECT_EQ(l.front(), '{');
        EXPECT_EQ(l.back(), '}');
        if (l.find("\"type\":\"counter\"") != std::string::npos &&
            l.find("\"name\":\"jsonl.ctr\"") != std::string::npos) {
            sawCounter = true;
            EXPECT_NE(l.find("\"value\":3"), std::string::npos);
        }
    }
    EXPECT_TRUE(sawCounter);
}

TEST_F(TelemetryTest, ChromeTraceIsWellFormed)
{
    {
        telemetry::SpanScope span("chrome.span");
        telemetry::emitInstant("chrome.event");
    }
    std::ostringstream os;
    telemetry::writeChromeTrace(os);
    const std::string text = os.str();
    EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(text.find("\"cat\":\"wcnn\""), std::string::npos);
}

TEST_F(TelemetryTest, SummaryTableAggregatesSpans)
{
    for (int i = 0; i < 3; ++i)
        telemetry::SpanScope span("summary.span");
    telemetry::counter("summary.ctr").add(7);
    // Top bucket 2^35: mean and max bucket both print 13 characters,
    // one more than the max-bucket column holds.
    telemetry::histogram("summary.hist").record(std::uint64_t{1} << 34);
    const std::string table = telemetry::summaryTable();
    EXPECT_NE(table.find("summary.span"), std::string::npos);
    EXPECT_NE(table.find("summary.ctr"), std::string::npos);
    EXPECT_NE(table.find("3"), std::string::npos);

    // The histogram row splits into name, count, mean, max bucket and
    // its exponent.
    const std::size_t at = table.find("summary.hist");
    ASSERT_NE(at, std::string::npos);
    std::istringstream row(table.substr(at, table.find('\n', at) - at));
    std::vector<std::string> fields;
    for (std::string field; row >> field;)
        fields.push_back(field);
    ASSERT_EQ(fields.size(), 5u) << table;
    EXPECT_EQ(fields[1], "1");
    EXPECT_EQ(fields[2], "17179869184.0");
    EXPECT_EQ(fields[3], "34359738368.0");
    EXPECT_EQ(fields[4], "<2^35");
}

TEST_F(TelemetryTest, TimedSecondsReturnsDurationAndEmitsSpan)
{
    const double seconds = telemetry::timedSeconds("timed.stage", []() {
        volatile int sink = 0;
        for (int i = 0; i < 1000; ++i)
            sink = sink + i;
    });
    EXPECT_GE(seconds, 0.0);
    const std::vector<Event> events = telemetry::collectEvents();
#ifndef WCNN_NO_TELEMETRY
    ASSERT_EQ(events.size(), 2u);
    EXPECT_STREQ(events[0].name, "timed.stage");
    expectBalancedSpans(events);
#else
    EXPECT_TRUE(events.empty());
#endif

    // Works (and still times) when recording is disabled.
    telemetry::setEnabled(false);
    EXPECT_GE(telemetry::timedSeconds("timed.stage", []() {}), 0.0);
}

TEST_F(TelemetryTest, RecorderFromArgsStripsFlags)
{
    const std::string prefix =
        ::testing::TempDir() + "/wcnn_telemetry_recorder";
    std::string a0 = "prog", a1 = "--telemetry", a2 = prefix,
                a3 = "--keep", a4 = "--telemetry-summary";
    char *argv[] = {a0.data(), a1.data(), a2.data(), a3.data(),
                    a4.data(), nullptr};
    int argc = 5;
    ::testing::internal::CaptureStdout();
    {
        telemetry::Recorder rec =
            telemetry::Recorder::fromArgs(argc, argv);
        EXPECT_TRUE(rec.active());
        ASSERT_EQ(argc, 2);
        EXPECT_STREQ(argv[0], "prog");
        EXPECT_STREQ(argv[1], "--keep");
        telemetry::counter("recorder.ctr").add(1);
    }
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("telemetry summary"), std::string::npos);
    EXPECT_NE(out.find("recorder.ctr"), std::string::npos);

    std::ifstream jsonl(prefix + ".jsonl");
    EXPECT_TRUE(jsonl.good());
    std::ifstream trace(prefix + ".trace.json");
    EXPECT_TRUE(trace.good());

    // Recording is off again after the recorder is destroyed.
    EXPECT_FALSE(telemetry::enabled());
}

TEST_F(TelemetryTest, RecorderWithoutFlagsIsInactive)
{
    std::string a0 = "prog", a1 = "--threads", a2 = "4";
    char *argv[] = {a0.data(), a1.data(), a2.data(), nullptr};
    int argc = 3;
    telemetry::setEnabled(false);
    telemetry::Recorder rec = telemetry::Recorder::fromArgs(argc, argv);
    EXPECT_FALSE(rec.active());
    EXPECT_EQ(argc, 3);
    EXPECT_FALSE(telemetry::enabled());
}

TEST_F(TelemetryTest, NowNsIsMonotone)
{
    const std::int64_t a = telemetry::nowNs();
    const std::int64_t b = telemetry::nowNs();
    EXPECT_LE(a, b);
}

} // namespace
