#include "controller.hh"

#include <cstdio>
#include <sstream>
#include <utility>

#include "core/contracts.hh"
#include "core/failpoint.hh"
#include "core/parallel.hh"
#include "core/telemetry.hh"
#include "lifecycle/error.hh"

namespace wcnn {
namespace lifecycle {

namespace {

/** Same FNV-1a 64 the CSV/scenario goldens use. */
std::uint64_t
fnv1a(std::uint64_t hash, const std::string &bytes)
{
    for (const char c : bytes) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::string
hexDigest(std::uint64_t hash)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Schema names for the candidate: the incumbent's, or synthesized. */
std::vector<std::string>
schemaNames(const std::vector<std::string> &from, char prefix,
            std::size_t n)
{
    if (from.size() == n)
        return from;
    std::vector<std::string> names;
    names.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::string name(1, prefix);
        name += std::to_string(i);
        names.push_back(std::move(name));
    }
    return names;
}

} // namespace

std::string
formatDecision(const Decision &decision)
{
    std::string out = std::to_string(decision.seq);
    out += ' ';
    out += decision.event;
    out += " v";
    out += std::to_string(decision.version);
    out += " inc=";
    out += formatDouble(decision.incumbentError);
    out += " cand=";
    out += formatDouble(decision.candidateError);
    if (!decision.detail.empty()) {
        out += ' ';
        out += decision.detail;
    }
    out += '\n';
    return out;
}

std::string
decisionDigest(const std::vector<Decision> &decisions)
{
    std::uint64_t hash = kFnvBasis;
    for (const Decision &decision : decisions)
        hash = fnv1a(hash, formatDecision(decision));
    return hexDigest(hash);
}

std::string
bundleDigest(const serve::ModelBundle &bundle)
{
    std::ostringstream os;
    bundle.save(os);
    return hexDigest(fnv1a(kFnvBasis, os.str()));
}

LifecycleController::LifecycleController(BundleHost &bundle_host,
                                         LifecycleOptions options)
    : host(bundle_host), opts(std::move(options)), detector(opts.drift)
{
    WCNN_REQUIRE(opts.retrainWindow >= 1,
                 "retrain window must be >= 1");
    WCNN_REQUIRE(opts.shadowWindow >= 1, "shadow window must be >= 1");
    WCNN_REQUIRE(opts.historyLimit >= 1, "history limit must be >= 1");
}

void
LifecycleController::record(const numeric::Vector &x,
                            const numeric::Vector &predicted,
                            const numeric::Vector &observed)
{
    ObservationRecord rec;
    rec.x = x;
    rec.predicted = predicted;
    rec.observed = observed;
    record(rec);
}

void
LifecycleController::record(const ObservationRecord &rec)
{
    std::lock_guard<std::mutex> lock(mutex);

    // The intake site: an armed fault drops this record before it
    // enters the stream (the live sink counts the drop; replay
    // surfaces the typed error to its caller).
    WCNN_FAILPOINT("lifecycle.observe",
                   throw LifecycleError("injected: lifecycle.observe"));

    ObservationRecord numbered = rec;
    numbered.seq = nextSeq++;
    ++counters.records;
    WCNN_COUNTER_ADD("lifecycle.records", 1);

    if (currentStage == Stage::Monitoring)
        monitorLocked(numbered);
    else
        shadowLocked(numbered);
}

void
LifecycleController::monitorLocked(const ObservationRecord &rec)
{
    recent.push_back(rec);
    while (recent.size() > opts.retrainWindow)
        recent.pop_front();

    WCNN_FAILPOINT("lifecycle.detect",
                   throw LifecycleError("injected: lifecycle.detect"));
    if (!detector.feed(relativeError(rec.predicted, rec.observed)))
        return;

    // Drift declared: log it, then retrain on the window we have.
    ++counters.drifts;
    Decision drift;
    drift.seq = rec.seq;
    drift.event = "drift";
    drift.version = host.version();
    drift.incumbentError = detector.lastWindowError();
    log.push_back(std::move(drift));

    const std::uint64_t retrain_k = retrainIndex++;
    ++counters.retrains;
    const serve::BundlePtr incumbent = host.active();
    const std::size_t xdim =
        incumbent != nullptr ? incumbent->inputDim() : rec.x.size();
    const std::size_t ydim = incumbent != nullptr
                                 ? incumbent->outputDim()
                                 : rec.observed.size();
    const std::vector<std::string> xnames = schemaNames(
        incumbent != nullptr ? incumbent->inputNames()
                             : std::vector<std::string>{},
        'x', xdim);
    const std::vector<std::string> ynames = schemaNames(
        incumbent != nullptr ? incumbent->outputNames()
                             : std::vector<std::string>{},
        'y', ydim);

    try {
        WCNN_FAILPOINT(
            "lifecycle.retrain",
            throw LifecycleError("injected: lifecycle.retrain"));
        candidate = retrainCandidate(
            std::vector<ObservationRecord>(recent.begin(), recent.end()),
            xnames, ynames, opts.retrain, retrain_k);
    } catch (const RetrainFailure &error) {
        // A diverged retrain rejects the candidate, never the loop.
        Decision failed;
        failed.seq = rec.seq;
        failed.event = "retrain-failed";
        failed.version = host.version();
        failed.detail = error.kind();
        log.push_back(std::move(failed));
        detector.reset();
        return;
    } catch (...) {
        // Injected faults (and anything else) surface to the caller;
        // the candidate never existed, monitoring continues cleanly.
        detector.reset();
        throw;
    }

    // Candidate trained: enter shadow evaluation on the *next*
    // shadowWindow records.
    WCNN_EVENT("lifecycle.shadow.start");
    detector.reset();
    shadowBuffer.clear();
    currentStage = Stage::Shadowing;
}

void
LifecycleController::shadowLocked(const ObservationRecord &rec)
{
    // Shadow traffic still refreshes the retrain window, so a future
    // drift retrains on the freshest data either way.
    recent.push_back(rec);
    while (recent.size() > opts.retrainWindow)
        recent.pop_front();

    shadowBuffer.push_back(rec);
    if (shadowBuffer.size() < opts.shadowWindow)
        return;
    gateLocked(rec.seq);
}

void
LifecycleController::gateLocked(std::uint64_t seq)
{
    WCNN_SPAN("lifecycle.shadow");
    try {
        WCNN_FAILPOINT(
            "lifecycle.shadow",
            throw LifecycleError("injected: lifecycle.shadow"));

        // The candidate predicts every shadowed configuration; the
        // incumbent's predictions were captured in the records
        // themselves. Rows are independent, each error lands in its
        // preallocated slot, and the reduction below runs in record
        // order — bit-identical at every thread count.
        const std::size_t n = shadowBuffer.size();
        std::vector<double> candidate_errors(n, 0.0);
        const serve::BundlePtr shadow = candidate;
        core::parallelFor(n, opts.threads, [&](std::size_t i) {
            candidate_errors[i] = relativeError(
                shadow->predict(shadowBuffer[i].x),
                shadowBuffer[i].observed);
        });

        double incumbent_sum = 0.0;
        double candidate_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            incumbent_sum += relativeError(shadowBuffer[i].predicted,
                                           shadowBuffer[i].observed);
            candidate_sum += candidate_errors[i];
        }
        const double incumbent_error =
            incumbent_sum / static_cast<double>(n);
        const double candidate_error =
            candidate_sum / static_cast<double>(n);

        Decision verdict;
        verdict.seq = seq;
        verdict.incumbentError = incumbent_error;
        verdict.candidateError = candidate_error;
        verdict.detail = candidate->tag();

        if (candidate_error < incumbent_error) {
            // The gate opens: preserve the incumbent for rollback,
            // then swap. host.deploy is the same atomic path a manual
            // deploy takes (registry swap, cache invalidated), so an
            // in-flight request sees either the old bundle or the new
            // one, never a mixture.
            WCNN_FAILPOINT(
                "lifecycle.promote",
                throw LifecycleError("injected: lifecycle.promote"));
            const serve::BundlePtr displaced = host.active();
            verdict.version = host.deploy(candidate);
            if (displaced != nullptr) {
                history.push_back(displaced);
                while (history.size() > opts.historyLimit)
                    history.pop_front();
            }
            verdict.event = "promote";
            ++counters.promotions;
            WCNN_EVENT("lifecycle.promote");
            WCNN_COUNTER_ADD("lifecycle.promotions", 1);
        } else {
            verdict.event = "reject";
            verdict.version = host.version();
            ++counters.rejections;
            WCNN_EVENT("lifecycle.reject");
            WCNN_COUNTER_ADD("lifecycle.rejections", 1);
        }
        log.push_back(std::move(verdict));
    } catch (...) {
        // A fault mid-shadow or mid-promotion discards the candidate
        // outright: the incumbent keeps serving, the host was either
        // fully swapped or not touched, and the next record resumes
        // plain monitoring.
        abandonShadowLocked();
        throw;
    }
    abandonShadowLocked();
}

void
LifecycleController::abandonShadowLocked()
{
    candidate.reset();
    shadowBuffer.clear();
    detector.reset();
    currentStage = Stage::Monitoring;
}

bool
LifecycleController::rollback()
{
    std::lock_guard<std::mutex> lock(mutex);
    if (history.empty())
        return false;
    serve::BundlePtr restored = history.back();
    history.pop_back();

    Decision decision;
    decision.seq = nextSeq;
    decision.event = "rollback";
    decision.detail = restored->tag();
    decision.version = host.deploy(std::move(restored));
    log.push_back(std::move(decision));
    ++counters.rollbacks;
    WCNN_EVENT("lifecycle.rollback");
    WCNN_COUNTER_ADD("lifecycle.rollbacks", 1);

    // A rollback invalidates any in-flight shadow verdict: the
    // incumbent it would compare against is gone.
    abandonShadowLocked();
    return true;
}

Stage
LifecycleController::stage() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return currentStage;
}

std::vector<Decision>
LifecycleController::decisions() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return log;
}

std::string
LifecycleController::digest() const
{
    return decisionDigest(decisions());
}

LifecycleStats
LifecycleController::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

std::size_t
LifecycleController::historyDepth() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return history.size();
}

} // namespace lifecycle
} // namespace wcnn
