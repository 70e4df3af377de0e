#include "controller.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "core/contracts.hh"
#include "core/digest.hh"
#include "core/failpoint.hh"
#include "core/telemetry.hh"
#include "lifecycle/error.hh"

namespace wcnn {
namespace lifecycle {

namespace {

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
    // The legacy basis, as the CSV digests: the committed decision
    // and bundle digests were taken from it (core/digest.hh).
    std::uint64_t hash = core::kFnvLegacyBasis;
    for (const Decision &decision : decisions)
        hash = core::fnv1a64(formatDecision(decision), hash);
    return core::hex64(hash);
}

std::string
bundleDigest(const serve::ModelBundle &bundle)
{
    std::ostringstream os;
    bundle.save(os);
    return core::hex64(core::fnv1a64(os.str(), core::kFnvLegacyBasis));
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
    std::lock_guard<std::mutex> lock(mutex);

    // The intake site: an armed fault drops this record before it
    // enters the stream (the live sink counts the drop; replay
    // surfaces the typed error to its caller).
    WCNN_FAILPOINT("lifecycle.observe",
                   throw LifecycleError("injected: lifecycle.observe"));

    const std::uint64_t seq = nextSeq++;
    ++counters.records;
    WCNN_COUNTER_ADD("lifecycle.records", 1);

    // Every record refreshes the retrain window, shadow traffic too,
    // so a future drift retrains on the freshest data either way. A
    // shadowed record is written there when the shadow ends
    // (abandonShadowLocked): the flat window already holds it.
    if (currentStage == Stage::Monitoring) {
        rememberLocked(seq, x.data(), x.size(), observed.data(),
                       observed.size());
        monitorLocked(seq, x, predicted, observed);
    } else {
        shadowLocked(seq, x, predicted, observed);
    }
}

void
LifecycleController::record(const ObservationRecord &rec)
{
    record(rec.x, rec.predicted, rec.observed);
}

void
LifecycleController::rememberLocked(std::uint64_t seq, const double *x,
                                    std::size_t xdim,
                                    const double *observed,
                                    std::size_t ydim)
{
    // A retrain reads x and observed only, so the ring keeps no
    // predictions.
    if (recent.size() < opts.retrainWindow) {
        recent.push_back(ObservationRecord{
            seq, numeric::Vector(x, x + xdim), {},
            numeric::Vector(observed, observed + ydim)});
        return;
    }
    // Full ring: overwrite the oldest slot in place; assign() reuses
    // the slot's storage, so a warm window allocates nothing.
    ObservationRecord &slot = recent[recentNext];
    slot.seq = seq;
    slot.x.assign(x, x + xdim);
    slot.observed.assign(observed, observed + ydim);
    if (++recentNext == recent.size())
        recentNext = 0;
}

std::vector<ObservationRecord>
LifecycleController::retrainWindowLocked() const
{
    // Until the ring first fills, recentNext stays 0 and the records
    // are already in order.
    std::vector<ObservationRecord> window;
    window.reserve(recent.size());
    for (std::size_t k = 0; k < recent.size(); ++k)
        window.push_back(recent[(recentNext + k) % recent.size()]);
    return window;
}

void
LifecycleController::monitorLocked(std::uint64_t seq,
                                   const numeric::Vector &x,
                                   const numeric::Vector &predicted,
                                   const numeric::Vector &observed)
{
    WCNN_FAILPOINT("lifecycle.detect",
                   throw LifecycleError("injected: lifecycle.detect"));
    if (!detector.feed(relativeError(predicted, observed)))
        return;

    // Drift declared: log it, then retrain on the window we have.
    ++counters.drifts;
    Decision drift;
    drift.seq = seq;
    drift.event = "drift";
    drift.version = host.version();
    drift.incumbentError = detector.lastWindowError();
    log.push_back(std::move(drift));

    const std::uint64_t retrain_k = retrainIndex++;
    ++counters.retrains;
    const serve::BundlePtr incumbent = host.active();
    const std::size_t xdim =
        incumbent != nullptr ? incumbent->inputDim() : x.size();
    const std::size_t ydim =
        incumbent != nullptr ? incumbent->outputDim() : observed.size();
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
        candidate = retrainCandidate(retrainWindowLocked(), xnames,
                                     ynames, opts.retrain, retrain_k);
    } catch (const RetrainFailure &error) {
        // A diverged retrain rejects the candidate, never the loop.
        Decision failed;
        failed.seq = seq;
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
    shadowRows.clear();
    shadowCount = 0;
    shadowFirstSeq = nextSeq;
    currentStage = Stage::Shadowing;
}

void
LifecycleController::shadowLocked(std::uint64_t seq,
                                  const numeric::Vector &x,
                                  const numeric::Vector &predicted,
                                  const numeric::Vector &observed)
{
    // The flat window holds one arity, the candidate's.
    if (x.size() != candidate->inputDim() ||
        observed.size() != candidate->outputDim()) {
        const std::string message =
            "shadow record has " + std::to_string(x.size()) +
            " inputs and " + std::to_string(observed.size()) +
            " outputs, candidate expects " +
            std::to_string(candidate->inputDim()) + " and " +
            std::to_string(candidate->outputDim());
        abandonShadowLocked();
        rememberLocked(seq, x.data(), x.size(), observed.data(),
                       observed.size());
        throw LifecycleError(message);
    }
    for (const double v : x)
        shadowRows.push_back(v);
    for (const double v : observed)
        shadowRows.push_back(v);
    shadowRows.push_back(relativeError(predicted, observed));
    if (++shadowCount < opts.shadowWindow)
        return;
    gateLocked(seq);
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
        // incumbent's errors were taken at intake from the records'
        // own predictions. Both sums run in record order, so a replay
        // of the same records lands on the same bits.
        const std::size_t n = shadowCount;
        const std::size_t xdim = candidate->inputDim();
        const std::size_t ydim = candidate->outputDim();
        double incumbent_sum = 0.0;
        double candidate_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double *x = shadowRows.data() + i * (xdim + ydim + 1);
            const double *o = x + xdim;
            incumbent_sum += o[ydim];
            candidate_sum += relativeError(
                candidate->predict(numeric::Vector(x, x + xdim)),
                numeric::Vector(o, o + ydim));
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
    // Hand the shadowed records to the retrain ring, in record order.
    // Only the newest retrainWindow can survive there, so only those
    // are written; the ring ends as if each had been written at
    // intake.
    const std::size_t n = shadowCount;
    if (n > 0) {
        const std::size_t xdim = candidate->inputDim();
        const std::size_t ydim = candidate->outputDim();
        for (std::size_t i = n - std::min(n, opts.retrainWindow); i < n;
             ++i) {
            const double *x = shadowRows.data() + i * (xdim + ydim + 1);
            rememberLocked(shadowFirstSeq + i, x, xdim, x + xdim, ydim);
        }
    }
    candidate.reset();
    shadowRows.clear();
    shadowCount = 0;
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
