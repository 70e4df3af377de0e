#include "failpoint.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "digest.hh"
#include "error.hh"

namespace wcnn {
namespace core {
namespace failpoint {

namespace detail {

std::atomic<bool> gArmed{false};

} // namespace detail

namespace {

struct SiteState
{
    Trigger trigger;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
};

/*
 * The registry is a plain mutex-protected map: shouldFire is only
 * reached once the relaxed-atomic active() gate is open, i.e. inside
 * chaos runs, where its cost is irrelevant; disarmed builds pay one
 * atomic load per site.
 */
std::mutex gMutex;
std::map<std::string, SiteState> gSites;

/** SplitMix64 finalizer; same mixing as numeric::Rng::stream. */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Pure fire decision for probability mode: hash (seed, site, hit) to
 * a uniform double in [0, 1) and compare against p. Independent of
 * evaluation order and thread count for a fixed hit number.
 */
bool
probabilityFires(const Trigger &trigger, const std::string &site,
                 std::uint64_t hit)
{
    // The standard basis: a logged chaos seed replays its schedule.
    std::uint64_t word = mix64(
        mix64(trigger.seed ^ fnv1a64(site, kFnvStandardBasis)) + hit);
    double u = static_cast<double>(word >> 11) * 0x1.0p-53;
    return u < trigger.probability;
}

bool
decide(const std::string &site, SiteState &state)
{
    state.hits += 1;
    bool fire = false;
    switch (state.trigger.mode) {
    case Trigger::Mode::Off:
        break;
    case Trigger::Mode::Always:
        fire = true;
        break;
    case Trigger::Mode::Nth:
        fire = state.hits >= state.trigger.nth &&
               state.hits < state.trigger.nth + state.trigger.count;
        break;
    case Trigger::Mode::Probability:
        fire = probabilityFires(state.trigger, site, state.hits);
        break;
    }
    if (fire) {
        state.fires += 1;
    }
    return fire;
}

[[noreturn]] void
badSpec(const std::string &spec, const std::string &why)
{
    throw Error("failpoint", "bad spec \"" + spec + "\": " + why);
}

/** Parse the value part of one spec ("always", "nth:2:3", ...). */
Trigger
parseTrigger(const std::string &spec, const std::string &value)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        std::size_t colon = value.find(':', start);
        parts.push_back(value.substr(start, colon - start));
        if (colon == std::string::npos) {
            break;
        }
        start = colon + 1;
    }

    auto parseU64 = [&](const std::string &text) {
        std::size_t consumed = 0;
        std::uint64_t parsed = 0;
        try {
            parsed = std::stoull(text, &consumed);
        } catch (const std::exception &) {
            badSpec(spec, "expected an integer, got \"" + text + "\"");
        }
        if (consumed != text.size()) {
            badSpec(spec, "expected an integer, got \"" + text + "\"");
        }
        return parsed;
    };
    auto parseProb = [&](const std::string &text) {
        std::size_t consumed = 0;
        double parsed = 0.0;
        try {
            parsed = std::stod(text, &consumed);
        } catch (const std::exception &) {
            badSpec(spec, "expected a probability, got \"" + text + "\"");
        }
        if (consumed != text.size() || !(parsed >= 0.0 && parsed <= 1.0)) {
            badSpec(spec, "expected a probability in [0,1], got \"" + text +
                              "\"");
        }
        return parsed;
    };

    Trigger trigger;
    const std::string &mode = parts[0];
    if (mode == "off") {
        if (parts.size() != 1) {
            badSpec(spec, "\"off\" takes no arguments");
        }
        trigger.mode = Trigger::Mode::Off;
    } else if (mode == "always") {
        if (parts.size() != 1) {
            badSpec(spec, "\"always\" takes no arguments");
        }
        trigger.mode = Trigger::Mode::Always;
    } else if (mode == "nth") {
        if (parts.size() < 2 || parts.size() > 3) {
            badSpec(spec, "\"nth\" takes nth[:count]");
        }
        trigger.mode = Trigger::Mode::Nth;
        trigger.nth = parseU64(parts[1]);
        if (trigger.nth == 0) {
            badSpec(spec, "nth is 1-based; 0 never fires");
        }
        trigger.count = parts.size() == 3 ? parseU64(parts[2]) : 1;
        if (trigger.count == 0) {
            badSpec(spec, "count must be >= 1");
        }
    } else if (mode == "prob") {
        if (parts.size() < 2 || parts.size() > 3) {
            badSpec(spec, "\"prob\" takes p[:seed]");
        }
        trigger.mode = Trigger::Mode::Probability;
        trigger.probability = parseProb(parts[1]);
        trigger.seed = parts.size() == 3 ? parseU64(parts[2]) : 0;
    } else {
        badSpec(spec, "unknown mode \"" + mode +
                          "\" (expected off|always|nth|prob)");
    }
    return trigger;
}

std::string
trim(const std::string &text)
{
    std::size_t first = text.find_first_not_of(" \t");
    if (first == std::string::npos) {
        return "";
    }
    std::size_t last = text.find_last_not_of(" \t");
    return text.substr(first, last - first + 1);
}

} // namespace

bool
compiledIn()
{
#if defined(WCNN_NO_FAILPOINTS)
    return false;
#else
    return true;
#endif
}

void
arm(const std::string &site, const Trigger &trigger)
{
    std::lock_guard<std::mutex> lock(gMutex);
    if (trigger.mode == Trigger::Mode::Off) {
        gSites.erase(site);
    } else {
        SiteState state;
        state.trigger = trigger;
        gSites[site] = state;
    }
    detail::gArmed.store(!gSites.empty(), std::memory_order_relaxed);
}

void
disarm(const std::string &site)
{
    std::lock_guard<std::mutex> lock(gMutex);
    gSites.erase(site);
    detail::gArmed.store(!gSites.empty(), std::memory_order_relaxed);
}

void
reset()
{
    std::lock_guard<std::mutex> lock(gMutex);
    gSites.clear();
    detail::gArmed.store(false, std::memory_order_relaxed);
}

void
armFromSpec(const std::string &specs)
{
    std::size_t start = 0;
    while (start <= specs.size()) {
        std::size_t sep = specs.find_first_of(";,", start);
        std::string spec = trim(specs.substr(
            start, sep == std::string::npos ? std::string::npos : sep - start));
        start = sep == std::string::npos ? specs.size() + 1 : sep + 1;
        if (spec.empty()) {
            continue;
        }
        std::size_t eq = spec.find('=');
        if (eq == std::string::npos || eq == 0) {
            badSpec(spec, "expected site=trigger");
        }
        std::string site = trim(spec.substr(0, eq));
        std::string value = trim(spec.substr(eq + 1));
        if (site.empty() || value.empty()) {
            badSpec(spec, "expected site=trigger");
        }
        arm(site, parseTrigger(spec, value));
    }
}

bool
armFromEnv()
{
    const char *specs = std::getenv("WCNN_FAILPOINTS");
    if (specs == nullptr || *specs == '\0') {
        return false;
    }
    armFromSpec(specs);
    return active();
}

bool
installFromArgs(int &argc, char **argv)
{
    const std::string flag = "--failpoints";
    std::string specs;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == flag && i + 1 < argc) {
            specs = argv[++i];
        } else if (arg.rfind(flag + "=", 0) == 0) {
            specs = arg.substr(flag.size() + 1);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    if (!specs.empty()) {
        armFromSpec(specs);
    }
    armFromEnv();
    return active();
}

std::uint64_t
hits(const std::string &site)
{
    std::lock_guard<std::mutex> lock(gMutex);
    auto it = gSites.find(site);
    return it == gSites.end() ? 0 : it->second.hits;
}

std::uint64_t
fires(const std::string &site)
{
    std::lock_guard<std::mutex> lock(gMutex);
    auto it = gSites.find(site);
    return it == gSites.end() ? 0 : it->second.fires;
}

std::vector<SiteReport>
report()
{
    std::lock_guard<std::mutex> lock(gMutex);
    std::vector<SiteReport> out;
    out.reserve(gSites.size());
    for (const auto &entry : gSites) {
        SiteReport row;
        row.site = entry.first;
        row.trigger = entry.second.trigger;
        row.hits = entry.second.hits;
        row.fires = entry.second.fires;
        out.push_back(row);
    }
    return out;
}

bool
shouldFire(const char *site)
{
    std::lock_guard<std::mutex> lock(gMutex);
    auto it = gSites.find(site);
    if (it == gSites.end()) {
        return false;
    }
    return decide(it->first, it->second);
}

double
backoffSeconds(std::size_t attempt, double baseSeconds)
{
    if (baseSeconds <= 0.0) {
        return 0.0;
    }
    double delay = baseSeconds *
                   static_cast<double>(1ULL << std::min<std::size_t>(attempt, 6));
    return std::min(delay, 0.1);
}

void
backoffWait(std::size_t attempt, double baseSeconds)
{
    double delay = backoffSeconds(attempt, baseSeconds);
    if (delay <= 0.0) {
        return;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(delay)); // no clock read; R5-safe
}

} // namespace failpoint
} // namespace core
} // namespace wcnn
