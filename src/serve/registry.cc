#include "registry.hh"

#include "core/contracts.hh"
#include "core/telemetry.hh"

namespace wcnn {
namespace serve {

BundlePtr
BundleRegistry::active() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return current;
}

std::uint64_t
BundleRegistry::swap(BundlePtr bundle)
{
    WCNN_REQUIRE(bundle != nullptr && bundle->fitted(),
                 "deploying an empty bundle");
    std::uint64_t installed = 0;
    {
        std::lock_guard<std::mutex> lock(mutex);
        current = std::move(bundle);
        installed = ++currentVersion;
    }
    WCNN_COUNTER_ADD("serve.registry.swaps", 1);
    WCNN_EVENT("serve.deploy", static_cast<double>(installed));
    return installed;
}

std::uint64_t
BundleRegistry::version() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return currentVersion;
}

BundleRegistry::Snapshot
BundleRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return Snapshot{current, currentVersion};
}

} // namespace serve
} // namespace wcnn
