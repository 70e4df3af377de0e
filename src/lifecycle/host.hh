/**
 * @file
 * Where promotions land: the bundle host seam.
 *
 * The LifecycleController promotes and rolls back bundles without
 * knowing whether it is steering a live server or a bare registry in
 * an offline replay — both sit behind this three-method interface.
 * The server adapter routes deploys through
 * ServeCore::deploy (registry swap *then* cache invalidation, the
 * order the serving layer already proves safe), so a promotion is
 * exactly as atomic as every hand-driven deploy has been since PR 5.
 */

#ifndef WCNN_LIFECYCLE_HOST_HH
#define WCNN_LIFECYCLE_HOST_HH

#include <cstdint>

#include "serve/bundle.hh"
#include "serve/event_server.hh"
#include "serve/registry.hh"

namespace wcnn {
namespace lifecycle {

/** Minimal surface the controller needs from a bundle holder. */
class BundleHost
{
  public:
    virtual ~BundleHost() = default;

    /** Snapshot of the incumbent (null before the first deploy). */
    virtual serve::BundlePtr active() const = 0;

    /** Atomically install a bundle; returns the new version. */
    virtual std::uint64_t deploy(serve::BundlePtr bundle) = 0;

    /** Version of the incumbent (0 before the first deploy). */
    virtual std::uint64_t version() const = 0;
};

/** Host over a bare registry (offline replay, unit tests). */
class RegistryHost : public BundleHost
{
  public:
    /** @param reg Registry to steer; must outlive the host. */
    explicit RegistryHost(serve::BundleRegistry &reg) : registry(reg) {}

    serve::BundlePtr active() const override
    {
        return registry.active();
    }

    std::uint64_t deploy(serve::BundlePtr bundle) override
    {
        return registry.swap(std::move(bundle));
    }

    std::uint64_t version() const override
    {
        return registry.version();
    }

  private:
    serve::BundleRegistry &registry;
};

/**
 * Host over a live server: deploys go through ServeCore::deploy, so
 * the prediction cache is invalidated with the swap.
 */
class EngineHost : public BundleHost
{
  public:
    /** @param srv Server to steer; must outlive the host. */
    explicit EngineHost(serve::EventServer &srv) : server(srv) {}

    serve::BundlePtr active() const override { return server.active(); }

    std::uint64_t deploy(serve::BundlePtr bundle) override
    {
        return server.deploy(std::move(bundle));
    }

    std::uint64_t version() const override { return server.version(); }

  private:
    serve::EventServer &server;
};

} // namespace lifecycle
} // namespace wcnn

#endif // WCNN_LIFECYCLE_HOST_HH
