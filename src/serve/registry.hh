/**
 * @file
 * In-process bundle registry with atomic hot-swap.
 *
 * A long-running server must be able to deploy a retrained surrogate
 * without dropping traffic. The registry holds the active ModelBundle
 * behind a shared_ptr: readers snapshot the pointer (every in-flight
 * batch keeps the bundle it started with alive), writers swap in a new
 * bundle and bump a monotonically increasing version. The prediction
 * cache keys its validity on that version, so a swap implicitly
 * invalidates every cached prediction (see ServeCore::deploy in
 * engine.hh).
 */

#ifndef WCNN_SERVE_REGISTRY_HH
#define WCNN_SERVE_REGISTRY_HH

#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/bundle.hh"

namespace wcnn {
namespace serve {

/**
 * Thread-safe holder of the active bundle plus a version counter.
 */
class BundleRegistry
{
  public:
    /** Empty registry: version 0, no active bundle. */
    BundleRegistry() = default;

    BundleRegistry(const BundleRegistry &) = delete;
    BundleRegistry &operator=(const BundleRegistry &) = delete;

    /**
     * Snapshot the active bundle. Null before the first swap. The
     * returned pointer stays valid (and the bundle immutable) for as
     * long as the caller holds it, regardless of later swaps.
     */
    BundlePtr active() const;

    /**
     * Atomically install a new active bundle.
     *
     * @param bundle New bundle; must be loaded (fitted()).
     * @return The new version number (1 for the first deploy).
     */
    std::uint64_t swap(BundlePtr bundle);

    /** Version of the active bundle; 0 before the first swap. */
    std::uint64_t version() const;

    /** The active bundle together with its version. */
    struct Snapshot
    {
        BundlePtr bundle;
        std::uint64_t version = 0;
    };

    /**
     * Read the active bundle and its version under one lock. A caller
     * that guards a cache insert with the version must take both here:
     * read apart, a swap between the two reads would pair the old
     * bundle with the new version.
     */
    Snapshot snapshot() const;

    /** Number of swaps performed (== version()). */
    std::uint64_t swaps() const { return version(); }

  private:
    mutable std::mutex mutex;
    BundlePtr current;
    std::uint64_t currentVersion = 0;
};

} // namespace serve
} // namespace wcnn

#endif // WCNN_SERVE_REGISTRY_HH
