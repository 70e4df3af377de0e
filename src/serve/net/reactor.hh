/**
 * @file
 * Reactor: the epoll event-demultiplexer, plus a hashed timer wheel.
 *
 * The Reactor is the only epoll surface in the tree — like the socket
 * wrappers, it lives in src/serve/net/ so lint rule R7 can keep every
 * readiness syscall (epoll_create1/epoll_ctl/epoll_wait, eventfd)
 * contained here. The EventServer's shard loops speak only in terms
 * of add/modify/remove/wait/wakeup and fd-keyed Events.
 *
 * Readiness is *level-triggered* by default: a shard that pauses a
 * connection for backpressure and re-enables it later must not lose
 * the "still readable" edge it skipped, and level mode makes that
 * impossible by construction. Edge-triggered registration (EPOLLET)
 * is available per fd for callers that drain to EAGAIN and want
 * fewer wakeups.
 *
 * wakeup() posts an eventfd the wait() call absorbs internally — the
 * acceptor uses it to hand new connections to a shard, and stop()
 * uses it to break a shard out of its poll without a timeout dance.
 *
 * The TimerWheel is pure bookkeeping (no syscalls): a fixed ring of
 * slots at a coarse tick, holding fd keys with absolute deadlines.
 * Idle-timeout enforcement wants exactly this shape — O(1) schedule,
 * batched expiry sweeps, and cheap *lazy* re-arming: when activity
 * pushes a connection's deadline forward, the shard just updates the
 * deadline and lets the stale wheel entry re-schedule itself on
 * expiry instead of hunting it down to cancel it.
 */

#ifndef WCNN_SERVE_NET_REACTOR_HH
#define WCNN_SERVE_NET_REACTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wcnn {
namespace serve {
namespace net {

/**
 * Level/edge-triggered epoll wrapper with an eventfd wakeup channel.
 *
 * Not thread-safe except for wakeup(): registration and wait() belong
 * to the owning event-loop thread; wakeup() may be called from any
 * thread.
 */
class Reactor
{
  public:
    /** One readiness notification for a registered descriptor. */
    struct Event
    {
        int fd = -1;
        bool readable = false; ///< EPOLLIN/EPOLLPRI
        bool writable = false; ///< EPOLLOUT
        bool hangup = false;   ///< EPOLLHUP/EPOLLERR/EPOLLRDHUP
    };

    /**
     * Create the epoll instance and its wakeup eventfd.
     *
     * @throws ServeError when the kernel refuses either descriptor.
     */
    Reactor();

    Reactor(const Reactor &) = delete;
    Reactor &operator=(const Reactor &) = delete;

    /** Closes both descriptors. */
    ~Reactor();

    /**
     * Register a descriptor.
     *
     * @param fd         Descriptor to watch (ownership stays with the
     *                   caller).
     * @param want_read  Deliver readable events.
     * @param want_write Deliver writable events.
     * @param edge       Edge-triggered (EPOLLET) instead of the
     *                   default level-triggered delivery.
     * @throws ServeError on an epoll_ctl failure.
     */
    void add(int fd, bool want_read, bool want_write,
             bool edge = false);

    /** Change a registered descriptor's interest set. */
    void modify(int fd, bool want_read, bool want_write,
                bool edge = false);

    /** Deregister a descriptor (tolerates an already-closed fd). */
    void remove(int fd);

    /**
     * Wait for readiness, at most `timeout_ms`. Wakeup posts are
     * absorbed internally (they still cut the wait short, returning
     * whatever else is ready — possibly nothing).
     *
     * @param events     Cleared, then filled with ready descriptors.
     * @param timeout_ms Bound in milliseconds; < 0 waits forever.
     * @throws ServeError on an epoll_wait failure.
     */
    void wait(std::vector<Event> &events, int timeout_ms);

    /** Interrupt a concurrent wait(). Thread-safe, async-signal cheap. */
    void wakeup();

  private:
    int epollFd = -1;
    int wakeupFd = -1;
};

/**
 * Hashed timer wheel over int keys (connection fds).
 *
 * Deadlines are absolute nanosecond timestamps on the caller's clock
 * (the serving code uses core::telemetry::nowNs()). An entry fires in
 * the collect() whose sweep reaches its slot at or after its
 * deadline; with a `tick_ns` matching the event loop's poll bound,
 * expiry lags a deadline by at most one tick.
 */
class TimerWheel
{
  public:
    /**
     * @param tick_ns    Slot width in nanoseconds (> 0).
     * @param slot_count Ring size (> 0); deadlines further than
     *                   tick_ns*slot_count ahead simply take extra
     *                   rotations.
     * @param now_ns     Current time; sweeps start here.
     */
    TimerWheel(std::int64_t tick_ns, std::size_t slot_count,
               std::int64_t now_ns);

    /**
     * Arm `key` to fire at `deadline_ns`. Deadlines in the past fire
     * on the next collect(). Re-scheduling a key does not cancel its
     * older entries — callers de-duplicate on fire (lazy re-arm).
     */
    void schedule(int key, std::int64_t deadline_ns);

    /**
     * Advance the sweep to `now_ns`, appending every fired key to
     * `due` (not cleared; duplicates possible under lazy re-arm).
     */
    void collect(std::int64_t now_ns, std::vector<int> &due);

  private:
    struct Entry
    {
        int key;
        std::int64_t deadlineNs;
    };

    std::uint64_t tickOf(std::int64_t at_ns) const;

    std::int64_t tickNs;
    std::vector<std::vector<Entry>> slots;
    std::uint64_t cursorTick; ///< next tick index to sweep
};

} // namespace net
} // namespace serve
} // namespace wcnn

#endif // WCNN_SERVE_NET_REACTOR_HH
