/**
 * @file
 * Minimal epoll-based event loop over the varan::sys layer — the
 * reactor at the heart of every C10k server in src/apps, shaped like
 * the loops in Lighttpd/Redis/Memcached so the engine sees the same
 * syscall profile (epoll_wait, accept4, read, write, close).
 */

#ifndef VARAN_NETIO_EVENTLOOP_H
#define VARAN_NETIO_EVENTLOOP_H

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace varan::netio {

class EventLoop
{
  public:
    /** Handler receives the epoll event mask for its descriptor. */
    using Handler = std::function<void(std::uint32_t events)>;

    EventLoop();
    ~EventLoop();

    VARAN_NO_COPY_NO_MOVE(EventLoop);

    bool valid() const { return epoll_fd_ >= 0; }

    Status add(int fd, std::uint32_t events, Handler handler);
    Status modify(int fd, std::uint32_t events);

    /**
     * Unregister a descriptor. Safe to call from inside a handler —
     * including the handler being removed: during dispatch the
     * unregistration takes effect immediately (no later handler in the
     * same pass fires for the fd) but the handler object is destroyed
     * only after the pass, so a self-removing handler never frees the
     * closure it is executing.
     */
    void remove(int fd);

    /**
     * Run until stop() is called. Each iteration waits up to
     * @p tick_ms so a stop request is honoured promptly.
     */
    void run(int tick_ms = 100);

    /** One epoll_wait + dispatch pass; returns events handled. */
    int runOnce(int timeout_ms);

    /**
     * Block until a registered descriptor is ready or @p timeout_ms
     * passes, dispatching nothing: a following runOnce() handles what
     * is ready (registrations are level-triggered). Touches only the
     * epoll instance, so a caller that serializes add()/remove()/
     * runOnce() under a lock can wait here without holding it.
     */
    void waitReady(int timeout_ms);

    void stop() { stopping_ = true; }
    std::uint64_t iterations() const { return iterations_; }

  private:
    bool removedThisPass(int fd) const;

    int epoll_fd_ = -1;
    bool stopping_ = false;
    bool dispatching_ = false;
    std::uint64_t iterations_ = 0;
    std::unordered_map<int, Handler> handlers_;
    /** Descriptors removed during the current dispatch pass; their
     *  handlers are erased once the pass finishes. */
    std::vector<int> deferred_removals_;
    /** Handlers re-added during the pass for fds removed in the same
     *  pass; installed once the old handler is safely dead. */
    std::vector<std::pair<int, Handler>> pending_adds_;
};

} // namespace varan::netio

#endif // VARAN_NETIO_EVENTLOOP_H
