#include "netio/eventloop.h"

#include <sys/epoll.h>

#include "syscalls/sys.h"

namespace varan::netio {

EventLoop::EventLoop()
{
    long fd = sys::vepoll_create1(0);
    epoll_fd_ = fd >= 0 ? static_cast<int>(fd) : -1;
}

EventLoop::~EventLoop()
{
    if (epoll_fd_ >= 0)
        sys::vclose(epoll_fd_);
}

Status
EventLoop::add(int fd, std::uint32_t events, Handler handler)
{
    struct epoll_event ev = {};
    ev.events = events;
    ev.data.fd = fd;
    long rc = sys::vepoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    if (rc < 0)
        return Status(Errno{static_cast<int>(-rc)});
    if (dispatching_ &&
        (removedThisPass(fd) || handlers_.count(fd) != 0)) {
        // The old handler (possibly the one executing right now, if a
        // handler re-registers its own fd) must outlive the pass;
        // destroying it here would free an executing closure. The
        // replacement is installed once the pass finishes.
        for (auto &entry : pending_adds_) {
            if (entry.first == fd) {
                entry.second = std::move(handler); // newest add wins
                return Status::ok();
            }
        }
        pending_adds_.emplace_back(fd, std::move(handler));
        return Status::ok();
    }
    handlers_[fd] = std::move(handler);
    return Status::ok();
}

Status
EventLoop::modify(int fd, std::uint32_t events)
{
    struct epoll_event ev = {};
    ev.events = events;
    ev.data.fd = fd;
    long rc = sys::vepoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
    if (rc < 0)
        return Status(Errno{static_cast<int>(-rc)});
    return Status::ok();
}

void
EventLoop::remove(int fd)
{
    sys::vepoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    if (dispatching_) {
        // Erasing now would destroy a std::function that may be the
        // one currently executing (a handler closing its own fd);
        // defer the erase to the end of the dispatch pass. A handler
        // re-added earlier in this same pass is cancelled outright —
        // the final remove wins.
        for (auto it = pending_adds_.begin(); it != pending_adds_.end();
             ++it) {
            if (it->first == fd) {
                pending_adds_.erase(it);
                break;
            }
        }
        deferred_removals_.push_back(fd);
        return;
    }
    handlers_.erase(fd);
}

bool
EventLoop::removedThisPass(int fd) const
{
    for (int removed : deferred_removals_) {
        if (removed == fd)
            return true;
    }
    return false;
}

int
EventLoop::runOnce(int timeout_ms)
{
    struct epoll_event events[64];
    long n = sys::vepoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n <= 0)
        return 0;
    dispatching_ = true;
    for (long i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (removedThisPass(fd))
            continue; // an earlier handler unregistered it
        auto it = handlers_.find(fd);
        if (it != handlers_.end())
            it->second(events[i].events);
    }
    dispatching_ = false;
    for (int fd : deferred_removals_)
        handlers_.erase(fd);
    deferred_removals_.clear();
    for (auto &entry : pending_adds_)
        handlers_[entry.first] = std::move(entry.second);
    pending_adds_.clear();
    ++iterations_;
    return static_cast<int>(n);
}

void
EventLoop::waitReady(int timeout_ms)
{
    struct epoll_event event;
    sys::vepoll_wait(epoll_fd_, &event, 1, timeout_ms);
}

void
EventLoop::run(int tick_ms)
{
    stopping_ = false;
    while (!stopping_)
        runOnce(tick_ms);
}

} // namespace varan::netio
