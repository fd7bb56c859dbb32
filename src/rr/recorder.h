/**
 * @file
 * The record side of section 5.4, rebuilt as a peer of the wire
 * shipper: LogSink is an artificial follower that drains every tuple
 * ring through tap cursors with the same peekBatch() ship-batch idiom
 * wire::Shipper uses, serializes v3 records while the payloads are
 * still pinned, and sinks them to disk through a bounded in-memory
 * spill buffer so a slow disk degrades like an evicted wire peer —
 * the sink detaches its taps and the log ends at a valid prefix —
 * instead of backpressuring the leader through the ring.
 *
 * Every write error is checked: the first errno is latched into the
 * stats (and mirrored into ControlBlock for StatusReport), the taps
 * stop advancing past the last durable record, and finish() reports
 * the error instead of returning success over a corrupt log.
 *
 * Also provides the in-band baseline used for the Scribe comparison:
 * a dispatcher wrapper that logs synchronously inside each system call,
 * which is the cost structure VARAN's decoupled design avoids.
 */

#ifndef VARAN_RR_RECORDER_H
#define VARAN_RR_RECORDER_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/layout.h"
#include "rr/log.h"
#include "syscalls/classify.h"
#include "syscalls/sys.h"

namespace varan::rr {

class LogSink
{
  public:
    /** Largest supported drain batch (events per peekBatch run). */
    static constexpr std::size_t kMaxDrainBatch = 64;

    /** What to do when the spill buffer is full (the disk cannot keep
     *  up with the stream). */
    enum class Overflow : std::uint32_t {
        /** Detach the taps and end the log at a valid prefix — the
         *  leader is never gated (the wire tier's straggler-eviction
         *  semantics applied to a disk). */
        Evict = 0,
        /** Wait for the writer to catch up; ring backpressure may
         *  reach the leader. Benches and finish-everything captures
         *  opt into this. */
        Gate = 1,
    };

    struct Options {
        /** Events per peekBatch run: 1 degenerates to the per-event
         *  drain + one write() per record (the single-event baseline);
         *  larger batches amortise ring synchronisation and write
         *  syscalls. Clamped to [1, kMaxDrainBatch]. */
        std::size_t drain_batch = kMaxDrainBatch;
        /** Spill-buffer cap in bytes (serialized records queued for
         *  the writer thread). */
        std::size_t spill_limit = 8u << 20;
        Overflow overflow = Overflow::Evict;
        /** No writer thread: the drain thread write()s each chunk
         *  inline (one syscall per drain pass; with drain_batch == 1,
         *  one per record). */
        bool synchronous = false;
    };

    struct Stats {
        std::uint64_t events = 0;
        std::uint64_t payload_bytes = 0;
        std::uint64_t bytes_written = 0; ///< durable bytes incl. header
        std::uint64_t write_batches = 0; ///< write() syscalls issued
        std::uint64_t spill_peak = 0;    ///< queued-bytes high-water mark
        std::uint32_t evicted = 0;       ///< sink self-evicted (overflow)
        std::int32_t write_errno = 0;    ///< first write/close failure
    };

    LogSink(const shmem::Region *region, const core::EngineLayout *layout,
            std::string path, Options options);
    /** Production defaults: batched drain, bounded spill, evict on a
     *  slow disk. */
    LogSink(const shmem::Region *region, const core::EngineLayout *layout,
            std::string path)
        : LogSink(region, layout, std::move(path), Options())
    {
    }
    ~LogSink();

    VARAN_NO_COPY_NO_MOVE(LogSink);

    /**
     * Open the log (v3 header, checked) and claim tap cursors on every
     * tuple ring. Must run before the variants start publishing (use
     * Nvx::start's pre-spawn hook). Any failure — including no free
     * tap slot (EBUSY) — detaches whatever was attached and
     * closes/unlinks the partially written file.
     */
    Status attachTaps();

    /** Start the drain (and, unless synchronous, writer) thread. */
    void startDraining();

    /** Stop draining (after variants finished), flush, close. Fails
     *  with the latched errno when any write failed. */
    Result<Stats> finish();

    /** Point-in-time statistics (also available after a failed
     *  finish(), which Result cannot carry). */
    Stats stats() const;

  private:
    std::size_t drainOnce();
    std::size_t drainTuple(std::uint32_t tuple);
    /** Hand a serialized chunk to the writer (or write it inline).
     *  @return false when the sink must stop (error or eviction). */
    bool submitChunk(std::vector<std::uint8_t> chunk);
    bool writeChunk(const std::vector<std::uint8_t> &chunk);
    void drainLoop();
    void writerLoop();
    void detachTaps();
    /** Mirror the sink statistics into ControlBlock so StatusReport
     *  (local or served over the wire) can include them. */
    void publishStats();

    const shmem::Region *region_;
    const core::EngineLayout *layout_;
    std::string path_;
    Options options_;
    int fd_ = -1;

    std::thread drain_thread_;
    std::thread writer_thread_;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> drain_done_{false}; ///< no more chunks will arrive
    std::atomic<bool> failed_{false};  ///< a write failed; stop consuming
    std::atomic<bool> evicted_{false}; ///< spill overflow; taps detached

    mutable std::mutex mutex_; ///< guards queue_/queued_bytes_/stats_
    std::condition_variable writer_cv_; ///< writer waits for chunks
    std::condition_variable space_cv_;  ///< Gate mode waits for space
    std::deque<std::vector<std::uint8_t>> queue_;
    std::size_t queued_bytes_ = 0;
    Stats stats_;

    int tap_slot_[core::kMaxTuples];
};

/**
 * Scribe-style baseline: execute the call and synchronously append the
 * record before returning to the application. Write failures latch the
 * errno and stop the log from growing past its valid prefix.
 */
class InBandRecorder : public sys::Dispatcher
{
  public:
    explicit InBandRecorder(const std::string &path);
    ~InBandRecorder() override;

    long dispatch(long nr, const std::uint64_t args[6]) override;

    std::uint64_t eventsLogged() const { return events_; }
    /** First latched write failure (0 = healthy). */
    int writeErrno() const { return writer_.error(); }

  private:
    LogWriter writer_;
    std::uint64_t events_ = 0;
};

} // namespace varan::rr

#endif // VARAN_RR_RECORDER_H
