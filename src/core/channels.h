/**
 * @file
 * Communication channels of Figure 2: a control socket pair between the
 * coordinator and each variant, a socket pair to the zygote, and a full
 * mesh of data channels between variants for descriptor transfer
 * (section 3.3.2). All pairs are created by the coordinator before any
 * fork so every process inherits exactly the ends it needs.
 */

#ifndef VARAN_CORE_CHANNELS_H
#define VARAN_CORE_CHANNELS_H

#include <cstdint>

#include "common/fd.h"
#include "core/layout.h"

namespace varan::core {

/** Control-plane message (SOCK_SEQPACKET keeps boundaries). */
struct CtrlMsg {
    enum Type : std::uint32_t {
        Invalid = 0,
        SpawnRequest,   ///< coordinator -> zygote: fork variant `variant`
        SpawnReply,     ///< zygote -> coordinator: `value` = pid
        VariantExited,  ///< zygote/variant -> coordinator: `value` = status
        VariantCrashed, ///< variant -> coordinator: `value` = signal
        Shutdown,       ///< coordinator -> zygote: kill children, quit
    };
    Type type = Invalid;
    std::int32_t variant = -1;
    std::int64_t value = 0;
};

/** Send one control message (EINTR-safe, message-boundary preserving). */
Status sendCtrl(int fd, const CtrlMsg &msg);

/** Receive one control message; EPIPE on orderly shutdown. */
Result<CtrlMsg> recvCtrl(int fd);

/**
 * All socket pairs of one engine instance.
 *
 * Index conventions: control[i] end 0 belongs to the coordinator, end 1
 * to variant i. data(i, j) returns the descriptor variant i uses to
 * talk to variant j (each unordered pair {i, j} shares one socketpair).
 */
class ChannelSet
{
  public:
    /** Create all pairs for @p num_variants variants. */
    static Result<ChannelSet> create(std::uint32_t num_variants);

    ChannelSet() = default;

    std::uint32_t numVariants() const { return num_variants_; }

    /** Coordinator's end of variant @p v's control channel. */
    int controlCoordinatorEnd(std::uint32_t v) const;
    /** Variant @p v's end of its control channel. */
    int controlVariantEnd(std::uint32_t v) const;

    /** Data-channel descriptor variant @p self uses to reach @p peer.
     *  The leader sends a descriptor before publishing its event, so
     *  the descriptor is always in flight once the event is visible.
     *  Both ids must be < numVariants(). */
    int data(std::uint32_t self, std::uint32_t peer) const;

    /** Zygote channel ends. */
    int zygoteCoordinatorEnd() { return zygote_.end(0).get(); }
    int zygoteZygoteEnd() { return zygote_.end(1).get(); }

    /**
     * In a freshly forked variant: close every descriptor that does not
     * belong to variant @p self (channel hygiene, the reason the
     * zygote exists at all — section 3.1).
     */
    void closeAllExceptVariant(std::uint32_t self);

    /** In the zygote: close coordinator-only ends. */
    void closeCoordinatorEnds();

    /**
     * In a variant: move this variant's channel ends to high descriptor
     * numbers (base + fixed offsets). Application descriptors then
     * occupy identical low numbers in every variant, which is what lets
     * followers mirror the leader's numbering with dup2 (section 3.3.2)
     * without ever colliding with engine descriptors.
     */
    void relocateVariantEndsHigh(std::uint32_t self, int base = 960);

  private:
    std::uint32_t num_variants_ = 0;
    SocketPair control_[kMaxVariants];
    // mesh_[i][j] valid for i < j.
    SocketPair mesh_[kMaxVariants][kMaxVariants];
    SocketPair zygote_;
};

} // namespace varan::core

#endif // VARAN_CORE_CHANNELS_H
