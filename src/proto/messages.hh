/**
 * @file
 * The coherence message vocabulary of the simulated protocol.
 *
 * This is exactly the paper's Table 1 message set for a full-map,
 * write-invalidate directory protocol, plus the downgrade pair the
 * paper introduces with Figure 8:
 *
 *   get_ro_request / get_ro_response      read-only (shared) fetch
 *   get_rw_request / get_rw_response      read-write (exclusive) fetch
 *   upgrade_request / upgrade_response    shared -> exclusive upgrade
 *   inval_ro_request / inval_ro_response  invalidate a shared copy
 *   inval_rw_request / inval_rw_response  invalidate + return an
 *                                         exclusive copy
 *   downgrade_request / downgrade_response exclusive -> shared
 *
 * One extension beyond the paper: fwd_ack, the requester-to-home
 * acknowledgment that closes a three-hop forwarded transfer (§2.1
 * forwarding). The former owner's direct data reply and the home's
 * next invalidation travel on independent channels, so the home must
 * keep the directory entry busy until the requester confirms the data
 * arrived; fwd_ack is that confirmation.
 */

#ifndef COSMOS_PROTO_MESSAGES_HH
#define COSMOS_PROTO_MESSAGES_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "proto/block_index.hh"

namespace cosmos::proto
{

/** Coherence message types (paper Table 1 + downgrade pair). */
enum class MsgType : std::uint8_t
{
    get_ro_request,
    get_ro_response,
    get_rw_request,
    get_rw_response,
    upgrade_request,
    upgrade_response,
    inval_ro_request,
    inval_ro_response,
    inval_rw_request,
    inval_rw_response,
    downgrade_request,
    downgrade_response,
    /** Requester -> home: the forwarded three-hop data arrived; the
     *  home may release the directory entry. */
    fwd_ack,
};

/** Number of distinct message types. */
constexpr unsigned num_msg_types = 13;

/**
 * Which module receives a message of a given type.
 *
 * Requests from caches and invalidation/downgrade responses arrive at
 * a directory; everything the directory emits arrives at a cache. This
 * is the role split the paper uses when it reports cache-side vs
 * directory-side prediction accuracy (Table 5).
 */
enum class Role : std::uint8_t
{
    cache,
    directory,
};

/** Role of the module that *receives* a message of type @p t. */
Role receiverRole(MsgType t);

/** True for *_request types, false for *_response types. */
bool isRequest(MsgType t);

/** Printable name, matching the paper's spelling. */
const char *toString(MsgType t);

/** Printable role name. */
const char *toString(Role r);

/** Parse a message-type name (exact match); panics on unknown name. */
MsgType msgTypeFromString(const std::string &name);

/**
 * One coherence message in flight.
 *
 * @c requester carries the node on whose behalf a forwarded request
 * (inval_*_request / downgrade_request) was issued; it equals @c src
 * for direct requests.
 */
struct Msg
{
    MsgType type{};
    NodeId src = invalid_node;
    NodeId dst = invalid_node;
    Addr block = 0;
    NodeId requester = invalid_node;
    /** Forwarding protocol (SGI-Origin style, §2.1): this recall asks
     *  the owner to respond *directly* to @c requester. */
    bool forwarded = false;
    /** In a forwarded recall: the requester wants a writable copy. */
    bool wantWritable = false;
    /** @c block's id in the machine's BlockIndex, so the receiver
     *  indexes its state without hashing the address; no_block when
     *  the sender did not know it (the receiver interns @c block). */
    BlockId id = no_block;

    /** Render "type src->dst block=0x... " for debugging. */
    std::string format() const;
};

// The id rides in what was padding after the flags.
static_assert(sizeof(Msg) == 24, "Msg grew");

} // namespace cosmos::proto

#endif // COSMOS_PROTO_MESSAGES_HH
