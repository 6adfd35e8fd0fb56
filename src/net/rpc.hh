/**
 * @file
 * RPC wire types of the network service plane.
 *
 * Requests and responses are trivially-copyable PODs: they live in
 * the NIC's RX/TX descriptor rings, whose contents Auto-Stop
 * serializes byte-for-byte into the DCB payload region, so the wire
 * format doubles as the persistent ring-context format.
 *
 * Request IDs are globally unique and *stable across retries*: a
 * client that times out re-sends the same reqId, and the server's
 * persistent dedup table makes re-execution idempotent. That is what
 * keeps a retry that races a power cut from double-applying a PUT.
 */

#ifndef LIGHTPC_NET_RPC_HH
#define LIGHTPC_NET_RPC_HH

#include <cstdint>
#include <type_traits>

#include "sim/ticks.hh"
#include "workload/service_mix.hh"

namespace lightpc::net
{

/** Server verdict on one request attempt. */
enum class RpcStatus : std::uint32_t
{
    Ok = 0,
    NotFound = 1,          ///< GET of a never-written key
    Rejected = 2,          ///< admission queue full (backpressure)
    DeadlineExceeded = 3,  ///< dequeued past its deadline; not applied
    NotLeader = 4,         ///< replica is a follower; see leaderHint
    ReadOnly = 5,          ///< quorum lost: writes refused, not applied
};

/** Display name. */
inline const char *
rpcStatusName(RpcStatus status)
{
    switch (status) {
    case RpcStatus::Ok: return "OK";
    case RpcStatus::NotFound: return "NOT_FOUND";
    case RpcStatus::Rejected: return "REJECTED";
    case RpcStatus::DeadlineExceeded: return "DEADLINE_EXCEEDED";
    case RpcStatus::NotLeader: return "NOT_LEADER";
    case RpcStatus::ReadOnly: return "READ_ONLY";
    }
    return "?";
}

/** RpcResponse::leaderHint when the responder knows no leader. */
inline constexpr std::uint32_t noLeaderHint = ~std::uint32_t(0);

/** One request attempt as it sits in the NIC RX ring. */
struct RpcRequest
{
    std::uint64_t reqId = 0;    ///< stable across retries (idempotence)
    std::uint32_t client = 0;
    workload::KvOp op = workload::KvOp::Get;
    std::uint64_t key = 0;
    std::uint64_t valueSeed = 0;   ///< PUT payload digest
    std::uint32_t scanLength = 0;
    std::uint32_t attempt = 1;     ///< 1 = first issue
    Tick deadline = 0;             ///< absolute server-side deadline
    Tick firstIssuedAt = 0;        ///< latency base (first attempt)
};

/** One response as it sits in the NIC TX ring. */
struct RpcResponse
{
    std::uint64_t reqId = 0;
    std::uint32_t client = 0;
    RpcStatus status = RpcStatus::Ok;
    std::uint64_t version = 0;    ///< key version after/at the op
    std::uint64_t valueSeed = 0;  ///< GET payload / SCAN digest
    Tick servedAt = 0;            ///< server completion tick

    /**
     * Attempt number this response answers (0 when the server did not
     * echo one). A client fast-redirecting on NotLeader/ReadOnly
     * passes it as the guarded-retry expectation, so a redirect for a
     * superseded attempt cannot race the newer attempt's timeout into
     * a duplicate issue.
     */
    std::uint32_t attempt = 0;

    /** Replica that produced the response (single node: 0). */
    std::uint32_t source = 0;

    /** NotLeader redirect target (noLeaderHint when unknown). */
    std::uint32_t leaderHint = noLeaderHint;

    /**
     * Leader epoch under which a replicated PUT was acked (0 = not a
     * replicated-write ack; cluster epochs start at 1). The client
     * plane feeds it to the online split-brain audit: acks from two
     * distinct sources inside one epoch are an invariant violation.
     */
    std::uint64_t epoch = 0;
};

/** An Ok response addressed to @p req's attempt, to be filled in. */
inline RpcResponse
answerTo(const RpcRequest &req)
{
    RpcResponse resp;
    resp.reqId = req.reqId;
    resp.client = req.client;
    resp.attempt = req.attempt;
    return resp;
}

static_assert(std::is_trivially_copyable_v<RpcRequest>);
static_assert(std::is_trivially_copyable_v<RpcResponse>);

} // namespace lightpc::net

#endif // LIGHTPC_NET_RPC_HH
