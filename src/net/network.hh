/**
 * @file
 * Point-to-point interconnect model.
 *
 * The paper's evaluation notes that Cosmos' accuracy is largely
 * insensitive to network latency (§5), so the network is a simple
 * fixed-latency, in-order-per-channel model: a message from src to dst
 * arrives after NI + wire + NI delay, and never overtakes an earlier
 * message on the same (src, dst) channel. Same-node "messages" (the
 * Stache home-node optimization, §5.1) are delivered after one tick
 * and are flagged local so the machine can exclude them from traces.
 */

#ifndef COSMOS_NET_NETWORK_HH
#define COSMOS_NET_NETWORK_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "net/network_stats.hh"
#include "sim/event_queue.hh"

namespace cosmos::net
{

/**
 * Fixed-latency point-to-point network carrying @p Payload messages.
 *
 * Each destination node attaches one handler; the handler receives the
 * payload plus an is_local flag (true when src == dst, i.e. the
 * message never crossed the interconnect).
 */
template <typename Payload>
class Network
{
  public:
    using Handler = std::function<void(const Payload &, bool is_local)>;

    Network(sim::EventQueue &eq, NodeId num_nodes, Tick wire_latency,
            Tick ni_latency)
        : eq_(eq), numNodes_(num_nodes), wireLatency_(wire_latency),
          niLatency_(ni_latency), handlers_(num_nodes)
    {
    }

    /** Register the single delivery handler for node @p node. */
    void
    attach(NodeId node, Handler handler)
    {
        cosmos_assert(node < numNodes_, "attach to bad node ", node);
        handlers_[node] = std::move(handler);
    }

    /**
     * Extra delivery delay for a remote message, consulted per send.
     * Returning varying (e.g. seeded-random) delays permutes the
     * *global* interleaving of deliveries while the per-(src, dst)
     * channel stays FIFO -- exactly the schedule freedom a real
     * interconnect has, and the axis the protocol fuzzer explores.
     */
    using JitterFn = std::function<Tick(NodeId src, NodeId dst,
                                        const Payload &payload)>;

    /** Install (or clear, with nullptr) the delivery-jitter hook. */
    void setDeliveryJitter(JitterFn fn) { jitter_ = std::move(fn); }

    /**
     * Send @p payload from @p src to @p dst.
     *
     * Remote messages incur NI + wire + NI latency and stay ordered
     * per (src, dst) channel. Local messages (src == dst) are
     * delivered on the next tick.
     */
    void
    send(NodeId src, NodeId dst, Payload payload)
    {
        cosmos_assert(src < numNodes_ && dst < numNodes_,
                      "send between bad nodes ", src, "->", dst);
        const bool local = (src == dst);
        Tick arrive;
        if (local) {
            arrive = eq_.now() + 1;
            stats_.localMessages++;
        } else {
            arrive = eq_.now() + 2 * niLatency_ + wireLatency_;
            if (jitter_)
                arrive += jitter_(src, dst, payload);
            auto &last = lastArrival_[channelKey(src, dst)];
            arrive = std::max(arrive, last + 1);
            last = arrive;
            stats_.recordRemote(arrive - eq_.now());
        }
        stats_.recordInFlightSend();
        eq_.scheduleAt(arrive,
                       [this, dst, local, p = std::move(payload)]() {
                           cosmos_assert(handlers_[dst],
                                         "no handler on node ", dst);
                           stats_.recordDelivered();
                           handlers_[dst](p, local);
                       });
    }

    /** Publish interconnect metrics under "<prefix>.". */
    void
    publishMetrics(obs::Registry &reg,
                   const std::string &prefix = "net") const
    {
        stats_.publishMetrics(reg, prefix);
    }

    const NetworkStats &stats() const { return stats_; }
    NodeId numNodes() const { return numNodes_; }
    Tick wireLatency() const { return wireLatency_; }

  private:
    static std::uint32_t
    channelKey(NodeId src, NodeId dst)
    {
        return (static_cast<std::uint32_t>(src) << 16) | dst;
    }

    sim::EventQueue &eq_;
    NodeId numNodes_;
    Tick wireLatency_;
    Tick niLatency_;
    std::vector<Handler> handlers_;
    JitterFn jitter_;
    std::unordered_map<std::uint32_t, Tick> lastArrival_;
    NetworkStats stats_;
};

} // namespace cosmos::net

#endif // COSMOS_NET_NETWORK_HH
