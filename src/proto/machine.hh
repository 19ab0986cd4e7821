/**
 * @file
 * The simulated target machine: N nodes, each with a cache controller
 * and a directory slice, connected by the fixed-latency network. This
 * is the substrate standing in for the paper's 16-node Wisconsin Wind
 * Tunnel II target (Table 3).
 *
 * Message observers (trace writers, online predictors) are notified of
 * every *remote* incoming message together with the role of the
 * receiving module -- the exact observation point Cosmos uses.
 * Home-node-local messages are invisible, matching Stache's local
 * optimization (§5.1).
 */

#ifndef COSMOS_PROTO_MACHINE_HH
#define COSMOS_PROTO_MACHINE_HH

#include <array>
#include <memory>
#include <vector>

#include "common/addr.hh"
#include "common/config.hh"
#include "net/network.hh"
#include "obs/metrics.hh"
#include "proto/cache_controller.hh"
#include "proto/directory_controller.hh"
#include "proto/messages.hh"
#include "proto/transition_table.hh"
#include "sim/event_queue.hh"

namespace cosmos::proto
{

/** Observer of remote incoming coherence messages. */
class MsgObserver
{
  public:
    virtual ~MsgObserver() = default;

    /**
     * Called at delivery of each remote message.
     *
     * @param m         the message
     * @param role      role of the receiving module (cache/directory)
     * @param iteration application iteration tag set by the runtime
     * @param when      delivery time
     */
    virtual void onMessage(const Msg &m, Role role, int iteration,
                           Tick when) = 0;
};

/**
 * Protocol state of the whole machine at a quiescent point: one
 * snapshot per cache and per directory slice. Valid only when the
 * event queue is drained -- in-flight messages live as closures on
 * the queue and cannot be captured; the model checker (src/model)
 * keeps its message pool explicitly for exactly this reason.
 */
struct MachineSnapshot
{
    std::vector<CacheSnapshot> caches;
    std::vector<DirectorySnapshot> directories;
};

/** The whole simulated machine. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    sim::EventQueue &eventQueue() { return eq_; }
    const sim::EventQueue &eventQueue() const { return eq_; }
    const AddrMap &addrMap() const { return amap_; }
    const MachineConfig &config() const { return cfg_; }

    /** The declared transition table the controllers dispatch
     *  through (built once per machine from the configuration). */
    const ProtocolTable &table() const { return table_; }

    CacheController &cache(NodeId n);
    const CacheController &cache(NodeId n) const;
    DirectoryController &directory(NodeId n);
    const DirectoryController &directory(NodeId n) const;

    NodeId numNodes() const { return cfg_.numNodes; }

    /** Register an observer (not owned). */
    void addObserver(MsgObserver *obs);

    /**
     * Probe called after *every* delivered message -- local ones too,
     * unlike MsgObserver -- once the receiving controller has fully
     * handled it, so the probe sees the post-transition machine
     * state. This is the invariant checker's attachment point
     * (src/check); at most one probe is installed at a time, and
     * nullptr clears it.
     */
    using DeliveryProbe =
        std::function<void(const Msg &m, bool local, Tick when)>;

    void setDeliveryProbe(DeliveryProbe probe)
    {
        probe_ = std::move(probe);
    }

    /** The interconnect (schedule-fuzzing hooks live on it). */
    net::Network<Msg> &network() { return network_; }

    /**
     * Capture every controller's protocol state into @p out. Asserts
     * the machine is quiescent (no pending events): mid-flight
     * messages are queue closures and would be silently lost.
     */
    void snapshot(MachineSnapshot &out) const;

    /** Restore a quiescent snapshot taken by snapshot(). */
    void restore(const MachineSnapshot &s);

    /** Tag subsequent messages with application iteration @p it. */
    void setIteration(int it) { iteration_ = it; }
    int iteration() const { return iteration_; }

    const net::NetworkStats &networkStats() const
    {
        return network_.stats();
    }

    /** Messages delivered (local + remote), by type. */
    const std::array<std::uint64_t, num_msg_types> &
    deliveredByType() const
    {
        return deliveredByType_;
    }

    /**
     * Publish the whole machine's observability surface into @p reg:
     * event-queue counters ("sim.*"), interconnect counters and the
     * remote latency histogram ("net.*"), and protocol activity
     * summed over nodes ("proto.*"). Everything published here is a
     * pure function of (configuration, seed).
     */
    void publishMetrics(obs::Registry &reg) const;

  private:
    void deliver(const Msg &m, bool local);

    MachineConfig cfg_;
    AddrMap amap_;
    /** Declared before the controllers: they keep a reference. */
    ProtocolTable table_;
    sim::EventQueue eq_;
    net::Network<Msg> network_;
    std::vector<std::unique_ptr<CacheController>> caches_;
    std::vector<std::unique_ptr<DirectoryController>> directories_;
    std::vector<MsgObserver *> observers_;
    DeliveryProbe probe_;
    std::array<std::uint64_t, num_msg_types> deliveredByType_{};
    int iteration_ = 0;
};

} // namespace cosmos::proto

#endif // COSMOS_PROTO_MACHINE_HH
