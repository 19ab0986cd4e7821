/**
 * @file
 * Atomic-step executor driving the *live* protocol controllers.
 *
 * The model checker never re-implements the protocol: every
 * transition is computed by restoring a GlobalState into real
 * CacheController / DirectoryController instances (via the snapshot
 * API), applying one action, and reading the controllers back. The
 * transition relation explored is therefore the implementation's, by
 * construction -- the checker cannot drift from the code it checks.
 *
 * Step semantics (Murphi-style atomic handlers): one action delivers
 * one message (or issues one processor access); the receiving
 * handler runs to completion, including its scheduled continuations
 * (the event queue is drained after every handler). Messages the
 * handlers emit are captured instead of sent: remote ones are
 * appended to the model's per-channel FIFOs, home-node-local ones
 * (src == dst) are delivered synchronously within the same step --
 * matching Stache's local optimization, under which local messages
 * are invisible to the network. A step is thus a maximal cascade of
 * local handler executions triggered by one scheduler choice.
 *
 * Handlers run under a FailureTrap: a cosmos_assert / cosmos_panic
 * inside the protocol (e.g. an unexpected message under network
 * reordering) becomes a failed Result, not a dead process, so the
 * exploration can record the violation and continue.
 *
 * Incremental load. A step runs the handlers of one node only (every
 * emission comes from the handled node, and local messages stay on
 * it), and the explorer steps every action of one state in a row, so
 * the controllers stay loaded between steps. The invariant: a
 * controller is not restored again if nothing touched it since it
 * was restored from an equal node slice (for node n's cache, its
 * lines and fault residue; for its directory, the entries it homes).
 * A controller is restored when one of its handlers ran since its
 * last restore -- it then holds that step's post-state, or whatever
 * a trapped failure left half-done, since a controller is marked
 * before its handler runs -- or when the incoming state's slice
 * differs from the one it was restored from. Read-back likewise
 * covers only the controllers whose handlers ran; every other slice
 * carries over from the input state unchanged.
 */

#ifndef COSMOS_MODEL_STEPPER_HH
#define COSMOS_MODEL_STEPPER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/addr.hh"
#include "model/state.hh"
#include "model/table.hh"
#include "proto/block_index.hh"
#include "sim/event_queue.hh"

namespace cosmos::model
{

/** Executes single model transitions against the live controllers. */
class Stepper
{
  public:
    explicit Stepper(const ModelConfig &mc);

    /** Outcome of one atomic step. */
    struct Result
    {
        GlobalState next{};
        /** A trapped assertion/panic fired inside a handler; next is
         *  meaningless and the state is terminal. */
        bool failed = false;
        std::string failureMsg;
        /** One sample per handler invocation in the cascade. */
        std::vector<Sample> samples;
    };

    /** The all-invalid, all-idle, empty-network initial state. */
    static GlobalState initialState() { return GlobalState{}; }

    /** Apply @p a to @p s. */
    void step(const GlobalState &s, const Action &a, Result &out);

    const ModelConfig &modelConfig() const { return mc_; }
    const MachineConfig &machineConfig() const { return cfg_; }

    /** The declared transition table the controllers dispatch
     *  through; Sample::row points into it. */
    const proto::ProtocolTable &table() const { return table_; }

  private:
    /** Mask bit of node @p n's cache or directory controller. */
    static std::uint32_t bit(NodeId n, Module m);
    /** Restore every controller that may not hold @p s's slice (see
     *  the file comment). */
    void load(const GlobalState &s);
    /** True when the controller was last restored from a slice equal
     *  to @p s's: node @p n's lines and residue, or the directory
     *  entries it homes. */
    bool holdsCache(const GlobalState &s, NodeId n) const;
    bool holdsDirectory(const GlobalState &s, NodeId n) const;
    void restoreCache(const GlobalState &s, NodeId n);
    void restoreDirectory(const GlobalState &s, NodeId n);
    /** Copy the controller's state into its slice of @p out. */
    void readBackCache(NodeId n, GlobalState &out);
    void readBackDirectory(NodeId n, GlobalState &out);
    /** Note that a handler of node @p n's @p m controller is about
     *  to run. */
    void touch(NodeId n, Module m);
    void runCascade(Result &out);
    void drainInto(Sample &sample, GlobalState &work, NodeId handled);

    proto::Msg toMsg(const CompactMsg &m) const;
    CompactMsg fromMsg(const proto::Msg &m) const;
    unsigned blockIdx(Addr block) const;

    ModelConfig mc_;
    MachineConfig cfg_;
    AddrMap amap_;
    /** Declared before the controllers: they keep references. */
    proto::BlockIndex blocks_;
    proto::ProtocolTable table_;
    sim::EventQueue eq_;
    std::vector<std::unique_ptr<proto::CacheController>> caches_;
    std::vector<std::unique_ptr<proto::DirectoryController>> dirs_;

    /** The slices the controllers were last restored from: node n's
     *  cache from line[n] and invalResidue[n], its directory from
     *  the dir entries it homes. */
    GlobalState loaded_{};
    /** Controllers (see bit()) that ran a handler since they were
     *  restored from loaded_, so they may no longer hold it. */
    std::uint32_t stale_ = 0;
    /** Controllers whose handlers ran in the current step. */
    std::uint32_t touched_ = 0;

    /** Messages captured from the controllers' send hook. */
    std::vector<proto::Msg> captured_;
    /** Home-local messages awaiting delivery within the step. */
    std::vector<proto::Msg> worklist_;

    /** Scratch snapshots (reused across steps to avoid allocation). */
    proto::CacheSnapshot cacheScratch_;
    proto::DirectorySnapshot dirScratch_;
};

} // namespace cosmos::model

#endif // COSMOS_MODEL_STEPPER_HH
