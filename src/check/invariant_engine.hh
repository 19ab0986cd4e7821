/**
 * @file
 * Per-message protocol invariant engine.
 *
 * Attaches to a proto::Machine's delivery probe and, after every
 * delivered coherence message, verifies the global safety properties
 * of the protocol on the block the message touched (the SWMR and
 * agreement rules are check::checkBlockCoherence, check/coherence.hh):
 *
 *  - single-writer / multiple-reader: at most one read_write copy
 *    machine-wide, and never a read_write copy coexisting with
 *    read_only copies (checked strictly, at every delivery -- the
 *    protocol grants exclusivity only after all invalidations ack,
 *    so SWMR must hold at every instant, not just quiescence);
 *  - directory/cache agreement: a quiescent directory entry's sharer
 *    bits and owner must match the caches' actual line states;
 *  - message conservation: per block, responses never outnumber the
 *    requests they answer, and at quiescence every request has been
 *    matched (no in-flight transactions survive a drained queue);
 *  - busy-entry liveness: a block may not sit with requests
 *    outstanding for longer than a bounded pending window.
 *
 * Violations are recorded as structured check::Violation values
 * carrying the block, the implicated nodes, the states seen, and a
 * ring buffer of the last-k delivered messages -- the same
 * ring-buffer discipline the obs tracing layer uses -- rather than
 * aborting the process. Assertion failures inside the protocol are
 * folded in through the common/log FailureTrap.
 */

#ifndef COSMOS_CHECK_INVARIANT_ENGINE_HH
#define COSMOS_CHECK_INVARIANT_ENGINE_HH

#include <deque>
#include <unordered_map>
#include <vector>

#include "check/violation.hh"
#include "common/log.hh"
#include "proto/machine.hh"

namespace cosmos::check
{

/** Tunables of the invariant engine. */
struct CheckOptions
{
    /** Delivered messages kept in the violation history ring. */
    unsigned historyDepth = 12;

    /**
     * Ticks a block may continuously have unanswered requests before
     * the liveness invariant reports it stuck. Generous by default:
     * a legitimate transaction spans a few network hops plus memory
     * and occupancy, i.e. hundreds of ticks, not a million.
     */
    Tick maxPendingWindow = 1'000'000;

    /** Run the per-block checks after every delivery (else only the
     *  quiescent sweep). */
    bool perMessage = true;

    /** Recording stops after this many violations (the count of
     *  suppressed ones is still kept). */
    unsigned maxViolations = 64;
};

class InvariantEngine
{
  public:
    /** Installs itself as @p machine's delivery probe. */
    explicit InvariantEngine(proto::Machine &machine,
                             CheckOptions opts = {});
    ~InvariantEngine();

    InvariantEngine(const InvariantEngine &) = delete;
    InvariantEngine &operator=(const InvariantEngine &) = delete;

    /**
     * Full-machine sweep for quiescent points (event queue drained):
     * check::checkCoherence (liveness, SWMR and directory agreement
     * over every known block) plus message conservation (no request
     * left unanswered).
     */
    void checkQuiescent();

    /** Fold a trapped assertion/panic into the violation list. */
    void noteFailure(const RecoverableError &e);

    const std::vector<Violation> &violations() const
    {
        return violations_;
    }

    bool clean() const { return violations_.empty(); }

    /** Violations dropped after maxViolations was reached. */
    std::uint64_t suppressed() const { return suppressed_; }

    /** Messages observed through the delivery probe. */
    std::uint64_t delivered() const { return delivered_; }

  private:
    void onDelivered(const proto::Msg &m, Tick when);
    /** Report checkBlockCoherence() on a single block. */
    void checkBlock(Addr block, Tick when);
    void scanPendingWindows(Tick when);
    void report(Violation v);
    std::vector<std::string> historySnapshot() const;

    proto::Machine &machine_;
    CheckOptions opts_;
    std::deque<std::string> history_;

    /** Request/response bookkeeping for one block. */
    struct Flight
    {
        std::int64_t outstanding = 0;
        Tick since = 0;
        bool reportedStuck = false;
    };

    std::unordered_map<Addr, Flight> flights_;
    std::vector<Violation> violations_;
    /** Reused per-delivery output of checkBlockCoherence(). */
    std::vector<Violation> scratch_;
    std::uint64_t delivered_ = 0;
    std::uint64_t suppressed_ = 0;
};

} // namespace cosmos::check

#endif // COSMOS_CHECK_INVARIANT_ENGINE_HH
