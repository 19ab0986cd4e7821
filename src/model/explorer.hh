/**
 * @file
 * Exhaustive BFS over the protocol's reachable global states.
 *
 * Small configurations (2-3 nodes, 1-2 blocks, bounded network
 * reordering) are explored to closure: every reachable canonical
 * state is visited exactly once, every enabled action of every state
 * is executed through the live controllers (model/stepper), and each
 * discovered state is checked against the protocol's safety
 * properties -- SWMR, directory/cache agreement, deadlock-freedom --
 * reported as the check layer's structured Violation records.
 *
 * The visited set stores canonical encodings (model/state symmetry
 * reduction) in an Arena, indexed by one open-addressed array of
 * {hash tag, state id} slots; membership is decided by byte
 * comparison, so dedup is exact, never probabilistic. How each state
 * was first reached (parent, depth, action) is kept apart from the
 * dedup path and read only for depths and counterexamples.
 *
 * Violating and failed (trapped-assertion) states are terminal: they
 * are recorded with a shortest-path counterexample but not expanded,
 * so a clean run's state count is a golden number and a buggy run
 * stops at the frontier of the bug. Counterexample schedules are
 * translated back from canonical node numbering to a concrete
 * executable schedule (see canonicalEncoding's bestPerm) and verified
 * by re-execution before being reported.
 */

#ifndef COSMOS_MODEL_EXPLORER_HH
#define COSMOS_MODEL_EXPLORER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/violation.hh"
#include "model/state.hh"
#include "model/table.hh"

namespace cosmos::model
{

/** Knobs of one exploration. */
struct ExploreOptions
{
    ModelConfig mc;

    /** Livelock / scale bound: exceeding it aborts the exploration
     *  with a liveness violation (the protocol should close out in
     *  a bounded space at these sizes). */
    std::size_t maxStates = 1u << 20;

    /** Stop recording (not exploring) after this many violations. */
    unsigned maxViolations = 8;
};

/** A violation plus the schedule reaching it from the initial state. */
struct Counterexample
{
    check::Violation violation;
    /** Concrete actions, executable from the all-invalid initial
     *  state (canonical-space node ids already translated back). */
    std::vector<Action> schedule;
    /** Per schedule step, the declared table rows (file:line plus the
     *  row text) each handler invocation of that step dispatched
     *  through -- the provenance trail rendered as `# row` comment
     *  lines in the replayable counterexample format. */
    std::vector<std::vector<std::string>> rowTrace;
};

/** Outcome of one exploration. */
struct ExploreResult
{
    std::size_t states = 0;      ///< distinct canonical states
    std::size_t transitions = 0; ///< actions executed
    std::size_t deadlocks = 0;   ///< terminal deadlock states
    std::size_t failedSteps = 0; ///< trapped assertions/panics
    unsigned maxDepth = 0;       ///< BFS radius of the space
    bool complete = true;        ///< false if maxStates was hit

    std::vector<Counterexample> counterexamples;
    TransitionTable table;
    /** Diff of the extracted table against the declared
     *  proto::ProtocolTable the controllers dispatch through (see
     *  TransitionTable::diffAgainstDeclared). */
    std::vector<ConsistencyFinding> consistency;

    bool clean() const { return counterexamples.empty() && complete; }

    /** True when the extracted table matches the declared one. */
    bool consistent() const { return consistency.empty(); }
};

/** Run the exhaustive exploration. */
ExploreResult explore(const ExploreOptions &opt);

/** Render a counterexample as the replayable text format
 *  (`# cosmos-model-counterexample-v1`). */
std::string formatCounterexample(const ModelConfig &mc,
                                 const Counterexample &ce);

/** Write @p ce to @p path; returns false on I/O error. */
bool writeCounterexample(const std::string &path, const ModelConfig &mc,
                         const Counterexample &ce);

} // namespace cosmos::model

#endif // COSMOS_MODEL_EXPLORER_HH
