/**
 * @file
 * The coherence rules, stated once.
 *
 * checkBlockCoherence() holds the per-block safety rules of the
 * protocol: single-writer / multiple-reader and directory/cache
 * agreement. The InvariantEngine applies it to the touched block
 * after every delivered message; checkCoherence() applies it to every
 * block the machine knows about at a quiescent point. There is no
 * other coherence checker in the tree: the harness, the tests, the
 * fuzzer and the engine all report through these two functions.
 * (model::checkState judges the model checker's encoded states, which
 * carry an explicit in-flight message pool the live machine lacks.)
 */

#ifndef COSMOS_CHECK_COHERENCE_HH
#define COSMOS_CHECK_COHERENCE_HH

#include <vector>

#include "check/violation.hh"
#include "proto/machine.hh"

namespace cosmos::check
{

/**
 * SWMR and directory agreement for @p block, appending any violation
 * to @p out. SWMR is checked strictly -- exclusivity is granted only
 * after every invalidation ack, so it must hold at every delivery.
 * Directory agreement is skipped while the block is mid-transaction
 * (a transient cache line or a busy directory entry).
 */
void checkBlockCoherence(const proto::Machine &machine, Addr block,
                         Tick when, std::vector<Violation> &out);

/**
 * Whole-machine sweep for a quiescent point (event queue drained):
 * no cache miss or directory entry may still be busy, and every
 * block any cache or directory knows about must pass
 * checkBlockCoherence(). Message conservation is not checked here --
 * it needs the delivery history only the InvariantEngine keeps.
 *
 * @return the violations found; empty means the machine is coherent.
 */
std::vector<Violation> checkCoherence(const proto::Machine &machine);

} // namespace cosmos::check

#endif // COSMOS_CHECK_COHERENCE_HH
