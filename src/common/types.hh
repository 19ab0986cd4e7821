/**
 * @file
 * Fundamental scalar types shared by every cosmos module.
 */

#ifndef COSMOS_COMMON_TYPES_HH
#define COSMOS_COMMON_TYPES_HH

#include <cstdint>

namespace cosmos
{

/** Simulation time, in nanoseconds of simulated time. */
using Tick = std::uint64_t;

/** Identifier of a machine node (one processor + cache + directory
 *  slice per node, as in the paper's 16-node target). */
using NodeId = std::uint16_t;

/** A byte address in the simulated global shared-memory space. */
using Addr = std::uint64_t;

/** Identifier of a runtime lock (synchronization is a runtime service,
 *  not coherent shared memory; see DESIGN.md §5). */
using LockId = std::uint32_t;

/** Node-count ceiling: sharer and reader/writer sets are 64-bit
 *  full-map bitmasks indexed by NodeId. */
constexpr NodeId max_machine_nodes = 64;

/** Sentinel for "no node". */
constexpr NodeId invalid_node = static_cast<NodeId>(-1);

/** Sentinel for "no tick scheduled". */
constexpr Tick max_tick = static_cast<Tick>(-1);

} // namespace cosmos

#endif // COSMOS_COMMON_TYPES_HH
