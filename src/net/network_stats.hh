/**
 * @file
 * Aggregate interconnect statistics.
 */

#ifndef COSMOS_NET_NETWORK_STATS_HH
#define COSMOS_NET_NETWORK_STATS_HH

#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"
#include "obs/metrics.hh"

namespace cosmos::net
{

/**
 * Counters kept by Network, independent of payload type.
 *
 * The latency histogram buckets end-to-end remote delivery latency
 * in ticks. Everything here is a pure function of the simulated run,
 * so the published metrics are stable across hosts and thread counts.
 */
struct NetworkStats
{
    std::uint64_t remoteMessages = 0;
    std::uint64_t localMessages = 0;
    Tick totalLatency = 0;

    /** End-to-end remote latency in ticks. */
    Histogram latency;

    /** Messages sent but not yet delivered (local + remote). */
    std::int64_t inFlight = 0;
    std::int64_t maxInFlight = 0;

    /** Record one remote send arriving @p lat ticks after issue. */
    void recordRemote(Tick lat);

    /** Track the send side of the in-flight level. */
    void
    recordInFlightSend()
    {
        ++inFlight;
        if (inFlight > maxInFlight)
            maxInFlight = inFlight;
    }

    /** Track the delivery side of the in-flight level. */
    void recordDelivered() { --inFlight; }

    /** Publish under "<prefix>." (counters, in-flight gauge, latency
     *  histogram). */
    void publishMetrics(obs::Registry &reg,
                        const std::string &prefix) const;

    /** Mean end-to-end latency of remote messages, in ticks. */
    double meanLatency() const;

    /** Human-readable one-liner. */
    std::string format() const;

  private:
    /** The tick-latency bucket layout shared by every histogram. */
    static Histogram latencyLayout();
};

} // namespace cosmos::net

#endif // COSMOS_NET_NETWORK_STATS_HH
