#include "net/network_stats.hh"

#include <sstream>

namespace cosmos::net
{

Histogram
NetworkStats::latencyLayout()
{
    // Remote latency is 2*NI + wire plus channel-FIFO backpressure;
    // powers of two from 1 to 2048 ticks cover the paper's Table 3
    // machine with headroom for congested channels.
    return Histogram::exponential(1.0, 2.0, 12);
}

void
NetworkStats::recordRemote(Tick lat)
{
    remoteMessages++;
    totalLatency += lat;
    if (latency.bounds().empty())
        latency = latencyLayout();
    latency.record(static_cast<double>(lat));
}

void
NetworkStats::publishMetrics(obs::Registry &reg,
                             const std::string &prefix) const
{
    reg.counter(prefix + ".remote_messages").add(remoteMessages);
    reg.counter(prefix + ".local_messages").add(localMessages);
    reg.counter(prefix + ".total_latency_ticks").add(totalLatency);
    auto &inflight = reg.gauge(prefix + ".in_flight");
    inflight.set(maxInFlight);
    inflight.set(inFlight);
    reg.histogram(prefix + ".latency_ticks", latencyLayout())
        .merge(latency);
}

double
NetworkStats::meanLatency() const
{
    return remoteMessages == 0
               ? 0.0
               : static_cast<double>(totalLatency) /
                     static_cast<double>(remoteMessages);
}

std::string
NetworkStats::format() const
{
    std::ostringstream os;
    os << "remote=" << remoteMessages << " local=" << localMessages
       << " mean_latency=" << meanLatency() << "ns";
    if (latency.count() > 0) {
        os << " p50=" << latency.percentile(0.5)
           << " p99=" << latency.percentile(0.99);
    }
    return os.str();
}

} // namespace cosmos::net
