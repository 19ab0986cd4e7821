#include "tracer.hh"

#include <cstdio>

namespace perfbench
{

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t
Tracer::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

std::int32_t
Tracer::begin(const char *name)
{
    if (!enabled_)
        return -1;
    spans_.push_back({name, nowNs(), 0, open_});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
}

void
Tracer::end(std::int32_t id)
{
    if (id < 0)
        return;
    spans_[id].endNs = nowNs();
    open_ = spans_[id].parent;
}

std::map<std::string, double>
Tracer::selfSecondsByName() const
{
    // Children close before their parent, so each child's duration
    // lies inside its parent's interval and subtracts exactly.
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = 1e-9 * static_cast<double>(spans_[i].endNs -
                                              spans_[i].startNs);
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            self[spans_[i].parent] -=
                1e-9 * static_cast<double>(spans_[i].endNs -
                                           spans_[i].startNs);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i];
    return out;
}

std::map<std::string, double>
Tracer::selfSecondsByLayer() const
{
    std::map<std::string, double> out;
    for (const auto &[name, s] : selfSecondsByName())
        out[name.substr(0, name.find('.'))] += s;
    return out;
}

std::vector<double>
Tracer::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(1e-6 * static_cast<double>(s.endNs - s.startNs));
    return out;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::string name = s.name;
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"cat\": \"%s\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                     "\"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d}}",
                     i == 0 ? "" : ",", s.name,
                     name.substr(0, name.find('.')).c_str(),
                     1e-3 * static_cast<double>(s.startNs),
                     1e-3 * static_cast<double>(s.endNs - s.startNs), i,
                     s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
