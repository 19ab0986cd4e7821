#include "trace/trace_io.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/log.hh"

namespace cosmos::trace
{

namespace
{

constexpr std::uint32_t trace_magic = 0xc0530501; // "cosmos" v1

template <typename T>
void
put(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

/**
 * Checked reader over a binary stream. A failed or implausible read
 * latches ok = false; subsequent gets return zeroes, so a parse can
 * run to completion and be judged once at the end. The first failure
 * records its byte offset and reason for the caller's diagnostic.
 */
struct Reader
{
    std::istream &is;
    bool ok = true;
    std::uint64_t offset = 0; ///< bytes successfully consumed
    ReadDiagnostic diag{};

    /** Latch the first failure with the position it happened at. */
    void
    fail(const std::string &reason)
    {
        if (!ok)
            return;
        ok = false;
        diag.offset = offset;
        diag.reason = reason;
    }

    template <typename T>
    T
    get(const char *what)
    {
        T v{};
        if (!ok)
            return v;
        is.read(reinterpret_cast<char *>(&v), sizeof(v));
        if (!is) {
            fail("truncated while reading " + std::string(what) +
                 " (" + std::to_string(is.gcount()) + " of " +
                 std::to_string(sizeof(v)) + " bytes available)");
        } else {
            offset += sizeof(v);
        }
        return v;
    }

    std::string
    getString(const char *what)
    {
        const auto n = get<std::uint32_t>("length of string");
        if (!ok)
            return {};
        if (n > (1u << 20)) {
            fail("implausible " + std::string(what) + " length " +
                 std::to_string(n));
            return {};
        }
        std::string s(n, '\0');
        is.read(s.data(), n);
        if (!is) {
            fail("truncated while reading " + std::string(what) +
                 " (" + std::to_string(is.gcount()) + " of " +
                 std::to_string(n) + " bytes available)");
            return {};
        }
        offset += n;
        return s;
    }
};

void
putString(std::ostream &os, const std::string &s)
{
    put<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

} // namespace

void
writeTrace(std::ostream &os, const Trace &t)
{
    put(os, trace_magic);
    putString(os, t.app);
    put(os, t.numNodes);
    put(os, t.blockBytes);
    put(os, t.iterations);
    put(os, t.seed);
    put<std::uint64_t>(os, t.records.size());
    for (const auto &r : t.records) {
        put(os, r.block);
        put(os, r.when);
        put(os, r.receiver);
        put(os, r.sender);
        put(os, static_cast<std::uint8_t>(r.type));
        put(os, static_cast<std::uint8_t>(r.role));
        put(os, r.iteration);
    }
}

std::string
ReadDiagnostic::format(const std::string &name) const
{
    return name + ": " + (reason.empty() ? "malformed trace" : reason) +
           " at byte offset " + std::to_string(offset);
}

std::optional<Trace>
tryReadTrace(std::istream &is, ReadDiagnostic *diag)
{
    Reader in{is};
    const auto report = [&]() -> std::optional<Trace> {
        if (diag != nullptr)
            *diag = in.diag;
        return std::nullopt;
    };
    if (in.get<std::uint32_t>("magic") != trace_magic || !in.ok) {
        if (in.ok) {
            in.offset = 0; // the foreign bytes start at the top
            in.fail("bad magic (not a cosmos trace file)");
        }
        return report();
    }
    Trace t;
    t.app = in.getString("app name");
    t.numNodes = in.get<NodeId>("node count");
    t.blockBytes = in.get<unsigned>("block size");
    t.iterations = in.get<std::int32_t>("iteration count");
    t.seed = in.get<std::uint64_t>("seed");
    const auto n = in.get<std::uint64_t>("record count");
    if (!in.ok)
        return report();
    // Cap the up-front reservation: a corrupt count would otherwise
    // ask for terabytes before the record reads fail.
    t.records.reserve(
        static_cast<std::size_t>(std::min<std::uint64_t>(n, 1u << 22)));
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t at = in.offset;
        TraceRecord r;
        r.block = in.get<Addr>("record block address");
        r.when = in.get<Tick>("record timestamp");
        r.receiver = in.get<NodeId>("record receiver");
        r.sender = in.get<NodeId>("record sender");
        r.type = static_cast<proto::MsgType>(
            in.get<std::uint8_t>("record message type"));
        r.role = static_cast<proto::Role>(
            in.get<std::uint8_t>("record role"));
        r.iteration = in.get<std::int32_t>("record iteration");
        if (!in.ok) {
            in.diag.reason = "record " + std::to_string(i) + " of " +
                             std::to_string(n) + ": " + in.diag.reason;
            return report();
        }
        if (static_cast<unsigned>(r.type) >= proto::num_msg_types ||
            static_cast<std::uint8_t>(r.role) > 1) {
            in.offset = at;
            in.fail("record " + std::to_string(i) + " of " +
                    std::to_string(n) + " has an invalid message "
                    "type or role");
            return report();
        }
        t.records.push_back(r);
    }
    return t;
}

Trace
readTrace(std::istream &is, const std::string &name)
{
    ReadDiagnostic diag;
    auto t = tryReadTrace(is, &diag);
    if (!t)
        cosmos_panic("malformed trace stream: ", diag.format(name));
    return std::move(*t);
}

void
saveTrace(const std::string &path, const Trace &t)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        cosmos_fatal("cannot open trace file for writing: ", path);
    writeTrace(os, t);
    if (!os)
        cosmos_fatal("error writing trace file: ", path);
}

Trace
loadTrace(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        cosmos_fatal("cannot open trace file: ", path);
    return readTrace(is, path);
}

} // namespace cosmos::trace
