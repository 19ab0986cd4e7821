/**
 * @file
 * Binary serialization of coherence-message traces, so expensive
 * simulations can be captured once and replayed through predictors.
 */

#ifndef COSMOS_TRACE_TRACE_IO_HH
#define COSMOS_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <optional>
#include <string>

#include "trace/trace.hh"

namespace cosmos::trace
{

/** Write @p t to @p os in the cosmos binary trace format. */
void writeTrace(std::ostream &os, const Trace &t);

/**
 * Where and why a trace parse failed. A truncated download and a
 * corrupt record byte produce very different offsets; reporting the
 * exact failing position turns "malformed trace" into something a
 * user can act on (compare against the file size, hexdump the spot).
 */
struct ReadDiagnostic
{
    /** Byte offset of the field whose read or validation failed
     *  (== bytes successfully consumed before it). */
    std::uint64_t offset = 0;

    /** What was wrong there; empty when no failure occurred. */
    std::string reason;

    /** `<name>: <reason> at byte offset <offset>`. */
    std::string format(const std::string &name) const;
};

/**
 * Read a trace from @p is; panics on a malformed stream. @p name
 * labels the source (file path) in the panic diagnostic, which
 * includes the byte offset of the failure.
 */
Trace readTrace(std::istream &is, const std::string &name = "<stream>");

/**
 * Read a trace from @p is; nullopt on a truncated, corrupt, or
 * implausible stream. The recoverable twin of readTrace() for user
 * input, which must not abort on a bad file. When
 * @p diag is non-null, a failure fills it with the byte offset and
 * reason.
 */
std::optional<Trace> tryReadTrace(std::istream &is,
                                  ReadDiagnostic *diag = nullptr);

/** File-path convenience wrappers (fatal on I/O failure). */
void saveTrace(const std::string &path, const Trace &t);
Trace loadTrace(const std::string &path);

} // namespace cosmos::trace

#endif // COSMOS_TRACE_TRACE_IO_HH
