/**
 * @file
 * Unit tests of trace capture and serialization: recorder filtering,
 * summary queries, and binary round-tripping.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "trace/trace.hh"
#include "trace/trace_io.hh"

namespace cosmos::trace
{
namespace
{

proto::Msg
msg(proto::MsgType t, NodeId src, NodeId dst, Addr block)
{
    proto::Msg m;
    m.type = t;
    m.src = src;
    m.dst = dst;
    m.block = block;
    m.requester = src;
    return m;
}

TEST(TraceRecorder, RecordsRoleAndIteration)
{
    Trace t;
    TraceRecorder rec(t, 0);
    rec.onMessage(msg(proto::MsgType::get_ro_request, 1, 2, 0x40),
                  proto::Role::directory, 3, 777);
    ASSERT_EQ(t.records.size(), 1u);
    EXPECT_EQ(t.records[0].sender, 1);
    EXPECT_EQ(t.records[0].receiver, 2);
    EXPECT_EQ(t.records[0].block, 0x40u);
    EXPECT_EQ(t.records[0].role, proto::Role::directory);
    EXPECT_EQ(t.records[0].iteration, 3);
    EXPECT_EQ(t.records[0].when, 777u);
}

TEST(TraceRecorder, DropsWarmupIterations)
{
    Trace t;
    TraceRecorder rec(t, 2);
    for (int iter = 0; iter < 5; ++iter) {
        rec.onMessage(msg(proto::MsgType::get_ro_request, 0, 1, 0),
                      proto::Role::directory, iter, 0);
    }
    EXPECT_EQ(t.records.size(), 3u);
    EXPECT_EQ(rec.dropped(), 2u);
    EXPECT_EQ(t.records.front().iteration, 2);
}

TEST(Trace, SummaryQueries)
{
    Trace t;
    TraceRecorder rec(t, 0);
    rec.onMessage(msg(proto::MsgType::get_ro_request, 0, 1, 0x0),
                  proto::Role::directory, 0, 0);
    rec.onMessage(msg(proto::MsgType::get_ro_response, 1, 0, 0x0),
                  proto::Role::cache, 0, 0);
    rec.onMessage(msg(proto::MsgType::get_rw_response, 1, 0, 0x40),
                  proto::Role::cache, 0, 0);
    EXPECT_EQ(t.cacheRecords(), 2u);
    EXPECT_EQ(t.directoryRecords(), 1u);
    EXPECT_EQ(t.distinctBlocks(), 2u);
}

TEST(TraceIo, RoundTripsEverything)
{
    Trace t;
    t.app = "unit";
    t.numNodes = 16;
    t.blockBytes = 64;
    t.iterations = 7;
    t.seed = 0xdeadbeef;
    for (int i = 0; i < 100; ++i) {
        TraceRecord r;
        r.block = static_cast<Addr>(i) * 64;
        r.when = static_cast<Tick>(i) * 13;
        r.receiver = static_cast<NodeId>(i % 16);
        r.sender = static_cast<NodeId>((i + 5) % 16);
        r.type = static_cast<proto::MsgType>(i % 12);
        r.role = proto::receiverRole(r.type);
        r.iteration = i / 10;
        t.records.push_back(r);
    }

    std::stringstream ss;
    writeTrace(ss, t);
    const Trace back = readTrace(ss);
    EXPECT_EQ(back.app, t.app);
    EXPECT_EQ(back.numNodes, t.numNodes);
    EXPECT_EQ(back.blockBytes, t.blockBytes);
    EXPECT_EQ(back.iterations, t.iterations);
    EXPECT_EQ(back.seed, t.seed);
    EXPECT_EQ(back.records, t.records);
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    Trace t;
    t.app = "empty";
    std::stringstream ss;
    writeTrace(ss, t);
    const Trace back = readTrace(ss);
    EXPECT_EQ(back.app, "empty");
    EXPECT_TRUE(back.records.empty());
}

TEST(TraceIoDeathTest, BadMagicPanics)
{
    std::stringstream ss;
    ss << "this is not a trace file";
    EXPECT_DEATH(readTrace(ss), "malformed");
}

TEST(TraceIoDeathTest, TruncatedStreamPanics)
{
    Trace t;
    t.app = "x";
    TraceRecord r;
    t.records.push_back(r);
    std::stringstream ss;
    writeTrace(ss, t);
    std::string bytes = ss.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream cut(bytes);
    EXPECT_DEATH(readTrace(cut), "malformed");
}

TEST(TraceIo, TryReadRecoversFromMalformedStreams)
{
    // Bad magic.
    std::stringstream junk("this is not a trace file");
    EXPECT_FALSE(tryReadTrace(junk).has_value());

    Trace t;
    t.app = "x";
    TraceRecord r;
    r.type = proto::MsgType::get_ro_request;
    t.records.push_back(r);
    std::stringstream ss;
    writeTrace(ss, t);
    const std::string bytes = ss.str();

    // Truncation at every prefix length must be survivable.
    for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
        std::stringstream s(bytes.substr(0, cut));
        EXPECT_FALSE(tryReadTrace(s).has_value());
    }

    // A short read in the second record: the count promises two
    // records, and the first of them parsed.
    Trace two = t;
    two.records.push_back(r);
    std::stringstream ts;
    writeTrace(ts, two);
    const std::string twoBytes = ts.str();
    std::stringstream midSecond(twoBytes.substr(0, twoBytes.size() - 9));
    EXPECT_FALSE(tryReadTrace(midSecond).has_value());

    // An out-of-range message type byte is rejected, not trusted.
    std::string corrupt = bytes;
    corrupt[corrupt.size() - 6] = '\x7f'; // type byte of the record
    std::stringstream cs(corrupt);
    EXPECT_FALSE(tryReadTrace(cs).has_value());

    // The intact stream still parses.
    std::stringstream good(bytes);
    const auto back = tryReadTrace(good);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->records, t.records);
}

TEST(TraceIo, DiagnosticsCarryOffsetAndReason)
{
    Trace t;
    t.app = "diag";
    TraceRecord r;
    r.type = proto::MsgType::get_ro_request;
    t.records.push_back(r);
    std::stringstream ss;
    writeTrace(ss, t);
    const std::string bytes = ss.str();

    // Bad magic fails at offset 0 and says the file is foreign.
    ReadDiagnostic diag;
    std::stringstream junk("zzzz not a trace");
    EXPECT_FALSE(tryReadTrace(junk, &diag).has_value());
    EXPECT_EQ(diag.offset, 0u);
    EXPECT_NE(diag.reason.find("bad magic"), std::string::npos)
        << diag.reason;

    // Truncation inside the header points past the 4-byte magic and
    // names the missing bytes.
    std::stringstream cut(bytes.substr(0, 6));
    EXPECT_FALSE(tryReadTrace(cut, &diag).has_value());
    EXPECT_EQ(diag.offset, 4u);
    EXPECT_NE(diag.reason.find("truncated"), std::string::npos)
        << diag.reason;

    // Truncation inside a record names the record index.
    std::stringstream mid(bytes.substr(0, bytes.size() - 3));
    EXPECT_FALSE(tryReadTrace(mid, &diag).has_value());
    EXPECT_NE(diag.reason.find("record 0 of 1"), std::string::npos)
        << diag.reason;

    // format() stitches in the source name for user-facing errors.
    const std::string msg = diag.format("foo.trace");
    EXPECT_NE(msg.find("foo.trace"), std::string::npos);
    EXPECT_NE(msg.find("byte offset"), std::string::npos);
}

TEST(TraceIoDeathTest, LoadTracePanicsWithPathAndOffset)
{
    namespace fs = std::filesystem;
    const std::string dir =
        ::testing::TempDir() + "/cosmos_diag_trace";
    fs::create_directories(dir);
    const std::string path = dir + "/cut.trace";

    Trace t;
    t.app = "diag";
    TraceRecord r;
    r.type = proto::MsgType::get_ro_request;
    t.records.push_back(r);
    std::stringstream ss;
    writeTrace(ss, t);
    const std::string bytes = ss.str();
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size() - 5));
    os.close();
    EXPECT_DEATH(loadTrace(path),
                 "malformed.*cut\\.trace.*byte offset");
    fs::remove_all(dir);
}

TEST(TraceIo, FileSaveAndLoad)
{
    Trace t;
    t.app = "file";
    TraceRecord r;
    r.block = 0x1234;
    r.type = proto::MsgType::upgrade_request;
    r.role = proto::Role::directory;
    t.records.push_back(r);

    const std::string path = ::testing::TempDir() + "/cosmos.trace";
    saveTrace(path, t);
    const Trace back = loadTrace(path);
    EXPECT_EQ(back.records, t.records);
    std::remove(path.c_str());
}

} // namespace
} // namespace cosmos::trace
