/**
 * @file
 * Protocol-level tests of streaming partial replies: partial frames
 * arrive in strict point order and concatenate byte-identically to
 * the monolithic reply, a request carrying "resume_from" is a
 * bad_request, and a client that hangs up mid-stream and replays
 * the request on a new connection gets the same bytes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"

namespace
{

using namespace printed;
using namespace printed::service;

SweepSpec
fourPointSpec()
{
    SweepSpec spec;
    spec.stages = {1, 2};
    spec.widths = {4, 8};
    spec.bars = {2};
    return spec;
}

/** A classify search small enough to stream in a few hundred ms:
 *  3 generations -> a 4-point stream (3 summaries + the front). */
ml::ClassifySpec
streamClassifySpec()
{
    ml::ClassifySpec spec;
    spec.dataset.features = 2;
    spec.dataset.classes = 2;
    spec.dataset.bits = 4;
    spec.dataset.train = 48;
    spec.dataset.holdout = 32;
    spec.depth = 2;
    spec.search.generations = 3;
    spec.search.population = 4;
    return spec;
}

TEST(Streaming, PartialsArriveInOrderAndReassembleByteExactly)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    const SweepSpec spec = fourPointSpec();
    const std::string monolithic =
        client.call(sweepRequest("w", spec));
    ASSERT_TRUE(parseReply(monolithic).ok) << monolithic;

    client.send(sweepStreamRequest("w", spec));
    std::vector<std::string> points;
    for (;;) {
        const StreamFrame frame = classifyFrame(client.readLine());
        if (frame.kind == StreamFrame::Kind::Partial) {
            EXPECT_EQ(frame.id, "w");
            EXPECT_EQ(frame.index, points.size());
            EXPECT_EQ(frame.total, 4u);
            points.push_back(frame.pointBody);
            continue;
        }
        ASSERT_EQ(frame.kind, StreamFrame::Kind::Done);
        EXPECT_EQ(frame.points, 4u);
        break;
    }
    ASSERT_EQ(points.size(), 4u);

    // Concatenating the streamed point bodies reproduces the PR 5
    // monolithic reply byte-for-byte.
    EXPECT_EQ(assembleStreamedReply("w", RequestType::Sweep, points),
              monolithic);
}

TEST(Streaming, YieldStreamsAsAOnePointStream)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    const CoreConfig cfg = CoreConfig::standard(1, 4, 2);
    const std::string monolithic =
        client.call(yieldRequest("y", cfg, 24, 7));
    ASSERT_TRUE(parseReply(monolithic).ok) << monolithic;

    client.send(yieldStreamRequest("y", cfg, 24, 7));
    const StreamFrame partial = classifyFrame(client.readLine());
    ASSERT_EQ(partial.kind, StreamFrame::Kind::Partial);
    EXPECT_EQ(partial.index, 0u);
    EXPECT_EQ(partial.total, 1u);
    const StreamFrame done = classifyFrame(client.readLine());
    ASSERT_EQ(done.kind, StreamFrame::Kind::Done);
    EXPECT_EQ(done.points, 1u);

    EXPECT_EQ(assembleStreamedReply("y", RequestType::Yield,
                                    {partial.pointBody}),
              monolithic);
}

TEST(Streaming, ClassifyStreamReassemblesByteExactly)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    const ml::ClassifySpec spec = streamClassifySpec();
    const std::string monolithic =
        client.call(classifyRequest("c", spec));
    ASSERT_TRUE(parseReply(monolithic).ok) << monolithic;

    client.send(classifyStreamRequest("c", spec));
    std::vector<std::string> points;
    for (;;) {
        const StreamFrame frame = classifyFrame(client.readLine());
        if (frame.kind == StreamFrame::Kind::Partial) {
            EXPECT_EQ(frame.id, "c");
            EXPECT_EQ(frame.index, points.size());
            EXPECT_EQ(frame.total, 4u);
            points.push_back(frame.pointBody);
            continue;
        }
        ASSERT_EQ(frame.kind, StreamFrame::Kind::Done);
        EXPECT_EQ(frame.points, 4u);
        break;
    }
    ASSERT_EQ(points.size(), 4u);

    // Generation summaries stream first, the Pareto front last, and
    // reassembly reproduces the monolithic reply byte-for-byte.
    EXPECT_NE(points[0].find("\"generation\": 0"),
              std::string::npos);
    EXPECT_NE(points[3].find("\"front\""), std::string::npos);
    EXPECT_EQ(
        assembleStreamedReply("c", RequestType::Classify, points),
        monolithic);
}

/** `line` (a request ending in '}') with `"resume_from": from`. */
std::string
withResumeFrom(std::string line, std::uint64_t from)
{
    line.pop_back();
    return line + ", \"resume_from\": " + std::to_string(from) + "}";
}

TEST(Streaming, ResumePastThePlanIsBadRequest)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    // "resume_from" answers bad_request wherever it points: inside
    // the plan, one past the last point of each streamable plan (a
    // 4-point sweep, a 1-point yield, a 4-point classify), or on a
    // monolithic line.
    const std::string lines[] = {
        "{\"id\":\"r\",\"type\":\"sweep\",\"stream\":true,"
        "\"resume_from\":1}",
        withResumeFrom(sweepStreamRequest("s", fourPointSpec()), 5),
        withResumeFrom(
            yieldStreamRequest("y", CoreConfig::standard(1, 4, 2), 24, 7),
            2),
        withResumeFrom(classifyStreamRequest("c", streamClassifySpec()),
                       5),
        withResumeFrom(sweepRequest("m", fourPointSpec()), 0),
    };
    for (const std::string &line : lines) {
        const Reply reply = parseReply(client.call(line));
        EXPECT_FALSE(reply.ok) << line;
        EXPECT_EQ(reply.error, errc::badRequest) << reply.raw;
    }
    // The connection still serves.
    EXPECT_TRUE(parseReply(client.call(sweepRequest("w", fourPointSpec())))
                    .ok);
}

TEST(Streaming, FrameRenderersAndClassifierRoundTrip)
{
    const std::string partial = partialFrame(
        "id-1", RequestType::Sweep, 3, 24, "{\"gates\": 9}");
    const StreamFrame pf = classifyFrame(partial);
    EXPECT_EQ(pf.kind, StreamFrame::Kind::Partial);
    EXPECT_EQ(pf.id, "id-1");
    EXPECT_EQ(pf.index, 3u);
    EXPECT_EQ(pf.total, 24u);
    EXPECT_EQ(pf.pointBody, "{\"gates\": 9}");

    const StreamFrame df =
        classifyFrame(doneFrame("id-1", RequestType::Sweep, 24));
    EXPECT_EQ(df.kind, StreamFrame::Kind::Done);
    EXPECT_EQ(df.points, 24u);

    // Monolithic and error replies classify as Final.
    EXPECT_EQ(classifyFrame(
                  okReply("x", RequestType::Synth, "{\"g\": 1}"))
                  .kind,
              StreamFrame::Kind::Final);
    EXPECT_EQ(classifyFrame(errorReply("x", errc::queueFull, "no"))
                  .kind,
              StreamFrame::Kind::Final);
}

TEST(Streaming, FrameWithAnOutOfRangeCountIsFinal)
{
    // A count that is negative, fractional or above 2^53 - 1 makes a
    // frame malformed, like a missing one: it ends the exchange.
    const std::string head =
        "{\"id\": \"s\", \"ok\": true, \"type\": \"sweep\", ";
    for (const std::string bad :
         {"1e300", "-1", "18446744073709551616", "2.5"}) {
        for (const std::string &line :
             {head + "\"partial\": {\"index\": " + bad +
                  ", \"total\": 4, \"point\": {\"gates\": 9}}}",
              head + "\"partial\": {\"index\": 0, \"total\": " + bad +
                  ", \"point\": {\"gates\": 9}}}",
              head + "\"done\": {\"points\": " + bad + "}}"})
            EXPECT_EQ(classifyFrame(line).kind, StreamFrame::Kind::Final)
                << line;
    }
    // The same frames with in-range counts classify as before.
    EXPECT_EQ(classifyFrame(head + "\"partial\": {\"index\": 3, "
                                   "\"total\": 4, \"point\": "
                                   "{\"gates\": 9}}}")
                  .kind,
              StreamFrame::Kind::Partial);
    EXPECT_EQ(classifyFrame(head + "\"done\": {\"points\": 4}}").kind,
              StreamFrame::Kind::Done);
}

TEST(Streaming, RequestLineRoundTripsThroughTheParser)
{
    const std::string line = sweepStreamRequest("s", fourPointSpec(), 5000);
    const Request req = parseRequest(line);
    EXPECT_TRUE(req.stream);
    EXPECT_EQ(req.deadlineMs, 5000);
    EXPECT_EQ(requestLine(req), line);

    const Request mono = parseRequest(sweepRequest("s", fourPointSpec()));
    EXPECT_FALSE(mono.stream);
}

/**
 * A stream cut by its client: send `line`, hang up after `cut`
 * partial frames, then send `line` again on a new connection and
 * read the whole stream. Returns the replayed point bodies, which
 * must arrive in index order.
 */
std::vector<std::string>
replayAfterHangUp(std::uint16_t port, std::uint64_t cut,
                  std::uint64_t total, const std::string &line)
{
    {
        Client first("127.0.0.1", port);
        first.send(line);
        for (std::uint64_t i = 0; i < cut; ++i) {
            const StreamFrame f = classifyFrame(first.readLine());
            if (f.kind != StreamFrame::Kind::Partial) {
                ADD_FAILURE() << "stream ended after " << i;
                return {};
            }
            EXPECT_EQ(f.index, i);
        }
    } // hang up mid-stream
    Client second("127.0.0.1", port);
    second.send(line);
    std::vector<std::string> points;
    for (;;) {
        const StreamFrame f = classifyFrame(second.readLine());
        if (f.kind != StreamFrame::Kind::Partial) {
            EXPECT_EQ(f.kind, StreamFrame::Kind::Done);
            EXPECT_EQ(f.points, total);
            return points;
        }
        EXPECT_EQ(f.index, points.size()); // no duplicate, no gap
        EXPECT_EQ(f.total, total);
        points.push_back(f.pointBody);
    }
}

/**
 * Check that a client hanging up mid-stream leaves the server
 * serving and that replaying `stream` reassembles to the reply of
 * `monolithic` (the determinism rule), for every cut from before the
 * first of the four partials to before the last.
 */
void
expectCutStreamsReplay(RequestType type, const std::string &id,
                       const std::string &monolithic,
                       const std::string &stream)
{
    Server server;
    server.start();
    const std::string expected =
        Client("127.0.0.1", server.port()).call(monolithic);
    ASSERT_TRUE(parseReply(expected).ok) << expected;
    for (std::uint64_t cut = 0; cut < 4; ++cut) {
        const std::vector<std::string> points =
            replayAfterHangUp(server.port(), cut, 4, stream);
        EXPECT_EQ(assembleStreamedReply(id, type, points), expected)
            << id << " cut " << cut;
    }
}

TEST(Streaming, MidStreamDisconnectResumesWithoutDupOrDrop)
{
    const SweepSpec spec = fourPointSpec();
    expectCutStreamsReplay(RequestType::Sweep, "w",
                           sweepRequest("w", spec),
                           sweepStreamRequest("w", spec));
}

TEST(Streaming, ClassifyMidSearchDisconnectResumesWithoutDupOrDrop)
{
    const ml::ClassifySpec search = streamClassifySpec();
    expectCutStreamsReplay(RequestType::Classify, "c",
                           classifyRequest("c", search),
                           classifyStreamRequest("c", search));
}

} // namespace
