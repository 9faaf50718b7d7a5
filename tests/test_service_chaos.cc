/**
 * @file
 * Fault-injection (chaos) tests of the printedd service: a server
 * deliberately misbehaving per a seeded FaultPlan must not cost a
 * retrying client a single reply — zero lost, zero duplicated,
 * every reply byte-identical to a clean server's. Plus an EINTR
 * signal-storm regression test for the socket I/O loops.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>

#include "common/metrics.hh"
#include "service/client.hh"
#include "service/fault_plan.hh"
#include "service/protocol.hh"
#include "service/server.hh"

namespace
{

using namespace printed;
using namespace printed::service;

CoreConfig
smallConfig()
{
    return CoreConfig::standard(1, 4, 2);
}

/** The compute workload both halves of a comparison test issue. */
std::vector<std::string>
chaosRequests()
{
    std::vector<std::string> reqs;
    reqs.push_back(synthRequest("s4", smallConfig()));
    reqs.push_back(
        synthRequest("s8", CoreConfig::standard(1, 8, 2)));
    reqs.push_back(yieldRequest("y", smallConfig(), 24, 7));
    SweepSpec spec;
    spec.stages = {1};
    spec.widths = {4, 8};
    spec.bars = {2};
    reqs.push_back(sweepRequest("w", spec));
    return reqs;
}

/** Reference reply lines from a clean (fault-free) server. */
std::map<std::string, std::string>
referenceReplies(const std::vector<std::string> &requests)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());
    std::map<std::string, std::string> ref;
    for (const std::string &req : requests) {
        const std::string raw = client.call(req);
        ref[parseReply(raw).id] = raw;
    }
    return ref;
}

std::uint64_t
faultTotal()
{
    return metrics::counter("service.fault.drops").value() +
           metrics::counter("service.fault.truncates").value() +
           metrics::counter("service.fault.delays").value() +
           metrics::counter("service.fault.queue_fulls").value();
}

TEST(ServiceChaos, RetryingClientSurvivesSeededFaults)
{
    const std::vector<std::string> requests = chaosRequests();
    const std::map<std::string, std::string> ref =
        referenceReplies(requests);

    ServerOptions opts;
    opts.faultPlan = FaultPlan::parse(
        "seed=42,drop=0.2,truncate=0.2,delay=0.1:5,queue_full=0.2");
    Server server(opts);
    server.start();

    RetryPolicy policy;
    policy.maxLossRetries = 12;
    policy.maxOverloadRetries = 100;
    policy.callTimeoutMs = 20000;
    policy.baseBackoffMs = 1;
    policy.maxBackoffMs = 20;
    policy.jitterSeed = 7;
    RetryingClient client("127.0.0.1", server.port(), policy);

    const std::uint64_t faultsBefore = faultTotal();

    // Several rounds of the full workload: every call must return
    // exactly one reply (zero lost — call() never swallows one;
    // zero duplicated — a replayed request replaces, never appends)
    // and the bytes must equal the clean server's.
    constexpr unsigned kRounds = 6;
    std::size_t replies = 0;
    for (unsigned round = 0; round < kRounds; ++round) {
        for (const std::string &req : requests) {
            const std::string raw = client.call(req);
            const Reply parsed = parseReply(raw);
            ASSERT_TRUE(parsed.ok) << raw;
            ASSERT_EQ(raw, ref.at(parsed.id));
            ++replies;
        }
    }
    EXPECT_EQ(replies, kRounds * requests.size());

    // The chaos has to have actually happened, and the client must
    // have actually healed (not merely never been hurt).
    EXPECT_GT(faultTotal(), faultsBefore);
    const RetryStats &rs = client.stats();
    EXPECT_GT(rs.lossReplays + rs.overloadReplays +
                  rs.timeoutReplays,
              0u);
}

// ---------------------------------------------------------------
// EINTR / partial-I/O regression (the signal-storm test)
// ---------------------------------------------------------------

void
noopHandler(int)
{
}

TEST(ServiceChaos, SocketLoopsSurviveSignalStorm)
{
    // Install a SIGUSR1 handler *without* SA_RESTART, so every
    // blocking send/recv/poll in the storm thread is interrupted
    // with EINTR instead of transparently restarted — the exact
    // condition the netio helpers must absorb.
    struct sigaction sa{};
    struct sigaction old{};
    sa.sa_handler = noopHandler;
    ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

    Server server;
    server.start();

    const std::vector<std::string> requests = chaosRequests();
    const std::map<std::string, std::string> ref =
        referenceReplies(requests);

    std::atomic<bool> done{false};
    std::string failure;
    std::thread storm([&] {
        try {
            Client client("127.0.0.1", server.port());
            for (unsigned round = 0; round < 8; ++round) {
                for (const std::string &req : requests) {
                    const std::string raw = client.call(req);
                    const Reply parsed = parseReply(raw);
                    if (raw != ref.at(parsed.id)) {
                        failure = "mismatched reply: " + raw;
                        break;
                    }
                }
            }
        } catch (const std::exception &e) {
            failure = e.what();
        }
        done.store(true);
    });

    // Pepper the client thread with signals while it works.
    while (!done.load()) {
        pthread_kill(storm.native_handle(), SIGUSR1);
        std::this_thread::sleep_for(
            std::chrono::microseconds(200));
    }
    storm.join();
    sigaction(SIGUSR1, &old, nullptr);
    EXPECT_TRUE(failure.empty()) << failure;
}

} // namespace
