/**
 * @file
 * Deterministic fault-injection harness for printedd.
 *
 * A FaultPlan describes a seeded schedule of server-side faults —
 * the failure modes a client of printedd must survive:
 *
 *   drop        close the connection instead of sending a compute
 *               reply (the reply is lost after the work was done)
 *   truncate    send only a prefix of the reply frame, then close
 *               (a torn frame the client must not mis-parse)
 *   delay       sleep before sending (a slow peer; exercises the
 *               client's poll-based call deadlines)
 *   queue_full  reject an admissible compute request with
 *               queue_full + retry_after_ms (forced overload)
 *
 * Faults apply to *compute* traffic only: admin replies (metrics /
 * health / shutdown) and parse-error replies are exempt, so the
 * control plane stays usable while the data plane misbehaves.
 *
 * Determinism: decisions come from one SplitMix64 stream seeded by
 * the plan, so a given (plan, request schedule) replays the same
 * fault pattern — CI failures reproduce locally with the same
 * spec string.
 *
 * Spec syntax (printedd --fault-plan / PRINTEDD_FAULT_PLAN):
 *
 *   seed=42,drop=0.05,truncate=0.05,delay=0.1:20,queue_full=0.1
 *
 * where delay=RATE:MS and every RATE is a probability in [0, 1].
 */

#ifndef PRINTED_SERVICE_FAULT_PLAN_HH
#define PRINTED_SERVICE_FAULT_PLAN_HH

#include <cstdint>
#include <mutex>
#include <string>

#include "common/metrics.hh"
#include "common/rng.hh"

namespace printed::service
{

/** Seeded schedule of injected server faults (see file comment). */
struct FaultPlan
{
    std::uint64_t seed = 1;
    double dropRate = 0;
    double truncateRate = 0;
    double delayRate = 0;
    double delayMs = 10;
    double queueFullRate = 0;

    /** Does this plan inject anything at all? */
    bool enabled() const
    {
        return dropRate > 0 || truncateRate > 0 || delayRate > 0 ||
               queueFullRate > 0;
    }

    /**
     * Parse a spec string ("seed=42,drop=0.05,..."). Throws
     * FatalError on unknown keys, bad numbers, or rates outside
     * [0, 1].
     */
    static FaultPlan parse(const std::string &spec);

    /** Canonical one-line description (for logs / banners). */
    std::string describe() const;
};

/**
 * Draws fault decisions from a FaultPlan. Thread-safe: the server's
 * executor and reader threads all consult one injector, which owns
 * the single deterministic decision stream. Each injected fault is
 * counted both internally and in the metrics registry
 * ("service.fault.*"), so harnesses can assert that chaos actually
 * happened.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan);

    /** What to do to one outgoing compute reply. */
    enum class SendFault
    {
        None,
        Drop,
        Truncate,
        Delay
    };

    /**
     * Decide the fate of a compute reply about to be sent.
     * @param delayMsOut filled with the sleep length for Delay.
     */
    SendFault onComputeReply(double &delayMsOut);

    /** Should this admissible compute request be forced out? */
    bool forceQueueFull();

    const FaultPlan &plan() const { return plan_; }

    /** Total faults injected so far (all kinds). */
    std::uint64_t injectedCount() const;

  private:
    /** One uniform draw in [0, 1). */
    double draw();

    FaultPlan plan_;
    std::mutex mutex_;
    Rng rng_;
};

} // namespace printed::service

#endif // PRINTED_SERVICE_FAULT_PLAN_HH
