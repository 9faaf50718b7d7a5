/**
 * @file
 * Wire protocol of the printedd evaluation service.
 *
 * Newline-delimited JSON over TCP: every request is one JSON object
 * on one line, every reply is one JSON object on one line. Request
 * types:
 *
 *   {"id":"r1","type":"synth","config":{"stages":1,"width":8,
 *    "bars":2}}
 *       Synthesize + characterize one CoreConfig (through the
 *       process-wide SynthCache) and return gates/area/power/delay
 *       in both technologies.
 *
 *   {"id":"r2","type":"yield","config":{...},"trials":256,
 *    "seed":1,"replicas":1,"device_yield":0.9999}
 *       Functional-yield Monte Carlo (batch engine) on the config.
 *
 *   {"id":"r3","type":"sweep","stages":[1,2],"widths":[4,8],
 *    "bars":[2,4]}
 *       Bounded Figure-7 sub-sweep: the cross product of the three
 *       axes (each restricted to the paper's values), at most the
 *       full 24-point grid per request.
 *
 *   {"id":"r7","type":"sweep","iss":{"cores":["msp430","zpu"],
 *    "kernels":["mult","div"],"width":8,"machines":64,"seed":1,
 *    "max_steps":50000000}}
 *       Fleet ISS sweep: run every kernel on every legacy core, M
 *       machines per point, on the core's instruction-set simulator
 *       (dse::sweepLegacyIss). All "iss" members are optional;
 *       defaults are all four cores, kernels ["mult","div"], width
 *       8, 64 machines, seed 1, max_steps 50000000; other members
 *       are ignored. The reply is a pure function of the request:
 *       the server's thread count never changes the body bytes,
 *       only throughput. Streams like a synth sweep: one partial
 *       frame per (core, kernel) point.
 *
 *   {"id":"r8","type":"classify","dataset":{"kind":"blobs",
 *    "features":4,"classes":3,"bits":8},"model":"tree","depth":4,
 *    "search":{"generations":6,"population":12,"seed":1},
 *    "budget":{"battery":"Blue Spark 30mAh"}}
 *       Evolutionary classifier approximation search (src/ml): train
 *       or seed the base model, evolve approximations, and return
 *       the accuracy/area Pareto front. All members of "dataset",
 *       "search", and "budget" ("battery", "max_area_cm2") are
 *       optional with defaults; "model" is "tree" (with "depth")
 *       or "ternary" (with "hidden"). Streams like a sweep: one
 *       partial frame per generation summary, then a final front
 *       point — so partial index G of G+1 carries the Pareto front.
 *
 *   {"id":"r4","type":"metrics"} / {"id":"r5","type":"health"} /
 *   {"id":"r6","type":"shutdown"}
 *       Introspection and admin. Health replies carry "proto": 2
 *       and a "types" array naming every request type the server
 *       understands.
 *
 * Optional request fields: "deadline_ms" (relative per-request
 * deadline; expired requests are answered with a
 * "deadline_exceeded" error instead of results), and inside
 * "config": "tristate" (bool) and "opcode_mask" (the Section 7
 * pruning knob) — useful for generating many distinct synthesis
 * keys under load.
 *
 * Seeds (a yield request's "seed", "iss" "seed", and classify's
 * "dataset" and "search" "seed") are integers in [0, 2^53 - 1]
 * (kMaxSeed). JSON numbers parse as doubles, which hold every
 * integer exactly only up to 2^53, so a larger seed is answered
 * with bad_request instead of being rounded to another run's seed.
 *
 * Replies: {"id":...,"ok":true,"type":...,"result":{...}} or
 * {"id":...,"ok":false,"error":CODE,"message":TEXT}; every error,
 * queue_full included, has exactly these members.
 *
 * Streaming. A sweep, yield, or classify request may carry
 * "stream": true; the server then answers with zero or more partial
 * frames followed by one done frame:
 *
 *   {"id":..,"ok":true,"type":"sweep",
 *    "partial":{"index":I,"total":N,"point":{...synth body...}}}
 *   {"id":..,"ok":true,"type":"sweep","done":{"points":N}}
 *
 * Partials arrive in strict index order; concatenating the point
 * bodies of indices 0..N-1 reproduces the monolithic "result" body
 * byte-for-byte (assembleStreamedReply), because the server builds
 * both from the same ordered points. "resume_from": K asks the
 * server to start at point index K — the replay rule after a
 * mid-stream disconnect; a K past the last point is a bad_request.
 *
 * Determinism rule (DESIGN.md "Serving"): the reply to a compute
 * request (synth/yield/sweep) is a pure function of the request
 * line — same request, same bytes, regardless of concurrency,
 * cache state, or which worker served it. Doubles are
 * rendered in shortest round-trip form (std::to_chars) to make
 * that byte-exact. Introspection replies (metrics/health) and
 * load-dependent errors (queue_full, deadline_exceeded) are
 * exempt by nature.
 */

#ifndef PRINTED_SERVICE_PROTOCOL_HH
#define PRINTED_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/fault.hh"
#include "core/config.hh"
#include "dse/sweep.hh"
#include "ml/evolve.hh"

namespace printed::service
{

/** Error codes of "ok":false replies. */
namespace errc
{
inline constexpr const char *parseError = "parse_error";
inline constexpr const char *badRequest = "bad_request";
inline constexpr const char *queueFull = "queue_full";
inline constexpr const char *deadlineExceeded = "deadline_exceeded";
inline constexpr const char *shuttingDown = "shutting_down";
inline constexpr const char *internalError = "internal_error";
} // namespace errc

/** Wire protocol version advertised in health replies. */
inline constexpr unsigned kProtocolVersion = 2;

/** Largest request seed: a double holds every integer up to it. */
inline constexpr std::uint64_t kMaxSeed = (std::uint64_t(1) << 53) - 1;

enum class RequestType
{
    Synth,
    Yield,
    Sweep,
    Classify,
    Metrics,
    Health,
    Shutdown,
};

/** Protocol name of a request type ("synth", "yield", ...). */
const char *requestTypeName(RequestType type);

/**
 * JSON array of every request type this build serves, in enum
 * order — the "types" member of health replies.
 */
std::string supportedTypesJson();

/** Axes of a bounded Figure-7 sub-sweep request. */
struct SweepSpec
{
    std::vector<unsigned> stages; ///< subset of {1,2,3}
    std::vector<unsigned> widths; ///< subset of {4,8,16,32}
    std::vector<unsigned> bars;   ///< subset of {2,4}

    /** The cross product, in canonical (stages,width,bars) order. */
    std::vector<CoreConfig> configs() const;
};

/** One parsed, validated request. */
struct Request
{
    std::string id;
    RequestType type = RequestType::Health;

    /** Synth/Yield target. */
    CoreConfig config;

    /** Yield parameters. */
    unsigned trials = 256;
    unsigned replicas = 1;
    std::uint64_t seed = 1;
    double deviceYield = 0.9999;

    /** Sweep axes. */
    SweepSpec sweep;

    /** Fleet ISS sweep ("iss" object present on a sweep request). */
    bool hasIss = false;
    IssSweepSpec iss;

    /** Classify search specification. */
    ml::ClassifySpec classify;

    /** Relative deadline in ms; 0 = none. */
    double deadlineMs = 0;

    /** Stream partial frames (sweep/yield/classify only). */
    bool stream = false;

    /** First point index to emit (streamed resume). */
    std::uint64_t resumeFrom = 0;
};

/**
 * Parse + validate one request line. Throws json::ParseError on
 * malformed JSON and FatalError on structurally valid JSON that is
 * not a valid request (unknown type, out-of-range parameters,
 * inconsistent CoreConfig).
 */
Request parseRequest(const std::string &line);

/** Shortest round-trip decimal rendering of a double. */
std::string formatDouble(double v);

// ---------------------------------------------------------------
// Reply rendering. Bodies are the deterministic "result" objects;
// okReply/errorReply wrap them with the echoed id.
// ---------------------------------------------------------------

/** "result" body of a synth reply. */
std::string synthBody(const DesignPoint &point);

/** "result" body of a yield reply. */
std::string yieldBody(const CoreConfig &config,
                      const FunctionalYieldReport &report);

/** One point of an ISS sweep reply (also a stream point body). */
std::string issPointBody(const IssSweepPoint &point);

/** One generation summary of a classify reply (a stream point). */
std::string classifyGenerationBody(const ml::GenerationReport &g);

/**
 * The Pareto-front point of a classify reply (the final stream
 * point, index `generations` of `generations + 1`).
 */
std::string classifyFrontBody(const ml::ClassifyResult &result);

/**
 * "result" body of a monolithic classify reply: the generation
 * summaries followed by the front point, wrapped by resultBody().
 */
std::string classifyBody(const ml::ClassifyResult &result);

/**
 * "result" body of a compute reply from its ordered point bodies: a
 * synth or yield reply is its one point, a sweep or classify reply
 * wraps its points as {"points": [...]}. The server renders every
 * monolithic reply this way, and assembleStreamedReply() applies it
 * to a finished stream, so the two agree byte for byte.
 */
std::string resultBody(RequestType type,
                       const std::vector<std::string> &points);

/** Full success reply line (no trailing newline). */
std::string okReply(const std::string &id, RequestType type,
                    const std::string &resultBody);

/** Full error reply line (no trailing newline). */
std::string errorReply(const std::string &id, const char *code,
                       const std::string &message);

// ---------------------------------------------------------------
// Streaming frames.
// ---------------------------------------------------------------

/**
 * One partial frame: point `index` of `total`, body `pointBody`
 * (a synth body for sweeps, a yield body for yields).
 */
std::string partialFrame(const std::string &id, RequestType type,
                         std::uint64_t index, std::uint64_t total,
                         const std::string &pointBody);

/** Stream terminator: all `points` partials have been sent. */
std::string doneFrame(const std::string &id, RequestType type,
                      std::uint64_t points);

/** A classified reply line of a (possibly streamed) exchange. */
struct StreamFrame
{
    enum class Kind
    {
        Partial, ///< carries one point body
        Done,    ///< stream terminator
        Final,   ///< monolithic reply or error — ends the exchange
    };

    Kind kind = Kind::Final;
    std::string id;        ///< echoed request id
    std::uint64_t index = 0;  ///< Partial: point index
    std::uint64_t total = 0;  ///< Partial: total points in stream
    std::uint64_t points = 0; ///< Done: partials the server sent
    std::string pointBody; ///< Partial: exact body bytes
};

/**
 * Classify one reply line. Partial frames get their point body
 * extracted byte-exactly (so reassembly can't perturb rendering);
 * anything that is neither a partial nor a done frame — monolithic
 * replies, error replies — classifies as Final. Throws
 * json::ParseError on non-JSON input.
 */
StreamFrame classifyFrame(const std::string &line);

/**
 * The monolithic reply equivalent to a completed stream: ordered
 * point bodies 0..N-1 wrapped by resultBody(), exactly as the
 * server wraps a monolithic request's points. Yield streams carry
 * exactly one point (the full yield body).
 */
std::string assembleStreamedReply(const std::string &id,
                                  RequestType type,
                                  const std::vector<std::string> &points);

// ---------------------------------------------------------------
// Request building (the client side of the wire format).
// ---------------------------------------------------------------

/** Render a synth request line for a config. */
std::string synthRequest(const std::string &id,
                         const CoreConfig &config,
                         double deadlineMs = 0);

/** Render a yield request line. */
std::string yieldRequest(const std::string &id,
                         const CoreConfig &config, unsigned trials,
                         std::uint64_t seed = 1,
                         unsigned replicas = 1,
                         double deadlineMs = 0);

/** Render a sweep request line. */
std::string sweepRequest(const std::string &id,
                         const SweepSpec &spec,
                         double deadlineMs = 0);

/** Render a classify request line (canonical, all fields explicit). */
std::string classifyRequest(const std::string &id,
                            const ml::ClassifySpec &spec,
                            double deadlineMs = 0);

/** Render a metrics / health / shutdown request line. */
std::string adminRequest(const std::string &id, RequestType type);

/**
 * Render a streamed sweep request ("stream": true), resuming at
 * point index `resumeFrom` (0 = the whole sweep).
 */
std::string sweepStreamRequest(const std::string &id,
                               const SweepSpec &spec,
                               std::uint64_t resumeFrom = 0,
                               double deadlineMs = 0);

/** Render a streamed yield request. */
std::string yieldStreamRequest(const std::string &id,
                               const CoreConfig &config,
                               unsigned trials,
                               std::uint64_t seed = 1,
                               unsigned replicas = 1,
                               std::uint64_t resumeFrom = 0,
                               double deadlineMs = 0);

/** Render a streamed classify request. */
std::string classifyStreamRequest(const std::string &id,
                                  const ml::ClassifySpec &spec,
                                  std::uint64_t resumeFrom = 0,
                                  double deadlineMs = 0);

/**
 * Canonical wire rendering of a parsed request: parses back to an
 * equal Request. The renderers above fill in a Request and render
 * it with this.
 */
std::string requestLine(const Request &req);

} // namespace printed::service

#endif // PRINTED_SERVICE_PROTOCOL_HH
