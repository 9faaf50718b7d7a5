/**
 * @file
 * Acceptance + throughput harness for the printed classifier
 * subsystem (src/ml). It runs the reference evolutionary search
 * in-process and gates hard on the determinism contract:
 *
 *   search    timed runClassify over --generations x --population
 *             candidates -> candidates_per_s
 *   threads   classifyBody bytes identical across ThreadPool sizes
 *             {1, --threads, 16}
 *   engines   Batch vs Scalar scoring engines agree bit-for-bit
 *             (engines_agree)
 *   front     the exact Pareto front (gates, accuracy) lands in the
 *             JSON report so CI can gate with --exact-key
 *
 * The classify endpoint's streamed and monolithic replies are
 * checked by tests/test_streaming.cc and perfbench's serve workload.
 *
 * Exit status: 1 on any determinism failure or an empty front, 0
 * otherwise. Options: --model tree|ternary, --depth N, --hidden N,
 * --generations N, --population N, --threads N, --reps N,
 * --json PATH, --trace-out PATH.
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "ml/evolve.hh"
#include "service/protocol.hh"

using namespace printed;
using namespace printed::service;

namespace
{

std::string
valueOfArg(int argc, char **argv, const std::string &flag)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (argv[i] == "--" + flag)
            return argv[i + 1];
    return "";
}

/** The bench's reference search: small enough to run four times
 *  (threads x2, 16-thread, scalar-engine) in a few seconds, rich
 *  enough that the front has several accuracy/area trade points. */
ml::ClassifySpec
benchSpec(int argc, char **argv)
{
    ml::ClassifySpec spec;
    spec.dataset.kind = "xor"; // not linearly separable: depth pays
    spec.dataset.features = 2;
    spec.dataset.classes = 2;
    spec.dataset.bits = 6;
    spec.dataset.train = 96;
    spec.dataset.holdout = 64;
    spec.depth = bench::uintFromArgs<unsigned>(argc, argv, "depth", 4);
    spec.hidden = bench::uintFromArgs<unsigned>(argc, argv, "hidden", 4);
    spec.search.generations =
        bench::uintFromArgs<unsigned>(argc, argv, "generations", 4);
    spec.search.population =
        bench::uintFromArgs<unsigned>(argc, argv, "population", 8);
    if (const std::string model =
            valueOfArg(argc, argv, "model");
        !model.empty()) {
        const auto kind = ml::modelKindFromName(model);
        if (!kind)
            fatal("unknown --model '" + model + "'");
        spec.model = *kind;
    }
    spec.check();
    return spec;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::initObservability(argc, argv);

    const std::string jsonPath = bench::jsonPathFromArgs(argc, argv);
    const unsigned benchThreads = bench::uintFromArgs<unsigned>(
        argc, argv, "threads",
        std::max(1u, std::thread::hardware_concurrency()));

    bench::banner("printed classifier search",
                  "evolutionary approximation throughput and the "
                  "determinism contract");

    const ml::ClassifySpec spec = benchSpec(argc, argv);
    const std::uint64_t candidates =
        1 + std::uint64_t(spec.search.generations) *
                spec.search.population;
    std::cout << "model " << ml::modelKindName(spec.model)
              << ", depth " << spec.depth << ", "
              << spec.search.generations << " generations x "
              << spec.search.population << " candidates, "
              << benchThreads << " threads\n\n";

    bench::JsonReport jr("bench_classify");
    bool pass = true;

    // ---- Phase 1: timed search ---------------------------------
    // One search is a few milliseconds; repeat it so the
    // throughput number is wall-clock, not scheduler noise.
    const unsigned reps =
        bench::uintFromArgs<unsigned>(argc, argv, "reps", 8);
    ThreadPool pool(benchThreads);
    const bench::WallTimer searchTimer;
    const ml::ClassifyResult result = ml::runClassify(spec, pool);
    for (unsigned r = 1; r < reps; ++r)
        ml::runClassify(spec, pool);
    const double searchMs = searchTimer.elapsedMs();
    const double candPerS =
        double(candidates * reps) / (searchMs / 1000.0);
    std::cout << "search: " << reps << " x " << candidates
              << " candidates in "
              << TableWriter::fixed(searchMs, 1) << " ms ("
              << TableWriter::fixed(candPerS, 1)
              << " candidates/s)\n";
    std::cout << "baseline: " << result.baseline.gates
              << " gates, accuracy "
              << TableWriter::fixed(result.baseline.accuracy, 4)
              << "\n";
    for (const ml::CandidateReport &c : result.front)
        std::cout << "  front: " << c.gates << " gates, accuracy "
                  << TableWriter::fixed(c.accuracy, 4) << ", "
                  << TableWriter::fixed(c.areaCm2, 3) << " cm^2"
                  << (c.feasible ? "" : " (infeasible)") << "\n";
    if (result.front.empty()) {
        std::cout << "FAIL: empty Pareto front\n";
        pass = false;
    }

    // ---- Phase 2: thread-count determinism ---------------------
    // The classify endpoint's replies are keyed on these bytes, so
    // any thread count must reproduce them exactly.
    const std::string reference = classifyBody(result);
    bool deterministic = true;
    for (const unsigned threads :
         std::vector<unsigned>{1u, benchThreads, 16u}) {
        ThreadPool p(threads);
        const std::string bytes =
            classifyBody(ml::runClassify(spec, p));
        const bool same = bytes == reference;
        std::cout << "threads " << threads << ": reply bytes "
                  << (same ? "identical" : "DIFFER") << "\n";
        if (!same) {
            std::cout << "FAIL: search not thread-invariant at "
                      << threads << " threads\n";
            deterministic = false;
            pass = false;
        }
    }

    // ---- Phase 3: Batch vs Scalar engine agreement -------------
    // Scoring is integer holdout accuracy, so the 64-lane batch
    // simulator and the scalar oracle must agree bit-for-bit.
    ml::ClassifySpec scalarSpec = spec;
    scalarSpec.search.engine = ml::ScoreEngine::Scalar;
    const std::string scalarBytes =
        classifyBody(ml::runClassify(scalarSpec, pool));
    const bool enginesAgree = scalarBytes == reference;
    std::cout << "engines: batch vs scalar "
              << (enginesAgree ? "agree" : "DISAGREE") << "\n";
    if (!enginesAgree) {
        std::cout << "FAIL: scoring engines disagree\n";
        pass = false;
    }

    std::cout << "\nclassify: " << (pass ? "PASS" : "FAIL") << "\n";

    if (!jsonPath.empty()) {
        jr.meta("model", ml::modelKindName(spec.model));
        jr.meta("depth", spec.depth);
        jr.meta("generations", spec.search.generations);
        jr.meta("population", spec.search.population);
        jr.meta("threads", benchThreads);
        jr.meta("search_wall_ms", searchMs);
        jr.meta("candidates", candidates);
        jr.meta("candidates_per_s", candPerS);
        jr.meta("threads_deterministic", deterministic);
        jr.meta("engines_agree", enginesAgree);
        jr.meta("baseline_gates",
                std::uint64_t(result.baseline.gates));
        jr.meta("baseline_accuracy", result.baseline.accuracy);
        jr.meta("front_size", std::uint64_t(result.front.size()));
        for (const ml::CandidateReport &c : result.front)
            jr.add("front", {{"gates", std::uint64_t(c.gates)},
                             {"accuracy", c.accuracy},
                             {"area_cm2", c.areaCm2},
                             {"power_mw", c.powerMw},
                             {"feasible", c.feasible}});
        jr.writeTo(jsonPath);
    }
    return pass ? 0 : 1;
}
