/**
 * @file
 * Compare BENCH_*.json reports and gate on regressions.
 *
 *   bench_compare BASELINE.json FRESH.json [FRESH2.json ...]
 *                 [--threshold F] [--key SUBSTRING]...
 *                 [--exact-key SUBSTRING]...
 *
 * All documents are flattened to dotted numeric paths
 * (common/json_min.hh). When more than one fresh report is given,
 * the fresh value of every path is the *median* across the fresh
 * reports (shared-runner wall clock is noisy; median-of-3 is the
 * CI perf gate's standard run shape). Two kinds of gated keys:
 *
 *   --key SUBSTR        throughput keys (default: "_per_s",
 *                       higher-is-better): a fresh median more than
 *                       `threshold` (default 0.25 = 25%) below the
 *                       baseline is a regression.
 *   --exact-key SUBSTR  determinism keys (e.g. synth.core.gates,
 *                       synth.opt.gates_removed): any difference
 *                       from the baseline at all is a regression —
 *                       these are exact counters, so a change means
 *                       the synthesis result changed, not the
 *                       machine speed. String leaves (output
 *                       fingerprints) are matched here too: every
 *                       fresh report must carry the baseline's
 *                       string.
 *
 * A gated baseline key that no fresh report carries is a regression
 * too (printed as MISSING): a counter that vanishes from the reports
 * must not pass the gate unnoticed.
 *
 * Exit codes: 0 all compared keys pass, 1 at least one regression,
 * 2 usage/parse error or no comparable keys (a silent pass on
 * disjoint reports would make the CI gate vacuous).
 */

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_min.hh"

namespace
{

int
usage()
{
    std::cerr
        << "usage: bench_compare BASELINE.json FRESH.json"
           " [FRESH2.json ...]\n"
           "                     [--threshold F] [--key SUBSTRING]..."
           " [--exact-key SUBSTRING]...\n"
           "  --threshold F     max allowed relative drop"
           " (default 0.25)\n"
           "  --key SUBSTR      compare keys containing SUBSTR"
           " (default _per_s; repeatable)\n"
           "  --exact-key SUBSTR  keys that must match the baseline"
           " exactly (repeatable)\n"
           "With several FRESH files, each key's fresh value is the"
           " median across them.\n";
    return 2;
}

/** Whole file as a string; empty optional-style flag via ok. */
std::string
slurp(const std::string &path, bool &ok)
{
    std::ifstream is(path);
    if (!is) {
        ok = false;
        return "";
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    ok = true;
    return ss.str();
}

/** Median of a non-empty vector (even count: lower-middle mean). */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

bool
matchesAny(const std::string &name,
           const std::vector<std::string> &patterns)
{
    for (const std::string &p : patterns)
        if (name.find(p) != std::string::npos)
            return true;
    return false;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using printed::json::ParseError;
    using printed::json::flattenNumbers;
    using printed::json::flattenStrings;
    using printed::json::parse;

    std::vector<std::string> files;
    std::vector<std::string> keys;
    std::vector<std::string> exactKeys;
    double threshold = 0.25;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threshold") {
            if (++i >= argc)
                return usage();
            try {
                threshold = std::stod(argv[i]);
            } catch (const std::exception &) {
                return usage();
            }
        } else if (arg == "--key") {
            if (++i >= argc)
                return usage();
            keys.push_back(argv[i]);
        } else if (arg == "--exact-key") {
            if (++i >= argc)
                return usage();
            exactKeys.push_back(argv[i]);
        } else if (arg.rfind("--", 0) == 0) {
            return usage();
        } else {
            files.push_back(arg);
        }
    }
    if (files.size() < 2 || threshold < 0)
        return usage();
    if (keys.empty() && exactKeys.empty())
        keys.push_back("_per_s");

    std::vector<std::map<std::string, double>> flat(files.size());
    std::vector<std::map<std::string, std::string>> strings(files.size());
    for (std::size_t f = 0; f < files.size(); ++f) {
        bool ok = false;
        const std::string text = slurp(files[f], ok);
        if (!ok) {
            std::cerr << "bench_compare: cannot read " << files[f]
                      << "\n";
            return 2;
        }
        try {
            const printed::json::Value doc = parse(text);
            flat[f] = flattenNumbers(doc);
            strings[f] = flattenStrings(doc);
        } catch (const ParseError &e) {
            std::cerr << "bench_compare: " << files[f] << ": "
                      << e.what() << "\n";
            return 2;
        }
    }

    // Median fresh value per key, over the fresh files that have it.
    std::map<std::string, double> fresh;
    {
        std::map<std::string, std::vector<double>> samples;
        for (std::size_t f = 1; f < flat.size(); ++f)
            for (const auto &[name, v] : flat[f])
                samples[name].push_back(v);
        for (auto &[name, v] : samples)
            fresh[name] = median(std::move(v));
    }

    std::cout << std::fixed << std::setprecision(1);
    std::size_t compared = 0, regressions = 0;
    for (const auto &[name, base] : flat[0]) {
        const bool exact = matchesAny(name, exactKeys);
        if (!exact && !matchesAny(name, keys))
            continue;
        ++compared;
        const auto it = fresh.find(name);
        if (it == fresh.end()) {
            std::cout << "  MISSING " << name
                      << " (in baseline only)\n";
            ++regressions;
            continue;
        }
        const double freshV = it->second;
        if (exact) {
            const bool bad = freshV != base;
            std::cout << "  " << (bad ? "FAIL   " : "ok     ") << " "
                      << name << "  baseline "
                      << std::setprecision(6) << base << "  fresh "
                      << freshV << std::setprecision(1)
                      << (bad ? "  (exact-match key differs)\n"
                              : "  (exact)\n");
            if (bad)
                ++regressions;
            continue;
        }
        if (base <= 0) {
            // No meaningful relative drop from a non-positive
            // baseline; report but never gate on it.
            std::cout << "  SKIP    " << name << " baseline " << base
                      << "\n";
            continue;
        }
        const double rel = (freshV - base) / base;
        const bool bad = rel < -threshold;
        std::cout << "  " << (bad ? "FAIL   " : "ok     ") << " "
                  << name << "  baseline " << base << "  fresh "
                  << freshV << "  (" << std::showpos << rel * 100
                  << std::noshowpos << "%)\n";
        if (bad)
            ++regressions;
    }

    for (const auto &[name, base] : strings[0]) {
        if (!matchesAny(name, exactKeys))
            continue;
        ++compared;
        bool bad = false;
        for (std::size_t f = 1; f < strings.size(); ++f) {
            const auto it = strings[f].find(name);
            bad = bad || it == strings[f].end() || it->second != base;
        }
        std::cout << "  " << (bad ? "FAIL   " : "ok     ") << " " << name
                  << "  baseline " << base
                  << (bad ? "  (exact-match key differs)\n"
                          : "  (exact)\n");
        if (bad)
            ++regressions;
    }

    if (compared == 0) {
        std::cerr << "bench_compare: no comparable keys (patterns:";
        for (const std::string &k : keys)
            std::cerr << " " << k;
        for (const std::string &k : exactKeys)
            std::cerr << " =" << k;
        std::cerr << ")\n";
        return 2;
    }
    std::cout << "bench_compare: " << compared << " keys, "
              << regressions << " regression"
              << (regressions == 1 ? "" : "s") << " beyond "
              << threshold * 100 << "%\n";
    return regressions ? 1 : 0;
}
