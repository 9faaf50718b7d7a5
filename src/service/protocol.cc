#include "protocol.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>

#include "common/json_min.hh"
#include "common/logging.hh"

namespace printed::service
{

namespace
{

using json::Value;
using json::jsonQuote;

/** Integral field of `obj`, range-checked; fallback when absent. */
std::uint64_t
uintField(const Value &obj, const char *name, std::uint64_t fallback,
          std::uint64_t lo, std::uint64_t hi)
{
    const Value *f = obj.find(name);
    if (!f)
        return fallback;
    if (!f->isNumber() || f->number < 0 ||
        f->number != std::floor(f->number))
        fatal(std::string("request field '") + name +
              "' must be a non-negative integer");
    const double v = f->number;
    if (v < double(lo) || v > double(hi))
        fatal(std::string("request field '") + name + "' out of range [" +
              std::to_string(lo) + ", " + std::to_string(hi) + "]");
    return std::uint64_t(v);
}

/** Finite double field of `obj`; fallback when absent. */
double
doubleField(const Value &obj, const char *name, double fallback,
            double lo, double hi)
{
    const Value *f = obj.find(name);
    if (!f)
        return fallback;
    if (!f->isNumber() || !std::isfinite(f->number))
        fatal(std::string("request field '") + name +
              "' must be a finite number");
    if (f->number < lo || f->number > hi)
        fatal(std::string("request field '") + name + "' out of range");
    return f->number;
}

/** Array-of-small-integers field ("stages":[1,2]); empty if absent. */
std::vector<unsigned>
axisField(const Value &obj, const char *name,
          std::initializer_list<unsigned> allowed)
{
    std::vector<unsigned> out;
    const Value *f = obj.find(name);
    if (!f)
        return out;
    if (!f->isArray())
        fatal(std::string("request field '") + name + "' must be an array");
    for (const Value &e : f->array) {
        if (!e.isNumber() || e.number != std::floor(e.number))
            fatal(std::string("request field '") + name +
                  "' must hold integers");
        // Match the double itself: converting first would wrap a
        // value like 2^32 + 2 onto an allowed one, and a negative or
        // huge value does not convert at all.
        const auto hit =
            std::find(allowed.begin(), allowed.end(), e.number);
        if (hit == allowed.end())
            fatal(std::string("request field '") + name +
                  "' holds unsupported value " + formatDouble(e.number));
        const unsigned v = *hit;
        // Deduplicate, preserving canonical order below.
        bool dup = false;
        for (unsigned seen : out)
            dup = dup || seen == v;
        if (!dup)
            out.push_back(v);
    }
    return out;
}

/** The CoreConfig of a request's "config" member (or defaults). */
CoreConfig
configField(const Value &root)
{
    CoreConfig cfg;
    const Value *c = root.find("config");
    if (c) {
        fatalIf(!c->isObject(),
                "request field 'config' must be an object");
        cfg.stages = unsigned(uintField(*c, "stages", 1, 1, 3));
        cfg.isa.datawidth =
            unsigned(uintField(*c, "width", 8, 1, 64));
        cfg.isa.barCount = unsigned(uintField(*c, "bars", 2, 1, 8));
        cfg.opcodeMask = unsigned(
            uintField(*c, "opcode_mask", cfg.opcodeMask, 1, 0x3FF));
        const Value *t = c->find("tristate");
        if (t) {
            fatalIf(!t->isBool(),
                    "request field 'tristate' must be a boolean");
            cfg.tristateResultMux = t->boolean;
        }
    }
    // Full structural validation (width/bars membership, ...):
    // throws FatalError on nonsense, which the server maps to a
    // bad_request reply.
    cfg.check();
    return cfg;
}

/** {"fmax_hz":..,"area_cm2":..,"power_mw":..} of one tech. */
std::string
techBody(const Characterization &ch)
{
    std::string out = "{\"fmax_hz\": ";
    out += formatDouble(ch.fmaxHz());
    out += ", \"area_cm2\": ";
    out += formatDouble(ch.areaCm2());
    out += ", \"power_mw\": ";
    out += formatDouble(ch.powerMw());
    out += "}";
    return out;
}

std::string
joinAxis(const std::vector<unsigned> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(v[i]);
    }
    return out + "]";
}

std::optional<Kernel>
kernelFromName(const std::string &name)
{
    for (unsigned k = 0; k < numKernels; ++k)
        if (name == kernelName(Kernel(k)))
            return Kernel(k);
    return std::nullopt;
}

/** Parse the optional "iss" object of a sweep request. Defaults are
 *  resolved here (not lazily in grid()) so requestLine() renders one
 *  canonical line for every spelling of the same sweep. */
IssSweepSpec
issField(const Value &obj)
{
    IssSweepSpec spec;
    fatalIf(!obj.isObject(), "request field 'iss' must be an object");

    if (const Value *cs = obj.find("cores")) {
        fatalIf(!cs->isArray(),
                "request field 'cores' must be an array of strings");
        for (const Value &e : cs->array) {
            fatalIf(!e.isString(),
                    "request field 'cores' must hold strings");
            const auto core = legacy::issCoreFromId(e.string);
            if (!core)
                fatal("unknown legacy core '" + e.string + "'");
            bool dup = false;
            for (legacy::LegacyCore seen : spec.cores)
                dup = dup || seen == *core;
            if (!dup)
                spec.cores.push_back(*core);
        }
    }
    if (spec.cores.empty())
        spec.cores.assign(legacy::allLegacyCores.begin(),
                          legacy::allLegacyCores.end());

    if (const Value *ks = obj.find("kernels")) {
        fatalIf(!ks->isArray(),
                "request field 'kernels' must be an array of strings");
        for (const Value &e : ks->array) {
            fatalIf(!e.isString(),
                    "request field 'kernels' must hold strings");
            const auto kernel = kernelFromName(e.string);
            if (!kernel)
                fatal("unknown kernel '" + e.string + "'");
            bool dup = false;
            for (Kernel seen : spec.kernels)
                dup = dup || seen == *kernel;
            if (!dup)
                spec.kernels.push_back(*kernel);
        }
    }
    if (spec.kernels.empty())
        spec.kernels = {Kernel::Mult, Kernel::Div};

    spec.width = unsigned(uintField(obj, "width", 8, 8, 32));
    fatalIf(spec.width != 8 && spec.width != 16 && spec.width != 32,
            "request field 'width' must be 8, 16, or 32");
    for (Kernel k : spec.kernels)
        fatalIf(k == Kernel::Crc8 && spec.width != 8,
                "kernel 'crc8' is only defined at width 8");

    spec.machines =
        std::size_t(uintField(obj, "machines", 64, 1, 4096));
    spec.seed = uintField(obj, "seed", 1, 0, kMaxSeed);
    spec.maxSteps = uintField(obj, "max_steps", 50'000'000, 1,
                              1'000'000'000);
    return spec;
}

/** Canonical rendering of an "iss" object; every field explicit. */
std::string
issSpecBody(const IssSweepSpec &spec)
{
    std::string out = "{\"cores\": [";
    for (std::size_t i = 0; i < spec.cores.size(); ++i) {
        if (i)
            out += ",";
        out += jsonQuote(legacy::issCoreId(spec.cores[i]));
    }
    out += "], \"kernels\": [";
    for (std::size_t i = 0; i < spec.kernels.size(); ++i) {
        if (i)
            out += ",";
        out += jsonQuote(kernelName(spec.kernels[i]));
    }
    out += "], \"width\": " + std::to_string(spec.width);
    out += ", \"machines\": " + std::to_string(spec.machines);
    out += ", \"seed\": " + std::to_string(spec.seed);
    out += ", \"max_steps\": " + std::to_string(spec.maxSteps);
    out += "}";
    return out;
}

/** 64-bit FNV fingerprint as a JSON string ("0x..."): JSON numbers
 *  are doubles and would silently round 64-bit values. */
std::string
fnvHex(std::uint64_t v)
{
    char buf[24];
    const int n = std::snprintf(buf, sizeof(buf), "\"0x%016llx\"",
                                static_cast<unsigned long long>(v));
    return std::string(buf, std::size_t(n));
}

/** Required string field of `obj`; fallback when absent. */
std::string
stringField(const Value &obj, const char *name,
            const std::string &fallback)
{
    const Value *f = obj.find(name);
    if (!f)
        return fallback;
    if (!f->isString())
        fatal(std::string("request field '") + name + "' must be a string");
    return f->string;
}

/** Parse the "classify" members of a classify request. Defaults are
 *  resolved here, mirroring issField(), so requestLine() renders one
 *  canonical line for every spelling of the same search. */
ml::ClassifySpec
classifyField(const Value &root)
{
    ml::ClassifySpec spec;

    if (const Value *d = root.find("dataset")) {
        fatalIf(!d->isObject(),
                "request field 'dataset' must be an object");
        spec.dataset.kind =
            stringField(*d, "kind", spec.dataset.kind);
        spec.dataset.features =
            unsigned(uintField(*d, "features", 4, 1, 16));
        spec.dataset.classes =
            unsigned(uintField(*d, "classes", 3, 2, 10));
        spec.dataset.bits =
            unsigned(uintField(*d, "bits", 8, 2, 12));
        spec.dataset.train =
            unsigned(uintField(*d, "train", 192, 8, 4096));
        spec.dataset.holdout =
            unsigned(uintField(*d, "holdout", 128, 8, 4096));
        spec.dataset.seed = uintField(*d, "seed", 1, 0, kMaxSeed);
    }

    const std::string model = stringField(root, "model", "tree");
    const auto kind = ml::modelKindFromName(model);
    if (!kind)
        fatal("unknown classify model '" + model +
              "' (want \"tree\" or \"ternary\")");
    spec.model = *kind;
    spec.depth = unsigned(uintField(root, "depth", 4, 1, 12));
    spec.hidden = unsigned(uintField(root, "hidden", 0, 0, 16));

    if (const Value *s = root.find("search")) {
        fatalIf(!s->isObject(),
                "request field 'search' must be an object");
        spec.search.generations =
            unsigned(uintField(*s, "generations", 6, 1, 64));
        spec.search.population =
            unsigned(uintField(*s, "population", 12, 1, 256));
        spec.search.seed = uintField(*s, "seed", 1, 0, kMaxSeed);
    }

    if (const Value *b = root.find("budget")) {
        fatalIf(!b->isObject(),
                "request field 'budget' must be an object");
        spec.budget.battery = stringField(*b, "battery", "");
        spec.budget.maxAreaCm2 =
            doubleField(*b, "max_area_cm2", 0, 0, 1e6);
    }

    // Full cross-field validation (battery names, xor-kind rules):
    // throws FatalError, which the server maps to bad_request.
    spec.check();
    return spec;
}

/** Canonical rendering of a classify spec's request members; every
 *  field explicit, so parseRequest(requestLine(req)) is identity. */
std::string
classifySpecMembers(const ml::ClassifySpec &spec)
{
    std::string out = ", \"dataset\": {\"kind\": ";
    out += jsonQuote(spec.dataset.kind);
    out += ", \"features\": " + std::to_string(spec.dataset.features);
    out += ", \"classes\": " + std::to_string(spec.dataset.classes);
    out += ", \"bits\": " + std::to_string(spec.dataset.bits);
    out += ", \"train\": " + std::to_string(spec.dataset.train);
    out += ", \"holdout\": " + std::to_string(spec.dataset.holdout);
    out += ", \"seed\": " + std::to_string(spec.dataset.seed);
    out += "}, \"model\": ";
    out += jsonQuote(ml::modelKindName(spec.model));
    out += ", \"depth\": " + std::to_string(spec.depth);
    out += ", \"hidden\": " + std::to_string(spec.hidden);
    out += ", \"search\": {\"generations\": " +
           std::to_string(spec.search.generations);
    out += ", \"population\": " +
           std::to_string(spec.search.population);
    out += ", \"seed\": " + std::to_string(spec.search.seed);
    out += "}, \"budget\": {\"battery\": ";
    out += jsonQuote(spec.budget.battery);
    out += ", \"max_area_cm2\": " +
           formatDouble(spec.budget.maxAreaCm2);
    out += "}";
    return out;
}

/** One Pareto-front candidate of a classify reply. */
std::string
candidateBody(const ml::CandidateReport &c)
{
    std::string out = "{\"accuracy\": " + formatDouble(c.accuracy);
    out += ", \"gates\": " + std::to_string(c.gates);
    out += ", \"area_cm2\": " + formatDouble(c.areaCm2);
    out += ", \"power_mw\": " + formatDouble(c.powerMw);
    out += ", \"fmax_hz\": " + formatDouble(c.fmaxHz);
    out += ", \"feasible\": ";
    out += c.feasible ? "true" : "false";
    out += ", \"fnv\": " + fnvHex(c.fnv);
    out += "}";
    return out;
}

} // anonymous namespace

const char *
requestTypeName(RequestType type)
{
    switch (type) {
      case RequestType::Synth:    return "synth";
      case RequestType::Yield:    return "yield";
      case RequestType::Sweep:    return "sweep";
      case RequestType::Classify: return "classify";
      case RequestType::Metrics:  return "metrics";
      case RequestType::Health:   return "health";
      case RequestType::Shutdown: return "shutdown";
    }
    return "?";
}

std::string
supportedTypesJson()
{
    // Enum order, so the health body is stable across builds.
    static const RequestType kAll[] = {
        RequestType::Synth,    RequestType::Yield,
        RequestType::Sweep,    RequestType::Classify,
        RequestType::Metrics,  RequestType::Health,
        RequestType::Shutdown,
    };
    std::string out = "[";
    for (std::size_t i = 0; i < std::size(kAll); ++i) {
        if (i)
            out += ", ";
        out += jsonQuote(requestTypeName(kAll[i]));
    }
    out += "]";
    return out;
}

std::vector<CoreConfig>
SweepSpec::configs() const
{
    std::vector<CoreConfig> out;
    for (unsigned s : stages)
        for (unsigned w : widths)
            for (unsigned b : bars)
                out.push_back(CoreConfig::standard(s, w, b));
    return out;
}

std::string
formatDouble(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no inf/nan
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

Request
parseRequest(const std::string &line)
{
    const Value root = json::parse(line);
    fatalIf(!root.isObject(), "request must be a JSON object");

    Request req;
    if (const Value *id = root.find("id")) {
        fatalIf(!id->isString(),
                "request field 'id' must be a string");
        req.id = id->string;
    }

    const Value *type = root.find("type");
    fatalIf(!type || !type->isString(),
            "request needs a string 'type' field");
    if (type->string == "synth")
        req.type = RequestType::Synth;
    else if (type->string == "yield")
        req.type = RequestType::Yield;
    else if (type->string == "sweep")
        req.type = RequestType::Sweep;
    else if (type->string == "classify")
        req.type = RequestType::Classify;
    else if (type->string == "metrics")
        req.type = RequestType::Metrics;
    else if (type->string == "health")
        req.type = RequestType::Health;
    else if (type->string == "shutdown")
        req.type = RequestType::Shutdown;
    else
        fatal("unknown request type '" + type->string + "'");

    req.deadlineMs =
        doubleField(root, "deadline_ms", 0, 0, 86400e3);

    if (const Value *s = root.find("stream")) {
        fatalIf(!s->isBool(),
                "request field 'stream' must be a boolean");
        req.stream = s->boolean;
    }
    fatalIf(req.stream && req.type != RequestType::Sweep &&
                req.type != RequestType::Yield &&
                req.type != RequestType::Classify,
            "'stream' is only valid for sweep, yield, and classify "
            "requests");
    // Unknown members are ignored, but a client written for the
    // removed "resume_from" must get an error, not the whole stream.
    fatalIf(root.find("resume_from") != nullptr,
            "'resume_from' is not supported: replay the request");

    switch (req.type) {
      case RequestType::Synth:
        req.config = configField(root);
        break;
      case RequestType::Yield:
        req.config = configField(root);
        req.trials =
            unsigned(uintField(root, "trials", 256, 1, 100000));
        req.replicas =
            unsigned(uintField(root, "replicas", 1, 1, 64));
        req.seed = uintField(root, "seed", 1, 0, kMaxSeed);
        req.deviceYield = doubleField(root, "device_yield", 0.9999,
                                      0.5, 1.0);
        break;
      case RequestType::Sweep:
        if (const Value *iss = root.find("iss")) {
            req.hasIss = true;
            req.iss = issField(*iss);
            fatalIf(root.find("stages") || root.find("widths") ||
                        root.find("bars"),
                    "an ISS sweep takes no synth axes");
            break;
        }
        req.sweep.stages = axisField(root, "stages", {1, 2, 3});
        req.sweep.widths =
            axisField(root, "widths", {4, 8, 16, 32});
        req.sweep.bars = axisField(root, "bars", {2, 4});
        if (req.sweep.stages.empty())
            req.sweep.stages = {1, 2, 3};
        if (req.sweep.widths.empty())
            req.sweep.widths = {4, 8, 16, 32};
        if (req.sweep.bars.empty())
            req.sweep.bars = {2, 4};
        break;
      case RequestType::Classify:
        req.classify = classifyField(root);
        break;
      case RequestType::Metrics:
      case RequestType::Health:
      case RequestType::Shutdown:
        break;
    }
    return req;
}

std::string
synthBody(const DesignPoint &point)
{
    std::string out = "{\"core\": ";
    out += jsonQuote(point.config.label());
    out += ", \"gates\": " + std::to_string(point.egfet.gateCount());
    out += ", \"flops\": " +
           std::to_string(point.egfet.stats.seqGates);
    out += ", \"egfet\": " + techBody(point.egfet);
    out += ", \"cnt\": " + techBody(point.cnt);
    out += "}";
    return out;
}

std::string
yieldBody(const CoreConfig &config,
          const FunctionalYieldReport &report)
{
    std::string out = "{\"core\": ";
    out += jsonQuote(config.label());
    out += ", \"trials\": " + std::to_string(report.trials);
    out += ", \"fatal_trials\": " +
           std::to_string(report.fatalTrials);
    out += ", \"masked_trials\": " +
           std::to_string(report.maskedTrials);
    out += ", \"benign_trials\": " +
           std::to_string(report.benignTrials);
    out += ", \"defect_free_trials\": " +
           std::to_string(report.defectFreeTrials);
    out += ", \"functional_yield\": " +
           formatDouble(report.functionalYield());
    out += ", \"analytic_yield\": " +
           formatDouble(report.analyticYield);
    out += ", \"devices\": " +
           std::to_string(report.devicesPerReplica);
    out += ", \"replicas\": " + std::to_string(report.replicas);
    out += "}";
    return out;
}

std::string
issPointBody(const IssSweepPoint &point)
{
    std::string out = "{\"core\": ";
    out += jsonQuote(legacy::issCoreId(point.core));
    out += ", \"kernel\": ";
    out += jsonQuote(kernelName(point.kernel));
    out += ", \"width\": " + std::to_string(point.width);
    out += ", \"machines\": " + std::to_string(point.machines);
    out += ", \"halted\": " + std::to_string(point.halted);
    out += ", \"out_of_budget\": " +
           std::to_string(point.outOfBudget);
    out += ", \"killed\": " + std::to_string(point.killed);
    out += ", \"instructions\": " +
           std::to_string(point.instructions);
    out += ", \"cycles\": " + std::to_string(point.cycles);
    out += ", \"code_bytes\": " + std::to_string(point.codeBytes);
    out += ", \"outputs_fnv\": " + fnvHex(point.outputsFnv);
    out += "}";
    return out;
}

std::string
classifyGenerationBody(const ml::GenerationReport &gen)
{
    std::string out =
        "{\"generation\": " + std::to_string(gen.generation);
    out += ", \"scored\": " + std::to_string(gen.scored);
    out += ", \"best_accuracy\": " + formatDouble(gen.bestAccuracy);
    out += ", \"best_gates\": " + std::to_string(gen.bestGates);
    out += ", \"front_size\": " + std::to_string(gen.frontSize);
    out += ", \"pruned_gates\": " + std::to_string(gen.prunedGates);
    out += "}";
    return out;
}

std::string
classifyFrontBody(const ml::ClassifyResult &result)
{
    std::string out = "{\"front\": [";
    for (std::size_t i = 0; i < result.front.size(); ++i) {
        if (i)
            out += ", ";
        out += candidateBody(result.front[i]);
    }
    out += "], \"baseline\": " + candidateBody(result.baseline);
    out += ", \"generations\": " +
           std::to_string(result.generations.size());
    out += "}";
    return out;
}

std::string
classifyBody(const ml::ClassifyResult &result)
{
    // Points 0..G-1 are generation summaries; the final point is the
    // Pareto front.
    std::vector<std::string> points;
    for (const auto &gen : result.generations)
        points.push_back(classifyGenerationBody(gen));
    points.push_back(classifyFrontBody(result));
    return resultBody(RequestType::Classify, points);
}

std::string
resultBody(RequestType type, const std::vector<std::string> &points)
{
    if (type == RequestType::Synth || type == RequestType::Yield) {
        fatalIf(points.size() != 1,
                "a synth or yield reply carries exactly one point");
        return points.front();
    }
    fatalIf(type != RequestType::Sweep && type != RequestType::Classify,
            "only compute requests have points");
    std::string body = "{\"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (i)
            body += ", ";
        body += points[i];
    }
    body += "]}";
    return body;
}

std::string
okReply(const std::string &id, RequestType type,
        const std::string &resultBody)
{
    std::string out = "{\"id\": ";
    out += jsonQuote(id);
    out += ", \"ok\": true, \"type\": ";
    out += jsonQuote(requestTypeName(type));
    out += ", \"result\": " + resultBody + "}";
    return out;
}

std::string
errorReply(const std::string &id, const char *code,
           const std::string &message)
{
    std::string out = "{\"id\": ";
    out += jsonQuote(id);
    out += ", \"ok\": false, \"error\": ";
    out += jsonQuote(code);
    out += ", \"message\": " + jsonQuote(message) + "}";
    return out;
}

namespace
{

/// Exact head shared by partial and done frames. Keeping the
/// rendering in one place is what makes classifyFrame's byte-exact
/// point extraction safe: the only unescaped `"point": ` in a
/// partial frame is the structural one (jsonQuote backslash-escapes
/// quotes inside the id).
std::string
streamFrameHead(const std::string &id, RequestType type)
{
    std::string out = "{\"id\": ";
    out += jsonQuote(id);
    out += ", \"ok\": true, \"type\": ";
    out += jsonQuote(requestTypeName(type));
    return out;
}

constexpr const char *kPointMarker = ", \"point\": ";

/** True for a count a double holds exactly: integral, 0..kMaxSeed. */
bool
isCount(const Value *v)
{
    return v && v->isNumber() && v->number >= 0 &&
           v->number <= double(kMaxSeed) &&
           v->number == std::floor(v->number);
}

} // anonymous namespace

std::string
partialFrame(const std::string &id, RequestType type,
             std::uint64_t index, std::uint64_t total,
             const std::string &pointBody)
{
    std::string out = streamFrameHead(id, type);
    out += ", \"partial\": {\"index\": " + std::to_string(index);
    out += ", \"total\": " + std::to_string(total);
    out += kPointMarker + pointBody;
    out += "}}";
    return out;
}

std::string
doneFrame(const std::string &id, RequestType type,
          std::uint64_t points)
{
    std::string out = streamFrameHead(id, type);
    out += ", \"done\": {\"points\": " + std::to_string(points);
    out += "}}";
    return out;
}

StreamFrame
classifyFrame(const std::string &line)
{
    StreamFrame frame;
    const Value root = json::parse(line);
    if (!root.isObject())
        return frame; // Final: the caller surfaces it as-is

    if (const Value *id = root.find("id"); id && id->isString())
        frame.id = id->string;

    const Value *ok = root.find("ok");
    if (!ok || !ok->isBool() || !ok->boolean)
        return frame; // errors always end the exchange

    if (const Value *p = root.find("partial"); p && p->isObject()) {
        const Value *index = p->find("index");
        const Value *total = p->find("total");
        const std::size_t at = line.find(kPointMarker);
        if (!isCount(index) || !isCount(total) ||
            at == std::string::npos || line.size() < at + 14)
            return frame; // malformed partial: treat as Final
        frame.kind = StreamFrame::Kind::Partial;
        frame.index = std::uint64_t(index->number);
        frame.total = std::uint64_t(total->number);
        // The body is everything after the marker, minus the two
        // closing braces of the "partial" object and the frame.
        const std::size_t start = at + 11; // strlen(kPointMarker)
        frame.pointBody = line.substr(start, line.size() - start - 2);
        return frame;
    }

    if (const Value *d = root.find("done"); d && d->isObject()) {
        const Value *points = d->find("points");
        if (!isCount(points))
            return frame;
        frame.kind = StreamFrame::Kind::Done;
        frame.points = std::uint64_t(points->number);
        return frame;
    }

    return frame;
}

std::string
assembleStreamedReply(const std::string &id, RequestType type,
                      const std::vector<std::string> &points)
{
    return okReply(id, type, resultBody(type, points));
}

namespace
{

/** Common head of a compute request: id, type, deadline, config. */
std::string
requestHead(const std::string &id, const char *type,
            double deadlineMs)
{
    std::string out = "{\"id\": ";
    out += jsonQuote(id);
    out += ", \"type\": \"";
    out += type;
    out += "\"";
    if (deadlineMs > 0)
        out += ", \"deadline_ms\": " + formatDouble(deadlineMs);
    return out;
}

std::string
configBody(const CoreConfig &c)
{
    std::string out = "{\"stages\": " + std::to_string(c.stages);
    out += ", \"width\": " + std::to_string(c.isa.datawidth);
    out += ", \"bars\": " + std::to_string(c.isa.barCount);
    if (c.opcodeMask != CoreConfig{}.opcodeMask)
        out += ", \"opcode_mask\": " + std::to_string(c.opcodeMask);
    if (!c.tristateResultMux)
        out += ", \"tristate\": false";
    out += "}";
    return out;
}

/** The members every rendered request sets. */
Request
requestOf(const std::string &id, RequestType type, double deadlineMs)
{
    Request req;
    req.id = id;
    req.type = type;
    req.deadlineMs = deadlineMs;
    return req;
}

Request
yieldOf(const std::string &id, const CoreConfig &config, unsigned trials,
        std::uint64_t seed, unsigned replicas, double deadlineMs)
{
    Request req = requestOf(id, RequestType::Yield, deadlineMs);
    req.config = config;
    req.trials = trials;
    req.seed = seed;
    req.replicas = replicas;
    return req;
}

Request
sweepOf(const std::string &id, const SweepSpec &spec, double deadlineMs)
{
    Request req = requestOf(id, RequestType::Sweep, deadlineMs);
    req.sweep = spec;
    return req;
}

Request
classifyOf(const std::string &id, const ml::ClassifySpec &spec,
           double deadlineMs)
{
    Request req = requestOf(id, RequestType::Classify, deadlineMs);
    req.classify = spec;
    return req;
}

/** `req` rendered as a stream. */
std::string
streamLine(Request req)
{
    req.stream = true;
    return requestLine(req);
}

} // anonymous namespace

std::string
requestLine(const Request &req)
{
    std::string out =
        requestHead(req.id, requestTypeName(req.type), req.deadlineMs);
    switch (req.type) {
      case RequestType::Synth:
        out += ", \"config\": " + configBody(req.config);
        break;
      case RequestType::Yield:
        out += ", \"config\": " + configBody(req.config);
        out += ", \"trials\": " + std::to_string(req.trials);
        out += ", \"seed\": " + std::to_string(req.seed);
        out += ", \"replicas\": " + std::to_string(req.replicas);
        if (req.deviceYield != 0.9999)
            out += ", \"device_yield\": " + formatDouble(req.deviceYield);
        break;
      case RequestType::Sweep:
        if (req.hasIss) {
            out += ", \"iss\": " + issSpecBody(req.iss);
            break;
        }
        out += ", \"stages\": " + joinAxis(req.sweep.stages);
        out += ", \"widths\": " + joinAxis(req.sweep.widths);
        out += ", \"bars\": " + joinAxis(req.sweep.bars);
        break;
      case RequestType::Classify:
        out += classifySpecMembers(req.classify);
        break;
      case RequestType::Metrics:
      case RequestType::Health:
      case RequestType::Shutdown:
        break;
    }
    if (req.stream)
        out += ", \"stream\": true";
    return out + "}";
}

std::string
synthRequest(const std::string &id, const CoreConfig &config,
             double deadlineMs)
{
    Request req = requestOf(id, RequestType::Synth, deadlineMs);
    req.config = config;
    return requestLine(req);
}

std::string
yieldRequest(const std::string &id, const CoreConfig &config,
             unsigned trials, std::uint64_t seed, unsigned replicas,
             double deadlineMs)
{
    return requestLine(
        yieldOf(id, config, trials, seed, replicas, deadlineMs));
}

std::string
sweepRequest(const std::string &id, const SweepSpec &spec,
             double deadlineMs)
{
    return requestLine(sweepOf(id, spec, deadlineMs));
}

std::string
classifyRequest(const std::string &id, const ml::ClassifySpec &spec,
                double deadlineMs)
{
    return requestLine(classifyOf(id, spec, deadlineMs));
}

std::string
adminRequest(const std::string &id, RequestType type)
{
    return requestLine(requestOf(id, type, 0));
}

std::string
sweepStreamRequest(const std::string &id, const SweepSpec &spec,
                   double deadlineMs)
{
    return streamLine(sweepOf(id, spec, deadlineMs));
}

std::string
yieldStreamRequest(const std::string &id, const CoreConfig &config,
                   unsigned trials, std::uint64_t seed,
                   unsigned replicas, double deadlineMs)
{
    return streamLine(
        yieldOf(id, config, trials, seed, replicas, deadlineMs));
}

std::string
classifyStreamRequest(const std::string &id,
                      const ml::ClassifySpec &spec, double deadlineMs)
{
    return streamLine(classifyOf(id, spec, deadlineMs));
}

} // namespace printed::service
