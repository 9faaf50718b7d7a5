#include "sweep.hh"

#include <optional>
#include <string>

#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "synth/cache.hh"
#include "workloads/kernels.hh"

namespace printed
{

DesignPoint
evaluateDesignPoint(const CoreConfig &config)
{
    trace::Span span("dse.point", config.label());
    metrics::counter("dse.points").add(1);
    SynthCache &cache = SynthCache::global();
    DesignPoint point;
    point.config = config;
    point.egfet = *cache.characterization(config, TechKind::EGFET);
    point.cnt = *cache.characterization(config, TechKind::CNT_TFT);
    return point;
}

std::vector<CoreConfig>
figure7Configs()
{
    std::vector<CoreConfig> configs;
    for (unsigned stages : {1u, 2u, 3u})
        for (unsigned width : {4u, 8u, 16u, 32u})
            for (unsigned bars : {2u, 4u})
                configs.push_back(
                    CoreConfig::standard(stages, width, bars));
    return configs;
}

std::vector<DesignPoint>
sweepConfigs(const std::vector<CoreConfig> &configs,
             const SweepOptions &opts)
{
    trace::Span span("dse.sweep",
                     std::to_string(configs.size()) + " configs");
    auto eval = [&](std::size_t i) {
        return evaluateDesignPoint(configs[i]);
    };
    std::optional<ThreadPool> local;
    ThreadPool &pool = opts.pool ? *opts.pool : local.emplace(1);
    return pool.parallelMap(configs.size(), eval);
}

std::vector<DesignPoint>
sweepDesignSpace(const SweepOptions &opts)
{
    return sweepConfigs(figure7Configs(), opts);
}

std::vector<std::pair<legacy::LegacyCore, Kernel>>
IssSweepSpec::grid() const
{
    std::vector<legacy::LegacyCore> cs = cores;
    if (cs.empty())
        cs.assign(legacy::allLegacyCores.begin(),
                  legacy::allLegacyCores.end());
    std::vector<Kernel> ks = kernels;
    if (ks.empty())
        ks = {Kernel::Mult, Kernel::Div};
    std::vector<std::pair<legacy::LegacyCore, Kernel>> out;
    out.reserve(cs.size() * ks.size());
    for (legacy::LegacyCore c : cs)
        for (Kernel k : ks)
            out.emplace_back(c, k);
    return out;
}

IssSweepPoint
evaluateIssPoint(legacy::LegacyCore core, Kernel kernel,
                 const IssSweepSpec &spec, const SweepOptions &opts)
{
    trace::Span span("dse.iss_point",
                     std::string(legacy::issCoreId(core)) + "/" +
                         kernelName(kernel));
    const legacy::IrProgram prog =
        legacy::irKernel(kernel, spec.width);
    std::vector<std::vector<std::uint64_t>> inputs;
    inputs.reserve(spec.machines);
    for (std::size_t m = 0; m < spec.machines; ++m)
        inputs.push_back(
            defaultInputs(kernel, spec.width, spec.seed + m));

    legacy::IssBatchOptions bopts;
    bopts.maxSteps = spec.maxSteps;
    bopts.pool = opts.pool;
    const legacy::IssBatchResult res =
        legacy::runLegacyBatch(core, prog, inputs, bopts);

    IssSweepPoint point;
    point.core = core;
    point.kernel = kernel;
    point.width = spec.width;
    point.machines = spec.machines;
    point.instructions = res.totalInstructions;
    point.cycles = res.totalCycles;
    point.codeBytes = res.codeBytes;
    for (std::size_t m = 0; m < res.runs.size(); ++m) {
        switch (res.status[m]) {
          case legacy::MachineStatus::Halted: ++point.halted; break;
          case legacy::MachineStatus::OutOfBudget:
            ++point.outOfBudget;
            break;
          case legacy::MachineStatus::Killed: ++point.killed; break;
        }
    }
    point.outputsFnv = legacy::issResultFnv(res);
    return point;
}

std::vector<IssSweepPoint>
sweepLegacyIss(const IssSweepSpec &spec, const SweepOptions &opts)
{
    const auto grid = spec.grid();
    trace::Span span("dse.iss_sweep",
                     std::to_string(grid.size()) + " points x " +
                         std::to_string(spec.machines) +
                         " machines");
    std::vector<IssSweepPoint> points;
    points.reserve(grid.size());
    // Points run one after another: each point already spreads its
    // machines over opts.pool, which runs one job at a time.
    for (const auto &[core, kernel] : grid)
        points.push_back(
            evaluateIssPoint(core, kernel, spec, opts));
    return points;
}

std::vector<YieldPoint>
sweepFunctionalYield(const std::vector<CoreConfig> &configs,
                     const FunctionalYieldConfig &mc)
{
    SynthCache &cache = SynthCache::global();
    std::vector<YieldPoint> points;
    points.reserve(configs.size());
    for (const CoreConfig &config : configs) {
        YieldPoint p;
        p.config = config;
        p.report = measureFunctionalYield(*cache.core(config),
                                          config, mc);
        points.push_back(std::move(p));
    }
    return points;
}

} // namespace printed
