#include "batch_iss.hh"

#include "common/logging.hh"
#include "common/metrics.hh"
#include "legacy/i8080.hh"
#include "legacy/msp430.hh"
#include "legacy/zpu.hh"

namespace printed::legacy
{

const char *
issCoreId(LegacyCore core)
{
    switch (core) {
      case LegacyCore::OpenMsp430: return "msp430";
      case LegacyCore::Z80: return "z80";
      case LegacyCore::Light8080: return "light8080";
      case LegacyCore::ZpuSmall: return "zpu";
    }
    panic("issCoreId: bad core");
}

std::optional<LegacyCore>
issCoreFromId(const std::string &id)
{
    for (LegacyCore core : allLegacyCores)
        if (id == issCoreId(core))
            return core;
    return std::nullopt;
}

IssBatchResult
issNewResult(std::size_t machines, std::size_t codeBytes,
             std::size_t dataBytes)
{
    IssBatchResult result;
    result.codeBytes = codeBytes;
    result.dataBytes = dataBytes;
    result.runs.resize(machines);
    for (LegacyRun &run : result.runs) {
        run.codeBytes = codeBytes;
        run.dataBytes = dataBytes;
    }
    result.status.resize(machines, MachineStatus::Halted);
    return result;
}

namespace
{

/** Fill the per-fleet totals and emit iss.* metrics. */
void
finishResult(IssBatchResult &result)
{
    std::uint64_t halted = 0, budget = 0, killed = 0, fused = 0,
                  stepped = 0;
    result.totalInstructions = 0;
    result.totalCycles = 0;
    for (std::size_t m = 0; m < result.runs.size(); ++m) {
        result.totalInstructions += result.runs[m].instructions;
        result.totalCycles += result.runs[m].cycles;
        fused += result.runs[m].fusedOps;
        stepped += result.runs[m].steppedInstructions;
        switch (result.status[m]) {
          case MachineStatus::Halted: ++halted; break;
          case MachineStatus::OutOfBudget: ++budget; break;
          case MachineStatus::Killed: ++killed; break;
        }
    }
    metrics::counter("iss.batches").add(1);
    metrics::counter("iss.machines").add(result.runs.size());
    metrics::counter("iss.instructions").add(result.totalInstructions);
    metrics::counter("iss.cycles").add(result.totalCycles);
    metrics::counter("iss.fused_ops").add(fused);
    metrics::counter("iss.stepped_instructions").add(stepped);
    metrics::counter("iss.halted").add(halted);
    metrics::counter("iss.out_of_budget").add(budget);
    metrics::counter("iss.killed").add(killed);
}

IssBatchResult
runCore(LegacyCore core, const IrProgram &prog,
        const std::vector<std::vector<std::uint64_t>> &inputs,
        const IssBatchOptions &opts)
{
    switch (core) {
      case LegacyCore::Light8080:
        return batchRun8080(prog, inputs, I8080Timing::I8080, opts);
      case LegacyCore::Z80:
        return batchRun8080(prog, inputs, I8080Timing::Z80, opts);
      case LegacyCore::OpenMsp430:
        return batchRunMsp430(prog, inputs, opts);
      case LegacyCore::ZpuSmall:
        return batchRunZpu(prog, inputs, opts);
    }
    panic("runLegacyBatch: bad core");
}

} // anonymous namespace

std::uint64_t
issResultFnv(const IssBatchResult &result)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (std::size_t m = 0; m < result.runs.size(); ++m) {
        mix(std::uint64_t(result.status[m]));
        for (std::uint64_t v : result.runs[m].outputs)
            mix(v);
    }
    return h;
}

IssBatchResult
runLegacyBatch(LegacyCore core, const IrProgram &prog,
               const std::vector<std::vector<std::uint64_t>> &inputs,
               const IssBatchOptions &opts)
{
    IssBatchResult result = runCore(core, prog, inputs, opts);
    finishResult(result);
    return result;
}

} // namespace printed::legacy
