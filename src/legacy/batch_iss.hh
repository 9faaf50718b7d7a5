/**
 * @file
 * Fleet-scale instruction-set simulation over the legacy cores
 * (Table 4): run M machines of one program.
 *
 * Each core has one interpreter. A program is compiled and
 * *predecoded* once into a read-only image that every machine
 * shares; a Machine holds only what a run writes (the 8080's three
 * pages, the MSP430's RAM window, the ZPU's word RAM) and keeps its
 * registers in locals while it runs one program to completion. A
 * fleet is split into issChunkMachines-machine chunks spread over
 * the caller's ThreadPool; each pool worker reuses one Machine,
 * reset per machine. A machine's result depends only on its index,
 * so any pool size is bit-identical.
 *
 * Trap contract: a machine is Killed on an undecodable or
 * unimplemented opcode, a PC leaving the code region, or a write
 * outside its writable window (i8080: the register/data/stack
 * pages; MSP430: RAM below 0x2000; ZPU: its word RAM, reads
 * included). A killing instruction is not counted on the 8080 and
 * MSP430 (their loops count after a successful step) but is counted
 * on the ZPU (its loop counts at fetch).
 */

#ifndef PRINTED_LEGACY_BATCH_ISS_HH
#define PRINTED_LEGACY_BATCH_ISS_HH

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "legacy/backend.hh"
#include "legacy/cores.hh"

namespace printed::legacy
{

/** Machines per chunk a pool worker claims in a fleet run. */
constexpr std::size_t issChunkMachines = 64;

/**
 * Compile `prog` once for `core` and run one machine per entry of
 * `inputs` (machine m gets inputs[m]). Emits iss.* metrics.
 */
IssBatchResult runLegacyBatch(
    LegacyCore core, const IrProgram &prog,
    const std::vector<std::vector<std::uint64_t>> &inputs,
    const IssBatchOptions &opts);

/** Canonical short id for a core ("msp430", "z80", ...). */
const char *issCoreId(LegacyCore core);

/** Parse an issCoreId back; nullopt for unknown ids. */
std::optional<LegacyCore> issCoreFromId(const std::string &id);

/**
 * A result for `machines` machines of one program, every run
 * carrying the program's code and data sizes (internal helper of
 * the per-core fleet entries).
 */
IssBatchResult issNewResult(std::size_t machines,
                            std::size_t codeBytes,
                            std::size_t dataBytes);

/**
 * Run body(machine, m) for every m in [0, machines) in
 * issChunkMachines-machine chunks over opts.pool, or without one
 * over a one-thread pool local to the call: one job of `chunks`
 * items either way, so parallel.jobs/items do not depend on the
 * pool. Each worker reuses one copy of `proto`, so body resets it
 * before each run. A fleet of one chunk runs inline on the caller.
 */
template <typename Machine, typename Body>
void
issRunFleet(const IssBatchOptions &opts, std::size_t machines,
            const Machine &proto, Body &&body)
{
    const std::size_t chunks =
        (machines + issChunkMachines - 1) / issChunkMachines;
    const auto runChunk = [&](Machine &mach, std::size_t c) {
        const std::size_t lo = c * issChunkMachines;
        const std::size_t hi = std::min(machines, lo + issChunkMachines);
        for (std::size_t m = lo; m < hi; ++m)
            body(mach, m);
    };
    if (chunks <= 1) {
        Machine mach = proto;
        for (std::size_t c = 0; c < chunks; ++c)
            runChunk(mach, c);
        return;
    }
    std::optional<ThreadPool> local;
    ThreadPool &pool = opts.pool ? *opts.pool : local.emplace(1);
    std::vector<Machine> perWorker(pool.threadCount(), proto);
    pool.parallelForWorkers(chunks, [&](std::size_t c, unsigned w) {
        runChunk(perWorker[w], c);
    });
}

/**
 * Order-sensitive FNV-1a (64-bit) over every machine's status and
 * outputs — the cross-thread-count fingerprint the sweep, profile,
 * and service layers compare and render.
 */
std::uint64_t issResultFnv(const IssBatchResult &result);

} // namespace printed::legacy

#endif // PRINTED_LEGACY_BATCH_ISS_HH
