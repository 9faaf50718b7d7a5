#include "cosim.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace printed
{

CoreCosim::CoreCosim(const Netlist &netlist, const CoreConfig &config,
                     const Program &program, std::size_t dmem_words)
    : config_(config), ports_(corePorts(netlist, config)),
      sim_(netlist), rom_(program.words()), ram_(dmem_words, 0)
{
    fatalIf(dmem_words == 0 || dmem_words > 256,
            "CoreCosim: data RAM must be 1..256 words");
    fatalIf(program.isa.instructionBits() !=
                config.isa.instructionBits(),
            "CoreCosim: program ISA does not match the core");
    reset();
}

void
CoreCosim::reset()
{
    sim_.reset();
    std::fill(ram_.begin(), ram_.end(), 0);
    halted_ = false;
    samePcStreak_ = 0;
    spinAnchor_ = ~0u;
    streamPos_ = 0;
    drain_ = 0;

    sim_.setInput(ports_.rstn, false);
    sim_.evaluate();
    sim_.step();
    sim_.setInput(ports_.rstn, true);
    sim_.evaluate();
}

void
CoreCosim::setStreamPort(std::size_t addr,
                         std::vector<std::uint64_t> values)
{
    fatalIf(addr >= ram_.size(),
            "CoreCosim::setStreamPort: address out of range");
    fatalIf(values.empty(), "CoreCosim::setStreamPort: empty stream");
    fatalIf(config_.stages != 1,
            "CoreCosim: stream ports are supported on single-cycle "
            "cores only");
    streamAddr_ = long(addr);
    streamValues_ = std::move(values);
    streamPos_ = 0;
}

void
CoreCosim::setMem(std::size_t addr, std::uint64_t value)
{
    fatalIf(addr >= ram_.size(), "CoreCosim::setMem out of range");
    ram_[addr] = value & maskBits(config_.isa.datawidth);
}

std::uint64_t
CoreCosim::mem(std::size_t addr) const
{
    fatalIf(addr >= ram_.size(), "CoreCosim::mem out of range");
    return ram_[addr];
}

unsigned
CoreCosim::pc() const
{
    return unsigned(sim_.readBus(ports_.pc));
}

void
CoreCosim::cycle()
{
    if (halted_)
        return;

    const unsigned pcv = pc();
    std::uint32_t fetched;
    if (pcv >= rom_.size()) {
        // Fell off the end: older instructions may still be in
        // flight in a pipelined core, so feed a harmless never-
        // taken branch (no writeback, no flag update) and drain
        // before halting.
        if (drain_++ >= config_.stages) {
            halted_ = true;
            return;
        }
        fetched = encode(Instruction{Mnemonic::BR, 0, 0},
                         config_.isa);
    } else {
        drain_ = 0;
        fetched = rom_[pcv];
    }

    // Phase 1: present the fetched instruction, settle addresses.
    sim_.setBus(ports_.instr, fetched);
    sim_.evaluate();

    // Determine which ports the executing instruction reads
    // architecturally (needed for stream-port consumption).
    bool reads1 = false, reads2 = false;
    if (streamAddr_ >= 0) {
        const Instruction inst = decode(fetched);
        reads1 = isBinaryAlu(inst.mnemonic) ||
                 inst.mnemonic == Mnemonic::SETBAR;
        reads2 = isBinaryAlu(inst.mnemonic) ||
                 isUnaryAlu(inst.mnemonic);
    }

    auto port_value = [&](std::size_t addr, bool reads) {
        if (streamAddr_ >= 0 && reads &&
            addr == std::size_t(streamAddr_)) {
            const std::uint64_t v = streamValues_[std::min(
                streamPos_, streamValues_.size() - 1)];
            ++streamPos_;
            return v & maskBits(config_.isa.datawidth);
        }
        return addr < ram_.size() ? ram_[addr] : 0;
    };

    // Phase 2: present the data-RAM read results.
    const auto a1 = std::size_t(sim_.readBus(ports_.addr1));
    const auto a2 = std::size_t(sim_.readBus(ports_.addr2));
    sim_.setBus(ports_.rdata1, port_value(a1, reads1));
    sim_.setBus(ports_.rdata2, port_value(a2, reads2));
    sim_.evaluate();

    // Phase 3: commit the write-back, clock the core.
    if (sim_.value(ports_.wen)) {
        const auto wa = std::size_t(sim_.readBus(ports_.waddr));
        if (wa >= ram_.size())
            fatal("CoreCosim: gate-level core wrote address " +
                  std::to_string(wa) + " beyond the " +
                  std::to_string(ram_.size()) + "-word RAM");
        ram_[wa] = sim_.readBus(ports_.wdata) &
                   maskBits(config_.isa.datawidth);
    }
    sim_.step();
    sim_.evaluate();

    // Halt detection: a taken self-branch pins the PC on a single-
    // cycle core; on a pipelined core the flush/refetch makes the
    // spin oscillate between the branch address and its successor.
    // A long streak inside a two-address window means the idle
    // spin was reached. (Caveat: a genuine two-instruction busy
    // loop is indistinguishable from the halt spin on a pipelined
    // core; the workload convention avoids such loops.)
    // A taken self-branch refetches stages-1 sequential successors
    // before the redirect lands, so the spin signature is a
    // backward-by-(stages-1) hop to the branch address.
    const unsigned npc = pc();
    const unsigned span = config_.stages - 1;
    if (npc == pcv) {
        // Pinned PC: the single-cycle spin signature.
        if (++samePcStreak_ >= 4)
            halted_ = true;
    } else if (span > 0 && npc + span == pcv &&
               npc == spinAnchor_) {
        // Repeated backward hop to the same address: the pipelined
        // spin re-taking its self-branch after each flush bubble.
        if (++samePcStreak_ >= 2 * config_.stages)
            halted_ = true;
    } else if (span > 0 && npc + span == pcv) {
        spinAnchor_ = npc; // candidate spin branch address
        samePcStreak_ = 1;
    } else if (npc == pcv + 1 && spinAnchor_ <= pcv &&
               pcv < spinAnchor_ + span) {
        // A forward hop inside the spin window (anchor ..
        // anchor+span): keep the streak alive.
    } else {
        samePcStreak_ = 0;
    }
}

std::uint64_t
CoreCosim::run(std::uint64_t max_cycles)
{
    std::uint64_t cycles = 0;
    while (!halted_ && cycles < max_cycles) {
        cycle();
        ++cycles;
    }
    fatalIf(!halted_, "CoreCosim: cycle budget exhausted");
    return cycles;
}

} // namespace printed
