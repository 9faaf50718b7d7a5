#include "batch_cosim.hh"

#include <algorithm>
#include <bit>

#include "common/bits.hh"
#include "common/logging.hh"

namespace printed
{

BatchCoreCosim::BatchCoreCosim(const Netlist &netlist,
                               const CoreConfig &config,
                               const Program &program,
                               std::size_t dmem_words)
    : config_(config), ports_(corePorts(netlist, config)),
      sim_(netlist), rom_(program.words()),
      ram_(dmem_words * laneCount, 0), ramWords_(dmem_words)
{
    fatalIf(dmem_words == 0 || dmem_words > 256,
            "BatchCoreCosim: data RAM must be 1..256 words");
    fatalIf(program.isa.instructionBits() !=
                config.isa.instructionBits(),
            "BatchCoreCosim: program ISA does not match the core");
    drainInstr_ = encode(Instruction{Mnemonic::BR, 0, 0},
                         config_.isa);
    reset();
}

void
BatchCoreCosim::reset()
{
    sim_.reset();
    std::fill(ram_.begin(), ram_.end(), 0);
    halted_ = 0;
    looped_ = 0;
    harness_.fill(LaneHarness{});

    sim_.setInputAll(ports_.rstn, false);
    sim_.evaluate();
    sim_.step();
    sim_.setInputAll(ports_.rstn, true);
    sim_.evaluate();
}

void
BatchCoreCosim::setStreamPort(std::size_t addr,
                              std::vector<std::uint64_t> values)
{
    fatalIf(addr >= ramWords_,
            "BatchCoreCosim::setStreamPort: address out of range");
    fatalIf(values.empty(),
            "BatchCoreCosim::setStreamPort: empty stream");
    fatalIf(config_.stages != 1,
            "BatchCoreCosim: stream ports are supported on "
            "single-cycle cores only");
    streamAddr_ = long(addr);
    streamValues_ = std::move(values);
    for (LaneHarness &h : harness_)
        h.streamPos = 0;
}

void
BatchCoreCosim::setMemAll(std::size_t addr, std::uint64_t value)
{
    fatalIf(addr >= ramWords_, "BatchCoreCosim::setMemAll range");
    const std::uint64_t v = value & maskBits(config_.isa.datawidth);
    for (unsigned lane = 0; lane < laneCount; ++lane)
        ram_[lane * ramWords_ + addr] = v;
}

std::uint64_t
BatchCoreCosim::mem(unsigned lane, std::size_t addr) const
{
    fatalIf(lane >= laneCount || addr >= ramWords_,
            "BatchCoreCosim::mem out of range");
    return ram_[lane * ramWords_ + addr];
}

unsigned
BatchCoreCosim::pc(unsigned lane) const
{
    return unsigned(sim_.readBusLane(ports_.pc, lane));
}

void
BatchCoreCosim::haltLane(unsigned lane)
{
    halted_ |= LaneMask(1) << lane;
    sim_.retireLanes(LaneMask(1) << lane);
}

void
BatchCoreCosim::driveBus(
    const Bus &bus, const std::array<std::uint64_t, laneCount> &vals,
    LaneMask lanes)
{
    for (std::size_t i = 0; i < bus.size(); ++i) {
        LaneMask w = sim_.word(bus[i]) & ~lanes;
        for (LaneMask m = lanes; m; m &= m - 1) {
            const unsigned lane = unsigned(std::countr_zero(m));
            if ((vals[lane] >> i) & 1)
                w |= LaneMask(1) << lane;
        }
        sim_.setInput(bus[i], w);
    }
}

void
BatchCoreCosim::cycle()
{
    LaneMask active = activeLanes();
    if (!active)
        return;

    // Phase 1: fetch per lane (with per-lane fall-off-the-end
    // draining, exactly as the scalar harness), present the
    // instruction words, settle addresses.
    std::array<unsigned, laneCount> pcv{};
    std::array<std::uint64_t, laneCount> instr{};
    for (LaneMask m = active; m; m &= m - 1) {
        const unsigned lane = unsigned(std::countr_zero(m));
        const LaneMask bit = LaneMask(1) << lane;
        pcv[lane] = unsigned(sim_.readBusLane(ports_.pc, lane));
        if (pcv[lane] >= rom_.size()) {
            if (harness_[lane].drain++ >= config_.stages) {
                haltLane(lane);
                active &= ~bit;
                continue;
            }
            instr[lane] = drainInstr_;
        } else {
            harness_[lane].drain = 0;
            instr[lane] = rom_[pcv[lane]];
        }
    }
    if (!active)
        return;

    driveBus(ports_.instr, instr, active);
    sim_.evaluate();
    active &= sim_.observedLanes(); // bus conflicts kill lanes

    // Phase 2: present the data-RAM read results per lane,
    // consuming the memory-mapped stream where an executing
    // instruction architecturally reads it.
    const std::uint64_t dmask = maskBits(config_.isa.datawidth);
    std::array<std::uint64_t, laneCount> r1{}, r2{};
    for (LaneMask m = active; m; m &= m - 1) {
        const unsigned lane = unsigned(std::countr_zero(m));
        bool reads1 = false, reads2 = false;
        if (streamAddr_ >= 0) {
            const Instruction inst =
                decode(std::uint32_t(instr[lane]));
            reads1 = isBinaryAlu(inst.mnemonic) ||
                     inst.mnemonic == Mnemonic::SETBAR;
            reads2 = isBinaryAlu(inst.mnemonic) ||
                     isUnaryAlu(inst.mnemonic);
        }
        auto port_value = [&](std::size_t addr, bool reads) {
            std::size_t &pos = harness_[lane].streamPos;
            if (streamAddr_ >= 0 && reads &&
                addr == std::size_t(streamAddr_)) {
                const std::uint64_t v = streamValues_[std::min(
                    pos, streamValues_.size() - 1)];
                ++pos;
                return v & dmask;
            }
            return addr < ramWords_ ? ram_[lane * ramWords_ + addr]
                                    : std::uint64_t(0);
        };
        const auto a1 =
            std::size_t(sim_.readBusLane(ports_.addr1, lane));
        const auto a2 =
            std::size_t(sim_.readBusLane(ports_.addr2, lane));
        r1[lane] = port_value(a1, reads1);
        r2[lane] = port_value(a2, reads2);
    }
    driveBus(ports_.rdata1, r1, active);
    driveBus(ports_.rdata2, r2, active);
    sim_.evaluate();
    active &= sim_.observedLanes();

    // Phase 3: commit per-lane write-backs, clock the core. A lane
    // whose core writes beyond the RAM is killed where the scalar
    // harness throws FatalError.
    for (LaneMask m = sim_.word(ports_.wen) & active; m; m &= m - 1) {
        const unsigned lane = unsigned(std::countr_zero(m));
        const LaneMask bit = LaneMask(1) << lane;
        const auto wa =
            std::size_t(sim_.readBusLane(ports_.waddr, lane));
        if (wa >= ramWords_) {
            sim_.killLanes(bit,
                           BatchGateSimulator::KillReason::Harness);
            active &= ~bit;
            continue;
        }
        ram_[lane * ramWords_ + wa] =
            sim_.readBusLane(ports_.wdata, lane) & dmask;
    }
    sim_.step();
    sim_.evaluate();
    active &= sim_.observedLanes(); // SR-latch kills during step()

    // Halt detection per lane: same spin signatures as the scalar
    // harness (pinned PC on a single-cycle core, repeated backward-
    // by-(stages-1) hop on a pipelined one).
    const unsigned span = config_.stages - 1;
    for (LaneMask m = active; m; m &= m - 1) {
        const unsigned lane = unsigned(std::countr_zero(m));
        LaneHarness &h = harness_[lane];
        const unsigned cur = pcv[lane];
        const unsigned npc =
            unsigned(sim_.readBusLane(ports_.pc, lane));
        if (npc == cur) {
            if (++h.samePcStreak >= 4)
                haltLane(lane);
        } else if (span > 0 && npc + span == cur &&
                   npc == h.spinAnchor) {
            if (++h.samePcStreak >= 2 * config_.stages)
                haltLane(lane);
        } else if (span > 0 && npc + span == cur) {
            h.spinAnchor = npc; // candidate spin branch address
            h.samePcStreak = 1;
        } else if (npc == cur + 1 && h.spinAnchor <= cur &&
                   cur < h.spinAnchor + span) {
            // Forward hop inside the spin window: keep the streak.
        } else {
            h.samePcStreak = 0;
        }
    }
}

void
BatchCoreCosim::saveSnapshot()
{
    sim_.saveState(snapshot_.words);
    snapshot_.ram = ram_;
    snapshot_.harness = harness_;
}

LaneMask
BatchCoreCosim::lanesAtSnapshot() const
{
    // One pass over the lane words narrows the block to the lanes
    // whose simulator state repeats; only those compare their RAM
    // and harness state.
    LaneMask same =
        activeLanes() & sim_.sameStateLanes(snapshot_.words);
    for (LaneMask m = same; m; m &= m - 1) {
        const unsigned lane = unsigned(std::countr_zero(m));
        const std::uint64_t *ram = ram_.data() + lane * ramWords_;
        const std::uint64_t *saved =
            snapshot_.ram.data() + lane * ramWords_;
        if (harness_[lane] != snapshot_.harness[lane] ||
            !std::equal(ram, ram + ramWords_, saved))
            same &= ~(LaneMask(1) << lane);
    }
    return same;
}

std::uint64_t
BatchCoreCosim::run(std::uint64_t max_cycles)
{
    std::uint64_t cycles = 0;
    saveSnapshot();
    while (activeLanes() && cycles < max_cycles) {
        cycle();
        ++cycles;
        if (const LaneMask looped = lanesAtSnapshot()) {
            looped_ |= looped;
            sim_.retireLanes(looped);
        }
        if (std::has_single_bit(cycles))
            saveSnapshot();
    }
    return cycles;
}

} // namespace printed
