/**
 * @file
 * TP-ISA core configuration: the design-space knobs of Section 5.2
 * (pipeline depth, datawidth, BAR count) plus the program-specific
 * shrink parameters of Section 7 (PC width, BAR width, live flags,
 * operand width).
 */

#ifndef PRINTED_CORE_CONFIG_HH
#define PRINTED_CORE_CONFIG_HH

#include <string>

#include "isa/isa.hh"

namespace printed
{

/** Full configuration of one TP-ISA core instance. */
struct CoreConfig
{
    /** Pipeline stages: 1 (single cycle), 2 (F | DXW), or
     *  3 (F | D/addr | XW). */
    unsigned stages = 1;

    /** ISA variant: datawidth, BAR count, PC width, operand width. */
    IsaConfig isa;

    /**
     * Live-flag mask (bit3=S, bit2=Z, bit1=C, bit0=V). Standard
     * cores keep all four; program-specific cores drop unused flags
     * and their generation logic (Section 7).
     */
    unsigned flagMask = 0xF;

    /** Width of each BAR register (shrunk by specialization). */
    unsigned barBits = 8;

    /**
     * Implemented primary opcodes, one bit per Opcode value.
     * Standard cores implement everything; program-specific cores
     * prune the ALU blocks of unused instructions (the ASIP-style
     * pruning Section 7 cites), which drops the corresponding
     * datapath and flag logic entirely.
     */
    unsigned opcodeMask = 0x3FF;

    /** True when the core implements the given opcode. */
    bool
    implements(Opcode op) const
    {
        return opcodeMask & (1u << static_cast<unsigned>(op));
    }

    /**
     * ALU result-mux topology: tri-state bus (default; one TSBUFX1
     * per source per bit) vs. an AND-OR one-hot mux. Exposed for
     * the ablation study of this design choice
     * (bench_ablation_printed).
     */
    bool tristateResultMux = true;

    /** Data-memory address width (8 for the 256-word standard ISA). */
    unsigned addrBits = 8;

    /** Number of live flags. */
    unsigned flagCount() const;

    /** Paper-style label pP_D_B, e.g. "p1_8_2". */
    std::string label() const;

    /** Validate; fatal() on inconsistent settings. */
    void check() const;

    /**
     * Identity: every field, in declaration order. SynthCache keys
     * on it, so each new field is part of the key by construction.
     */
    auto operator<=>(const CoreConfig &) const = default;

    /** Standard (non-program-specific) core, as in Figure 7. */
    static CoreConfig
    standard(unsigned stages, unsigned datawidth, unsigned bar_count)
    {
        CoreConfig cfg;
        cfg.stages = stages;
        cfg.isa.datawidth = datawidth;
        cfg.isa.barCount = bar_count;
        return cfg;
    }
};

} // namespace printed

#endif // PRINTED_CORE_CONFIG_HH
