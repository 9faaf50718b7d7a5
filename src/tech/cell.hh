/**
 * @file
 * Standard-cell kinds and per-cell characterization records.
 *
 * The paper's standard-cell libraries (Section 3) contain exactly
 * eleven X1 cells for each technology; these are the only primitives
 * any netlist in this repository may instantiate, matching the
 * synthesis constraint the paper works under.
 */

#ifndef PRINTED_TECH_CELL_HH
#define PRINTED_TECH_CELL_HH

#include <array>
#include <string>

namespace printed
{

/**
 * The eleven cells of the EGFET / CNT-TFT standard-cell libraries
 * (Table 2), plus two pseudo-cells used only as netlist sources.
 */
enum class CellKind
{
    INVX1,     ///< inverter
    NAND2X1,   ///< 2-input NAND
    NOR2X1,    ///< 2-input NOR
    AND2X1,    ///< 2-input AND
    OR2X1,     ///< 2-input OR
    XOR2X1,    ///< 2-input XOR
    XNOR2X1,   ///< 2-input XNOR
    LATCHX1,   ///< SR latch
    DFFX1,     ///< D flip-flop
    DFFNRX1,   ///< D flip-flop with asynchronous reset
    TSBUFX1,   ///< tri-state buffer
    NumCells
};

/** Number of real library cells. */
constexpr std::size_t numCellKinds =
    static_cast<std::size_t>(CellKind::NumCells);

/** Library cell name as it appears in Table 2 (e.g. "NAND2X1"). */
std::string cellName(CellKind kind);

/** Number of logic inputs of the cell (DFF: 1 = D, DFFNR: 2 = D,RN). */
unsigned cellInputCount(CellKind kind);

/** True for the sequential cells (LATCHX1, DFFX1, DFFNRX1). */
constexpr bool
cellIsSequential(CellKind kind)
{
    return kind == CellKind::LATCHX1 || kind == CellKind::DFFX1 ||
           kind == CellKind::DFFNRX1;
}

/**
 * True when the cell's output is an inverted function of its inputs
 * (INV, NAND, NOR, XNOR). Used by static timing analysis to match
 * output rise transitions with input fall transitions.
 */
constexpr bool
cellIsInverting(CellKind kind)
{
    return kind == CellKind::INVX1 || kind == CellKind::NAND2X1 ||
           kind == CellKind::NOR2X1 || kind == CellKind::XNOR2X1;
}

/**
 * True for non-monotone cells (XOR/XNOR): either input transition
 * direction can cause either output transition direction.
 */
constexpr bool
cellIsNonMonotone(CellKind kind)
{
    return kind == CellKind::XOR2X1 || kind == CellKind::XNOR2X1;
}

/**
 * Characterization record for one standard cell in one technology:
 * the Table 2 data plus the static-power model parameter.
 */
struct CellSpec
{
    CellKind kind = CellKind::INVX1;
    double area_mm2 = 0;   ///< layout area [mm^2]
    double energy_nJ = 0;  ///< switching energy per output toggle [nJ]
    double rise_us = 0;    ///< output rise delay [us]
    double fall_us = 0;    ///< output fall delay [us]

    /**
     * Number of resistor-loaded stages in the cell's
     * transistor-resistor (EGFET) or pseudo-CMOS (CNT-TFT)
     * implementation. Static power is proportional to this count;
     * see CellLibrary::staticPowerUw().
     */
    unsigned staticStages = 1;

    /** Worst-case propagation delay, max(rise, fall), in us. */
    double worstDelayUs() const { return rise_us > fall_us
                                      ? rise_us : fall_us; }
};

} // namespace printed

#endif // PRINTED_TECH_CELL_HH
