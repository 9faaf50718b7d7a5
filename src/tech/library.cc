#include "library.hh"

#include "common/logging.hh"

namespace printed
{

namespace
{

/**
 * Resistor-loaded stage counts per cell. These approximate the
 * transistor-resistor (EGFET) / pseudo-CMOS (CNT-TFT) internal
 * structure: simple inverting gates are one stage, composed gates
 * (AND = NAND + INV) two, XOR-class three, and the sequential cells
 * proportionally more, which is why DFFs dominate static power in
 * printed cores (Section 5 of the paper).
 */
constexpr std::array<unsigned, numCellKinds> stageCounts = {
    1,  // INVX1
    1,  // NAND2X1
    1,  // NOR2X1
    2,  // AND2X1
    2,  // OR2X1
    3,  // XOR2X1
    3,  // XNOR2X1
    4,  // LATCHX1
    8,  // DFFX1
    10, // DFFNRX1
    2,  // TSBUFX1
};

CellSpec
makeCell(CellKind kind, double area, double energy, double rise,
         double fall)
{
    CellSpec spec;
    spec.kind = kind;
    spec.area_mm2 = area;
    spec.energy_nJ = energy;
    spec.rise_us = rise;
    spec.fall_us = fall;
    spec.staticStages = stageCounts[static_cast<std::size_t>(kind)];
    return spec;
}

} // anonymous namespace

CellLibrary::CellLibrary(TechKind kind, double vdd,
                         double static_per_stage_uw,
                         std::array<CellSpec, numCellKinds> cells)
    : tech_(kind), vdd_(vdd), staticPerStageUw_(static_per_stage_uw),
      cells_(cells)
{
    for (std::size_t i = 0; i < numCellKinds; ++i) {
        panicIf(cells_[i].kind != static_cast<CellKind>(i),
                "CellLibrary: cells out of order");
        if (cells_[i].area_mm2 <= 0 || cells_[i].rise_us <= 0 ||
            cells_[i].fall_us <= 0)
            fatal("CellLibrary: non-positive characterization for " +
                  cellName(cells_[i].kind));
    }
}

std::string
CellLibrary::name() const
{
    return techName(tech_) + "@" +
           std::to_string(static_cast<int>(vdd_)) + "V";
}

const CellSpec &
CellLibrary::cell(CellKind kind) const
{
    const auto idx = static_cast<std::size_t>(kind);
    panicIf(idx >= numCellKinds, "CellLibrary::cell: bad kind");
    return cells_[idx];
}

double
CellLibrary::staticPowerUw(CellKind kind) const
{
    return staticPerStageUw_ * cell(kind).staticStages;
}

double
CellLibrary::flopPeriodFloorUs() const
{
    return cell(CellKind::DFFX1).worstDelayUs();
}

const CellLibrary &
egfetLibrary()
{
    // Table 2, EGFET columns, VDD = 1 V. Units: mm^2, nJ, us, us.
    //
    // The static-power coefficient (uW per stage) is calibrated so
    // that the four legacy-core powers of Table 4 are reproduced by
    // the characterization engine; see tests/test_legacy.cc.
    static const CellLibrary lib(
        TechKind::EGFET, 1.0, /*static_per_stage_uw=*/5.8,
        {
            makeCell(CellKind::INVX1,   0.224, 9.8,    1212, 174),
            makeCell(CellKind::NAND2X1, 0.247, 12.1,   1557, 986),
            makeCell(CellKind::NOR2X1,  0.399, 580,    1830, 904),
            makeCell(CellKind::AND2X1,  0.433, 584.1,  2101, 1284),
            makeCell(CellKind::OR2X1,   0.563, 603,    2040, 1271),
            makeCell(CellKind::XOR2X1,  1.04,  1460,   5474, 4982),
            makeCell(CellKind::XNOR2X1, 1.34,  1510,   6159, 3420),
            makeCell(CellKind::LATCHX1, 0.58,  624,    2643, 942),
            makeCell(CellKind::DFFX1,   1.41,  2360,   6149, 3923),
            makeCell(CellKind::DFFNRX1, 2.77,  3941,   5935, 4453),
            makeCell(CellKind::TSBUFX1, 0.446, 597,    2553, 1004),
        });
    return lib;
}

const CellLibrary &
cntLibrary()
{
    // Table 2, CNT-TFT columns, VDD = 3 V. Units: mm^2, nJ, us, us.
    //
    // Pseudo-CMOS has much lower static draw than transistor-resistor
    // logic; the small coefficient reflects its residual leakage.
    static const CellLibrary lib(
        TechKind::CNT_TFT, 3.0, /*static_per_stage_uw=*/1.9,
        {
            makeCell(CellKind::INVX1,   0.002, 0.093, 0.058, 2.9),
            makeCell(CellKind::NAND2X1, 0.003, 10.01, 0.088, 7.99),
            makeCell(CellKind::NOR2X1,  0.003, 18.61, 0.108, 3.65),
            makeCell(CellKind::AND2X1,  0.005, 18.35, 0.171, 8.05),
            makeCell(CellKind::OR2X1,   0.005, 21.33, 0.121, 4.10),
            makeCell(CellKind::XOR2X1,  0.012, 36.7,  1.908, 5.65),
            makeCell(CellKind::XNOR2X1, 0.014, 37.1,  2.118, 5.97),
            makeCell(CellKind::LATCHX1, 0.006, 19.55, 0.221, 3.75),
            makeCell(CellKind::DFFX1,   0.018, 41.5,  3.78,  4.19),
            makeCell(CellKind::DFFNRX1, 0.042, 50.7,  8.61,  8.77),
            makeCell(CellKind::TSBUFX1, 0.003, 19.5,  0.109, 2.83),
        });
    return lib;
}

const CellLibrary &
libraryFor(TechKind kind)
{
    switch (kind) {
      case TechKind::EGFET:
        return egfetLibrary();
      case TechKind::CNT_TFT:
        return cntLibrary();
    }
    panic("libraryFor: unknown TechKind");
}

} // namespace printed
