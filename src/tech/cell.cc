#include "cell.hh"

#include "common/logging.hh"

namespace printed
{

std::string
cellName(CellKind kind)
{
    switch (kind) {
      case CellKind::INVX1:   return "INVX1";
      case CellKind::NAND2X1: return "NAND2X1";
      case CellKind::NOR2X1:  return "NOR2X1";
      case CellKind::AND2X1:  return "AND2X1";
      case CellKind::OR2X1:   return "OR2X1";
      case CellKind::XOR2X1:  return "XOR2X1";
      case CellKind::XNOR2X1: return "XNOR2X1";
      case CellKind::LATCHX1: return "LATCHX1";
      case CellKind::DFFX1:   return "DFFX1";
      case CellKind::DFFNRX1: return "DFFNRX1";
      case CellKind::TSBUFX1: return "TSBUFX1";
      default:
        panic("cellName: unknown CellKind");
    }
}

unsigned
cellInputCount(CellKind kind)
{
    switch (kind) {
      case CellKind::INVX1:
      case CellKind::DFFX1:
        return 1;
      case CellKind::NAND2X1:
      case CellKind::NOR2X1:
      case CellKind::AND2X1:
      case CellKind::OR2X1:
      case CellKind::XOR2X1:
      case CellKind::XNOR2X1:
      case CellKind::LATCHX1:  // S, R
      case CellKind::DFFNRX1:  // D, RN
      case CellKind::TSBUFX1:  // A, EN
        return 2;
      default:
        panic("cellInputCount: unknown CellKind");
    }
}

} // namespace printed
