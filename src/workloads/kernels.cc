#include "kernels.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "workloads/builder.hh"

namespace printed
{

void
Workload::load(const Poke &poke,
               const std::vector<std::uint64_t> &inputs) const
{
    // Stream inputs bypass memory entirely.
    if (kind == Kernel::Crc8)
        return;
    if (inputs.size() != inputAddrs.size())
        fatal("Workload::load: expected " +
              std::to_string(inputAddrs.size()) + " inputs");
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        for (unsigned w = 0; w < wordsPerVar; ++w) {
            const std::uint64_t slice =
                (inputs[i] >> (w * coreWidth)) & maskBits(coreWidth);
            poke(inputAddrs[i] + w, slice);
        }
    }
}

std::vector<std::uint64_t>
Workload::read(const Peek &peek) const
{
    std::vector<std::uint64_t> out;
    out.reserve(outputAddrs.size());
    for (unsigned base : outputAddrs) {
        std::uint64_t v = 0;
        for (unsigned w = 0; w < wordsPerVar; ++w)
            v |= peek(base + w) << (w * coreWidth);
        out.push_back(v & maskBits(dataWidth));
    }
    return out;
}

std::vector<std::uint64_t>
Workload::streamInputs(const std::vector<std::uint64_t> &inputs) const
{
    if (kind != Kernel::Crc8)
        return {};
    return inputs;
}

namespace
{

/** mult: shift-and-add multiply, W iterations. */
Workload
makeMult(AsmBuilder &b)
{
    Workload wl;
    const unsigned p = b.allocVar("product");
    const unsigned m = b.allocVar("multiplicand");
    const unsigned q = b.allocVar("multiplier");
    const unsigned cnt = b.allocWord("count");
    const unsigned c1 = b.allocWord("one");

    b.storeVarImm(p, 0);
    b.storeW({0, cnt}, b.dataWidth());
    b.storeW({0, c1}, 1);
    const std::string loop = b.newLabel("loop");
    const std::string skip = b.newLabel("skip");
    b.placeLabel(loop);
    b.shrVar(q);          // C = multiplier LSB
    b.brNC(skip);
    b.addVar(p, m);       // product += multiplicand
    b.placeLabel(skip);
    b.shlVar(m);          // multiplicand <<= 1
    b.subW({0, cnt}, {0, c1});
    b.brNZ(loop);
    b.halt();

    wl.inputAddrs = {m, q};
    wl.outputAddrs = {p};
    return wl;
}

/** div: restoring division, W iterations; quotient and remainder. */
Workload
makeDiv(AsmBuilder &b)
{
    Workload wl;
    const unsigned q = b.allocVar("dividend_quotient");
    const unsigned d = b.allocVar("divisor");
    const unsigned r = b.allocVar("remainder");
    const unsigned cnt = b.allocWord("count");
    const unsigned c1 = b.allocWord("one");
    const unsigned w = b.wordsPerVar();

    b.storeVarImm(r, 0);
    b.storeW({0, cnt}, b.dataWidth());
    b.storeW({0, c1}, 1);
    const std::string loop = b.newLabel("loop");
    const std::string setbit = b.newLabel("setbit");
    const std::string next = b.newLabel("next");
    b.placeLabel(loop);
    // (R:Q) <<= 1 as one carry chain across both variables.
    b.testW({0, q}, {0, q});
    for (unsigned i = 0; i < w; ++i)
        b.ins("RLC", {0, q + i}, {0, q + i});
    for (unsigned i = 0; i < w; ++i)
        b.ins("RLC", {0, r + i}, {0, r + i});
    b.subVar(r, d);
    b.brC(setbit);        // no borrow: R >= D, quotient bit is 1
    b.addVar(r, d);       // restore
    b.jmp(next);
    b.placeLabel(setbit);
    b.orW({0, q}, {0, c1});
    b.placeLabel(next);
    b.subW({0, cnt}, {0, c1});
    b.brNZ(loop);
    b.halt();

    wl.inputAddrs = {q, d};
    wl.outputAddrs = {q, r};
    return wl;
}

/** inSort: insertion sort of 16 elements via BAR pointers. */
Workload
makeInSort(AsmBuilder &b)
{
    Workload wl;
    const unsigned w = b.wordsPerVar();
    const unsigned arr = b.allocArray("arr", kernelArrayLen);
    const unsigned key = b.allocVar("key");
    const unsigned tmp = b.allocVar("tmp");
    const unsigned scratch = b.allocVar("scratch");
    const unsigned i_ptr = b.allocWord("iPtr");
    const unsigned rd_ptr = b.allocWord("rdPtr");
    const unsigned wr_ptr = b.allocWord("wrPtr");
    const unsigned c_stride = b.allocWord("stride");
    const unsigned c_base = b.allocWord("base");
    const unsigned c_end = b.allocWord("end");

    b.storeW({0, i_ptr}, arr + w);
    b.storeW({0, c_stride}, w);
    b.storeW({0, c_base}, arr);
    b.storeW({0, c_end}, arr + unsigned(kernelArrayLen) * w);

    const std::string outer = b.newLabel("outer");
    const std::string inner = b.newLabel("inner");
    const std::string place = b.newLabel("place");

    b.placeLabel(outer);
    b.setbar(i_ptr, 1);
    b.movVarFromBar(key, 1);          // key = arr[i]
    b.movW({0, rd_ptr}, {0, i_ptr});
    b.subW({0, rd_ptr}, {0, c_stride});
    b.movW({0, wr_ptr}, {0, i_ptr});

    b.placeLabel(inner);
    // Hit the front of the array when the write slot is arr[0]
    // (equality test: rd_ptr may wrap below the array base).
    b.cmpW({0, wr_ptr}, {0, c_base});
    b.brZ(place);
    b.setbar(rd_ptr, 1);
    b.movVarFromBar(tmp, 1);          // tmp = arr[rd]
    if (w == 1) {
        b.cmpW({0, key}, {0, tmp});   // key - tmp, no writeback
    } else {
        b.movVar(scratch, key);
        b.subVar(scratch, tmp);       // key - tmp
    }
    b.brC(place);                     // no borrow: tmp <= key
    b.setbar(wr_ptr, 1);
    b.movVarToBar(1, 0, tmp);         // arr[wr] = tmp (shift right)
    b.subW({0, rd_ptr}, {0, c_stride});
    b.subW({0, wr_ptr}, {0, c_stride});
    b.jmp(inner);

    b.placeLabel(place);
    b.setbar(wr_ptr, 1);
    b.movVarToBar(1, 0, key);         // arr[wr] = key
    b.addW({0, i_ptr}, {0, c_stride});
    b.cmpW({0, i_ptr}, {0, c_end});
    b.brNZ(outer);
    b.halt();

    for (unsigned e = 0; e < kernelArrayLen; ++e) {
        wl.inputAddrs.push_back(arr + e * w);
        wl.outputAddrs.push_back(arr + e * w);
    }
    return wl;
}

/** intAvg: unrolled sum of 16 elements, then divide by 16. */
Workload
makeIntAvg(AsmBuilder &b)
{
    Workload wl;
    const unsigned w = b.wordsPerVar();
    const unsigned arr = b.allocArray("arr", kernelArrayLen);
    const unsigned sum = b.allocVar("sum");

    // Straight-line: no BARs, no conditional branches (the inputs
    // are bounded so the W-bit sum cannot overflow, matching the
    // paper's flag-light intAvg).
    b.movVar(sum, arr);
    for (unsigned e = 1; e < kernelArrayLen; ++e)
        b.addVar(sum, arr + e * w);
    for (int s = 0; s < 4; ++s)
        b.shrVar(sum); // /16
    b.halt();

    for (unsigned e = 0; e < kernelArrayLen; ++e)
        wl.inputAddrs.push_back(arr + e * w);
    wl.outputAddrs = {sum};
    return wl;
}

/** tHold: count elements strictly above a threshold. */
Workload
makeTHold(AsmBuilder &b)
{
    Workload wl;
    const unsigned w = b.wordsPerVar();
    const unsigned arr = b.allocArray("arr", kernelArrayLen);
    const unsigned thr = b.allocVar("threshold");
    const unsigned tmp = b.allocVar("tmp");
    const unsigned count = b.allocVar("count");
    const unsigned ptr = b.allocWord("ptr");
    const unsigned cnt = b.allocWord("cnt");
    const unsigned c1 = b.allocWord("one");
    const unsigned c_stride = b.allocWord("stride");

    b.storeVarImm(count, 0);
    b.storeW({0, ptr}, arr);
    b.storeW({0, cnt}, unsigned(kernelArrayLen));
    b.storeW({0, c1}, 1);
    b.storeW({0, c_stride}, w);

    const std::string loop = b.newLabel("loop");
    const std::string skip = b.newLabel("skip");
    b.placeLabel(loop);
    b.setbar(ptr, 1);
    b.movVar(tmp, thr);
    b.subVarFromBar(tmp, 1);          // thr - arr[i]
    b.brC(skip);                      // no borrow: arr[i] <= thr
    b.addW({0, count}, {0, c1});
    b.placeLabel(skip);
    b.addW({0, ptr}, {0, c_stride});
    b.subW({0, cnt}, {0, c1});
    b.brNZ(loop);
    b.halt();

    for (unsigned e = 0; e < kernelArrayLen; ++e)
        wl.inputAddrs.push_back(arr + e * w);
    wl.inputAddrs.push_back(thr);
    wl.outputAddrs = {count};
    return wl;
}

/** crc8: CRC-8 over a 16-byte memory-mapped stream (8-bit only). */
Workload
makeCrc8(AsmBuilder &b)
{
    fatalIf(b.dataWidth() != 8 || b.coreWidth() != 8,
            "crc8 is an 8-bit kernel (Table 8)");
    Workload wl;
    const unsigned crc = b.allocVar("crc");
    const unsigned stream = b.allocWord("stream_port");
    const unsigned cnt = b.allocWord("byte_count");
    const unsigned bit = b.allocWord("bit_count");
    const unsigned c1 = b.allocWord("one");
    const unsigned poly = b.allocWord("poly_adj");

    b.storeW({0, crc}, 0);
    b.storeW({0, cnt}, unsigned(crcStreamLen));
    b.storeW({0, c1}, 1);
    // RL sets bit0 to the rotated-out MSB (1 on the XOR path), so
    // the polynomial 0x07 is pre-adjusted to 0x06.
    b.storeW({0, poly}, 0x06);

    const std::string byteloop = b.newLabel("byteloop");
    const std::string bitloop = b.newLabel("bitloop");
    const std::string nofix = b.newLabel("nofix");
    b.placeLabel(byteloop);
    b.xorW({0, crc}, {0, stream});    // crc ^= next stream byte
    b.storeW({0, bit}, 8);
    b.placeLabel(bitloop);
    b.ins("RL", {0, crc}, {0, crc});  // C = old MSB
    b.brNC(nofix);
    b.xorW({0, crc}, {0, poly});
    b.placeLabel(nofix);
    b.subW({0, bit}, {0, c1});
    b.brNZ(bitloop);
    b.subW({0, cnt}, {0, c1});
    b.brNZ(byteloop);
    b.halt();

    wl.streamAddr = long(stream);
    wl.outputAddrs = {crc};
    return wl;
}

/** dTree: the 256-instruction hardcoded decision tree. */
Workload
makeDTree(AsmBuilder &b)
{
    fatalIf(b.wordsPerVar() != 1,
            "dTree runs at the core's native width only (Section 8)");
    Workload wl;
    const unsigned s0 = b.allocVar("s0");
    const unsigned s1 = b.allocVar("s1");
    const unsigned s2 = b.allocVar("s2");
    const unsigned tmp = b.allocVar("tmp");
    const unsigned out = b.allocVar("class");
    const unsigned sensors[3] = {s0, s1, s2};

    const std::string end = "tree_end";

    // Emit the tree in DFS pre-order; right children get labels.
    struct Frame
    {
        unsigned node;
        bool needLabel;
    };
    std::vector<Frame> stack = {{1, false}};
    auto is_internal = [](unsigned node) {
        return node < 32 || node < 32 + 19; // see golden.cc
    };
    auto depth_of = [](unsigned node) {
        unsigned d = 0;
        while (node > 1) {
            node >>= 1;
            ++d;
        }
        return d;
    };

    unsigned instructions = 0;
    while (!stack.empty()) {
        const Frame f = stack.back();
        stack.pop_back();
        if (f.needLabel)
            b.placeLabel("node_" + std::to_string(f.node));
        if (is_internal(f.node)) {
            const unsigned input = sensors[depth_of(f.node) % 3];
            b.storeW({0, tmp}, golden::dTreeThreshold(f.node));
            b.cmpW({0, tmp}, {0, input}); // thr - s
            b.branch("node_" + std::to_string(2 * f.node + 1), "C",
                     true); // taken when s > thr
            instructions += 3;
            // Right child needs its label; left child continues
            // inline (push right first so left pops next).
            stack.push_back({2 * f.node + 1, true});
            stack.push_back({2 * f.node, false});
        } else {
            b.storeW({0, out}, f.node); // class label = leaf id
            b.jmp(end);
            instructions += 2;
        }
    }

    // Pad to exactly 256 instruction words (the paper sizes dTree
    // to fill the whole 8-bit PC space).
    while (instructions + 1 < 256) {
        b.testW({0, tmp}, {0, tmp});
        ++instructions;
    }
    b.placeLabel(end);
    b.branch(end, "#0", true); // halt spin
    ++instructions;
    panicIf(instructions != 256, "dTree: expected 256 instructions");

    wl.inputAddrs = {s0, s1, s2};
    wl.outputAddrs = {out};
    return wl;
}

} // anonymous namespace

Workload
makeWorkload(Kernel kind, unsigned data_width, unsigned core_width,
             unsigned bar_count)
{
    AsmBuilder b(data_width, core_width, bar_count);
    Workload wl;
    switch (kind) {
      case Kernel::Mult:   wl = makeMult(b); break;
      case Kernel::Div:    wl = makeDiv(b); break;
      case Kernel::InSort: wl = makeInSort(b); break;
      case Kernel::IntAvg: wl = makeIntAvg(b); break;
      case Kernel::THold:  wl = makeTHold(b); break;
      case Kernel::Crc8:   wl = makeCrc8(b); break;
      case Kernel::DTree:  wl = makeDTree(b); break;
      default:
        fatal("makeWorkload: unknown kernel");
    }
    wl.kind = kind;
    wl.dataWidth = data_width;
    wl.coreWidth = core_width;
    wl.wordsPerVar = b.wordsPerVar();
    wl.dmemWords = b.dmemWords();
    wl.program = b.assemble(std::string(kernelName(kind)) + "_" +
                            std::to_string(data_width) + "_on_" +
                            std::to_string(core_width));
    return wl;
}

std::vector<std::uint64_t>
defaultInputs(Kernel kind, unsigned data_width, std::uint64_t seed)
{
    Rng rng(seed * 7919 + data_width);
    const std::uint64_t mask = maskBits(data_width);
    std::vector<std::uint64_t> in;
    switch (kind) {
      case Kernel::Mult:
        in = {rng.next() & mask, rng.next() & mask};
        break;
      case Kernel::Div: {
        std::uint64_t divisor = rng.next() & mask;
        if (divisor == 0)
            divisor = 3;
        in = {rng.next() & mask, divisor};
        break;
      }
      case Kernel::InSort:
        for (std::size_t i = 0; i < kernelArrayLen; ++i)
            in.push_back(rng.next() & mask);
        break;
      case Kernel::IntAvg:
        // Bounded so the W-bit sum of 16 values cannot overflow.
        for (std::size_t i = 0; i < kernelArrayLen; ++i)
            in.push_back(rng.next() & maskBits(data_width - 4));
        break;
      case Kernel::THold:
        for (std::size_t i = 0; i < kernelArrayLen; ++i)
            in.push_back(rng.next() & mask);
        in.push_back(rng.next() & mask);
        break;
      case Kernel::Crc8:
        for (std::size_t i = 0; i < crcStreamLen; ++i)
            in.push_back(rng.next() & 0xff);
        break;
      case Kernel::DTree:
        in = {rng.next() & mask, rng.next() & mask,
              rng.next() & mask};
        break;
      default:
        fatal("defaultInputs: unknown kernel");
    }
    return in;
}

std::vector<std::uint64_t>
goldenOutputs(Kernel kind, unsigned data_width,
              const std::vector<std::uint64_t> &inputs)
{
    switch (kind) {
      case Kernel::Mult:
        return {golden::mult(inputs.at(0), inputs.at(1), data_width)};
      case Kernel::Div: {
        const auto r =
            golden::div(inputs.at(0), inputs.at(1), data_width);
        return {r.quotient, r.remainder};
      }
      case Kernel::InSort:
        return golden::inSort(inputs);
      case Kernel::IntAvg:
        return {golden::intAvg(inputs, data_width)};
      case Kernel::THold: {
        std::vector<std::uint64_t> data(inputs.begin(),
                                        inputs.end() - 1);
        return {golden::tHold(data, inputs.back())};
      }
      case Kernel::Crc8: {
        std::vector<std::uint8_t> bytes;
        for (std::uint64_t v : inputs)
            bytes.push_back(std::uint8_t(v));
        return {golden::crc8(bytes)};
      }
      case Kernel::DTree:
        return {golden::dTree(inputs.at(0), inputs.at(1),
                              inputs.at(2), data_width)};
      default:
        fatal("goldenOutputs: unknown kernel");
    }
}

std::vector<KernelPoint>
paperKernelPoints()
{
    std::vector<KernelPoint> points;
    for (Kernel k : {Kernel::Mult, Kernel::Div, Kernel::InSort,
                     Kernel::IntAvg, Kernel::THold, Kernel::DTree}) {
        for (unsigned w : {8u, 16u, 32u})
            points.push_back({k, w});
    }
    points.push_back({Kernel::Crc8, 8});
    return points;
}

} // namespace printed
