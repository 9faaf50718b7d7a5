#include "hier.hh"

#include "common/logging.hh"
#include "common/trace.hh"
#include "synth/opt.hh"

namespace printed::hier
{

Design::Design(std::string name) : name_(std::move(name)) {}

BlockId
Design::addBlock(std::string instance, Netlist netlist)
{
    fatalIf(instance.empty(), "hier: empty instance name");
    if (byInstance_.count(instance) != 0)
        fatal("hier: duplicate instance '" + instance + "'");
    const BlockId id = BlockId(blocks_.size());
    byInstance_.emplace(instance, id);
    blocks_.push_back({std::move(instance), std::move(netlist),
                       true, true, {}});
    return id;
}

const Design::Block &
Design::checkedBlock(BlockId b) const
{
    fatalIf(b >= blocks_.size(), "hier: bad block id");
    return blocks_[b];
}

const std::string &
Design::blockName(BlockId b) const
{
    return checkedBlock(b).instance;
}

const Netlist &
Design::blockNetlist(BlockId b) const
{
    return checkedBlock(b).netlist;
}

Netlist &
Design::mutableBlockNetlist(BlockId b)
{
    checkedBlock(b);
    blocks_[b].needOpt = true;
    blocks_[b].needChar = true;
    return blocks_[b].netlist;
}

bool
Design::hasInput(BlockId b, const std::string &port) const
{
    for (const PortBinding &p : blocks_[b].netlist.inputs())
        if (p.name == port)
            return true;
    return false;
}

bool
Design::hasOutput(BlockId b, const std::string &port) const
{
    for (const PortBinding &p : blocks_[b].netlist.outputs())
        if (p.name == port)
            return true;
    return false;
}

void
Design::connect(const PortRef &from, const PortRef &to)
{
    checkedBlock(from.block);
    checkedBlock(to.block);
    if (!hasOutput(from.block, from.port))
        fatal("hier: '" + blocks_[from.block].instance +
              "' has no output port '" + from.port + "'");
    if (!hasInput(to.block, to.port))
        fatal("hier: '" + blocks_[to.block].instance +
              "' has no input port '" + to.port + "'");
    const auto key = std::make_pair(to.block, to.port);
    if (inputFrom_.count(key) != 0)
        fatal("hier: input '" + blocks_[to.block].instance + "." + to.port +
              "' already connected");
    inputFrom_.emplace(key, from);
}

void
Design::connectBus(BlockId from, const std::string &fromBus,
                   BlockId to, const std::string &toBus,
                   unsigned width)
{
    for (unsigned i = 0; i < width; ++i) {
        const std::string idx = "[" + std::to_string(i) + "]";
        connect({from, fromBus + idx}, {to, toBus + idx});
    }
}

void
Design::exposeOutput(const PortRef &from, std::string topName)
{
    checkedBlock(from.block);
    if (!hasOutput(from.block, from.port))
        fatal("hier: '" + blocks_[from.block].instance +
              "' has no output port '" + from.port + "'");
    exposed_.emplace_back(from, std::move(topName));
}

void
Design::exposeOutputBus(BlockId from, const std::string &bus,
                        unsigned width)
{
    for (unsigned i = 0; i < width; ++i) {
        const std::string port = bus + "[" + std::to_string(i) + "]";
        exposeOutput({from, port},
                     blocks_[from].instance + "." + port);
    }
}

std::size_t
Design::gateCount() const
{
    std::size_t total = 0;
    for (const Block &b : blocks_)
        total += b.netlist.gateCount();
    return total;
}

std::size_t
Design::dirtyBlockCount() const
{
    std::size_t n = 0;
    for (const Block &b : blocks_)
        n += b.needOpt ? 1 : 0;
    return n;
}

std::size_t
Design::optimizeBlocks(ThreadPool &pool)
{
    trace::Span span("hier.optimizeBlocks", name_);
    std::vector<std::size_t> dirty;
    for (std::size_t i = 0; i < blocks_.size(); ++i)
        if (blocks_[i].needOpt)
            dirty.push_back(i);
    // One item = one block; items touch disjoint blocks, so the
    // parallel.hh determinism contract holds trivially.
    pool.parallelFor(dirty.size(), [&](std::size_t i) {
        synth::optimize(blocks_[dirty[i]].netlist);
    });
    for (std::size_t i : dirty)
        blocks_[i].needOpt = false;
    return dirty.size();
}

std::vector<Characterization>
Design::characterizeBlocks(ThreadPool &pool,
                           const CellLibrary &lib, double activity)
{
    trace::Span span("hier.characterizeBlocks", name_);
    std::vector<std::size_t> stale;
    for (std::size_t i = 0; i < blocks_.size(); ++i)
        if (blocks_[i].needChar)
            stale.push_back(i);
    const std::vector<Characterization> fresh =
        pool.parallelMap(stale.size(), [&](std::size_t i) {
            return characterize(blocks_[stale[i]].netlist, lib,
                                activity);
        });
    for (std::size_t i = 0; i < stale.size(); ++i) {
        blocks_[stale[i]].ch = fresh[i];
        blocks_[stale[i]].needChar = false;
    }
    std::vector<Characterization> out;
    out.reserve(blocks_.size());
    for (const Block &b : blocks_)
        out.push_back(b.ch);
    return out;
}

DesignCharacterization
Design::characterizeDesign(ThreadPool &pool,
                           const CellLibrary &lib, double activity)
{
    DesignCharacterization d;
    d.perBlock = characterizeBlocks(pool, lib, activity);
    d.blocks = d.perBlock.size();
    for (const Characterization &c : d.perBlock) {
        d.gates += c.gateCount();
        d.areaCm2 += c.areaCm2();
        if (d.fmaxHz == 0 || c.fmaxHz() < d.fmaxHz)
            d.fmaxHz = c.fmaxHz();
    }
    // One global clock at the slowest block's fmax: dynamic power
    // scales with frequency, static power does not.
    for (const Characterization &c : d.perBlock) {
        const double scale =
            c.fmaxHz() > 0 ? d.fmaxHz / c.fmaxHz() : 0;
        d.powerMw += c.powerAtFmax.dynamic_mW * scale +
                     c.powerAtFmax.static_mW;
    }
    return d;
}

Netlist
Design::flatten() const
{
    trace::Span span("hier.flatten", name_);
    Netlist flat(name_);
    {
        std::size_t nets = 0, gates = 0;
        for (const Block &b : blocks_) {
            nets += b.netlist.netCount();
            gates += b.netlist.gateCount();
        }
        flat.reserve(nets, gates);
    }

    // Per-block net translation tables, kept for the whole pass so
    // cross-block references can be resolved after every block is
    // in (the block graph may be cyclic).
    std::vector<std::vector<NetId>> trans(blocks_.size());

    // Resolved producer outputs: (block, port) -> flat net.
    std::map<std::pair<BlockId, std::string>, NetId> outNet;

    // Cross-block forward references: placeholder awaiting a
    // producer block that has not been instantiated yet.
    struct CrossRef
    {
        NetId placeholder;
        PortRef from;
    };
    std::vector<CrossRef> pendingCross;

    for (BlockId b = 0; b < blocks_.size(); ++b) {
        const Netlist &nl = blocks_[b].netlist;
        const std::string &inst = blocks_[b].instance;
        std::vector<NetId> &t = trans[b];
        t.assign(nl.netCount(), invalidNet);

        if (nl.constZeroId() != invalidNet)
            t[nl.constZeroId()] = flat.constZero();
        if (nl.constOneId() != invalidNet)
            t[nl.constOneId()] = flat.constOne();

        // Input ports: wired from a producer (possibly a later
        // block: feedback placeholder), or auto-exposed as a
        // "<instance>.<port>" top-level input.
        for (const PortBinding &p : nl.inputs()) {
            if (t[p.net] != invalidNet)
                continue; // port aliasing a constant
            const auto conn = inputFrom_.find({b, p.name});
            if (conn == inputFrom_.end()) {
                t[p.net] = flat.addInput(inst + "." + p.name);
                continue;
            }
            const auto ready = outNet.find(
                {conn->second.block, conn->second.port});
            if (ready != outNet.end()) {
                t[p.net] = ready->second;
            } else {
                const NetId ph = flat.makeFeedback();
                t[p.net] = ph;
                pendingCross.push_back({ph, conn->second});
            }
        }

        // Gates, in creation order. A gate may read a net whose
        // driver appears later (resolved sequential feedback), so
        // unseen inputs become in-block feedback placeholders.
        std::unordered_map<NetId, NetId> fwd; // block net -> ph
        auto xin = [&](NetId n) {
            if (n == invalidNet)
                return invalidNet;
            if (t[n] != invalidNet)
                return t[n];
            const NetId ph = flat.makeFeedback();
            t[n] = ph;
            fwd.emplace(n, ph);
            return ph;
        };
        for (GateId gi = 0; gi < nl.gateCount(); ++gi) {
            const CellKind k = nl.gateKind(gi);
            const NetId a = xin(nl.gateIn0(gi));
            const NetId bn = xin(nl.gateIn1(gi));
            const NetId out = nl.gateOut(gi);
            if (k == CellKind::TSBUFX1) {
                // Shared bus net: materialize on the first driver.
                const auto f = fwd.find(out);
                if (f != fwd.end()) {
                    const NetId bus = flat.addNet();
                    flat.resolveFeedback(f->second, bus);
                    t[out] = bus;
                    fwd.erase(f);
                } else if (t[out] == invalidNet) {
                    t[out] = flat.addNet();
                }
                flat.addTristate(a, bn, t[out]);
                continue;
            }
            const NetId newOut = flat.addGate(k, a, bn);
            const auto f = fwd.find(out);
            if (f != fwd.end()) {
                flat.resolveFeedback(f->second, newOut);
                fwd.erase(f);
            }
            t[out] = newOut;
        }
        if (!fwd.empty())
            panic("hier: block '" + inst +
                  "' reads a net no gate or port drives");

        for (const PortBinding &p : nl.outputs()) {
            if (t[p.net] == invalidNet)
                panic("hier: output '" + inst + "." + p.name +
                      "' is unconnected inside the block");
            outNet.emplace(std::make_pair(b, p.name), t[p.net]);
        }
    }

    for (const CrossRef &cr : pendingCross) {
        const auto it =
            outNet.find({cr.from.block, cr.from.port});
        if (it == outNet.end())
            panic("hier: unresolved connection from '" +
                  blocks_[cr.from.block].instance + "." +
                  cr.from.port + "'");
        flat.resolveFeedback(cr.placeholder, it->second);
    }

    for (const auto &e : exposed_)
        flat.addOutput(e.second,
                       outNet.at({e.first.block, e.first.port}));

    // Retired feedback placeholders are orphans now; drop them so
    // the flat netlist is dense.
    flat.compact();
    flat.validate();
    return flat;
}

} // namespace printed::hier
