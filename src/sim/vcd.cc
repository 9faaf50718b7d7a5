#include "vcd.hh"

#include <map>

#include "common/logging.hh"

namespace printed
{

VcdWriter::VcdWriter(std::ostream &os, const Netlist &netlist,
                     std::string module)
    : os_(os), netlist_(netlist), module_(std::move(module))
{}

std::string
VcdWriter::nextId()
{
    // Printable VCD identifier codes: ! .. ~ in base 94. The
    // little-endian digit encoding is injective (every count maps
    // to a distinct string), so designs with more than 94 signals
    // simply get multi-character codes.
    unsigned v = idCounter_++;
    std::string id;
    do {
        id.push_back(char('!' + v % 94));
        v /= 94;
    } while (v);
    return id;
}

std::string
VcdWriter::registerName(const std::string &raw)
{
    // `$var wire <width> <id> <name> $end` is whitespace-tokenized
    // and `$` introduces keywords, so a name containing either would
    // corrupt the header. Map everything outside a conservative
    // safe set to '_', then uniquify: duplicate display names are
    // legal VCD but viewers silently merge them.
    std::string name;
    name.reserve(raw.size());
    for (const char c : raw) {
        const bool safe =
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '_' || c == '.' ||
            c == '[' || c == ']' || c == ':';
        name.push_back(safe ? c : '_');
    }
    if (name.empty())
        name = "net";
    auto [it, inserted] = nameUse_.emplace(name, 1u);
    if (inserted)
        return name;
    std::string unique;
    do {
        ++it->second;
        unique = name + "_" + std::to_string(it->second);
    } while (nameUse_.count(unique));
    nameUse_.emplace(unique, 1u);
    return unique;
}

void
VcdWriter::addSignal(const std::string &name, NetId net)
{
    panicIf(headerWritten_, "VcdWriter: header already written");
    signals_.push_back({registerName(name), nextId(), {net}, {}});
}

void
VcdWriter::addBus(const std::string &name, const Bus &bus)
{
    panicIf(headerWritten_, "VcdWriter: header already written");
    panicIf(bus.empty(), "VcdWriter: empty bus");
    signals_.push_back({registerName(name), nextId(), bus, {}});
}

void
VcdWriter::addPorts()
{
    // Group indexed ports (name[i]) into buses.
    std::map<std::string, Bus> buses;
    auto classify = [&](const std::string &name, NetId net) {
        const auto bracket = name.find('[');
        if (bracket == std::string::npos) {
            addSignal(name, net);
            return;
        }
        const std::string base = name.substr(0, bracket);
        const unsigned idx = unsigned(
            std::stoul(name.substr(bracket + 1)));
        Bus &bus = buses[base];
        if (bus.size() <= idx)
            bus.resize(idx + 1, invalidNet);
        bus[idx] = net;
    };
    for (const auto &p : netlist_.inputs())
        classify(p.name, p.net);
    for (const auto &p : netlist_.outputs())
        classify(p.name, p.net);
    for (auto &[name, bus] : buses) {
        for (NetId n : bus)
            if (n == invalidNet)
                panic("VcdWriter: sparse bus " + name);
        addBus(name, bus);
    }
}

void
VcdWriter::writeHeader()
{
    panicIf(headerWritten_, "VcdWriter: header already written");
    headerWritten_ = true;
    os_ << "$date printed-microprocessors $end\n"
        << "$version printed::VcdWriter $end\n"
        << "$timescale 1 us $end\n"
        << "$scope module " << module_ << " $end\n";
    for (const Signal &s : signals_)
        os_ << "$var wire " << s.nets.size() << " " << s.id << " "
            << s.name << " $end\n";
    os_ << "$upscope $end\n$enddefinitions $end\n";
}

std::string
VcdWriter::valueOf(const GateSimulator &sim, const Bus &nets)
{
    if (nets.size() == 1)
        return sim.value(nets[0]) ? "1" : "0";
    std::string bits = "b";
    for (std::size_t i = nets.size(); i-- > 0;)
        bits.push_back(sim.value(nets[i]) ? '1' : '0');
    return bits;
}

void
VcdWriter::sample(const GateSimulator &sim, std::uint64_t time)
{
    panicIf(!headerWritten_, "VcdWriter: write the header first");
    bool stamped = false;
    for (Signal &s : signals_) {
        std::string v = valueOf(sim, s.nets);
        if (v == s.last)
            continue;
        if (!stamped) {
            os_ << "#" << time << "\n";
            stamped = true;
        }
        if (s.nets.size() == 1)
            os_ << v << s.id << "\n";
        else
            os_ << v << " " << s.id << "\n";
        s.last = std::move(v);
    }
}

} // namespace printed
