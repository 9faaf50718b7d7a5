#include "disk_cache.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"

namespace fs = std::filesystem;

namespace printed
{

namespace
{

constexpr char magic[4] = {'P', 'S', 'C', '1'};
constexpr std::size_t headerBytes = 4 + 4 + 8 + 8;

/** Payload kind tags (first u32 of every payload). */
constexpr std::uint32_t kindNetlist = 1;
constexpr std::uint32_t kindChar = 2;

std::uint64_t
fnv1a(const std::string &data)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

// ---------------------------------------------------------------
// Little-endian append/read primitives. The reader throws
// FatalError on any out-of-bounds access; loaders catch it (and
// any validation PanicError) and quarantine the entry.
// ---------------------------------------------------------------

void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(char(v));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(char((v >> (8 * i)) & 0xFF));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(char((v >> (8 * i)) & 0xFF));
}

void
putF64(std::string &out, double v)
{
    putU64(out, std::bit_cast<std::uint64_t>(v));
}

void
putString(std::string &out, const std::string &s)
{
    putU32(out, std::uint32_t(s.size()));
    out += s;
}

struct BlobReader
{
    const std::string &data;
    std::size_t pos = 0;

    void
    need(std::size_t n) const
    {
        fatalIf(pos + n > data.size(), "disk cache blob truncated");
    }

    std::uint8_t
    u8()
    {
        need(1);
        return std::uint8_t(data[pos++]);
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t(std::uint8_t(data[pos + i]))
                 << (8 * i);
        pos += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t(std::uint8_t(data[pos + i]))
                 << (8 * i);
        pos += 8;
        return v;
    }

    double
    f64()
    {
        return std::bit_cast<double>(u64());
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        // An entry is at most a few MB; a length beyond the blob is
        // corruption, not a big string.
        need(n);
        std::string s = data.substr(pos, n);
        pos += n;
        return s;
    }
};

// ---------------------------------------------------------------
// Key records. The full canonical key is stored in (and verified
// against) every entry, so the file-name hash is only a locator.
// ---------------------------------------------------------------

void
putKey(std::string &out, const CoreConfigKey &k)
{
    putU32(out, k.stages);
    putU32(out, k.datawidth);
    putU32(out, k.barCount);
    putU32(out, k.pcBits);
    putU32(out, k.operandBits);
    putU32(out, k.isaFlagCount);
    putU32(out, k.flagMask);
    putU32(out, k.barBits);
    putU32(out, k.opcodeMask);
    putU32(out, k.addrBits);
    putU8(out, k.tristateResultMux ? 1 : 0);
}

CoreConfigKey
readKey(BlobReader &r)
{
    CoreConfigKey k;
    k.stages = r.u32();
    k.datawidth = r.u32();
    k.barCount = r.u32();
    k.pcBits = r.u32();
    k.operandBits = r.u32();
    k.isaFlagCount = r.u32();
    k.flagMask = r.u32();
    k.barBits = r.u32();
    k.opcodeMask = r.u32();
    k.addrBits = r.u32();
    k.tristateResultMux = r.u8() != 0;
    return k;
}

std::uint64_t
keyHash(const CoreConfigKey &k)
{
    std::uint64_t h = 0x13198a2e03707344ULL;
    for (std::uint64_t field :
         {std::uint64_t(k.stages), std::uint64_t(k.datawidth),
          std::uint64_t(k.barCount), std::uint64_t(k.pcBits),
          std::uint64_t(k.operandBits),
          std::uint64_t(k.isaFlagCount), std::uint64_t(k.flagMask),
          std::uint64_t(k.barBits), std::uint64_t(k.opcodeMask),
          std::uint64_t(k.addrBits),
          std::uint64_t(k.tristateResultMux)})
        h = mixSeed(h, field);
    return h;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------
// Netlist blob
// ---------------------------------------------------------------

std::string
encodeNetlist(const Netlist &nl)
{
    std::string out;
    putString(out, nl.name());
    putU32(out, std::uint32_t(nl.netCount()));
    for (NetId n = 0; n < nl.netCount(); ++n)
        putU8(out, std::uint8_t(nl.netSource(n)));
    // Names are sparse: (net, name) pairs for named nets only.
    std::uint32_t named = 0;
    for (NetId n = 0; n < nl.netCount(); ++n)
        if (nl.netHasName(n))
            ++named;
    putU32(out, named);
    for (NetId n = 0; n < nl.netCount(); ++n) {
        if (nl.netHasName(n)) {
            putU32(out, n);
            putString(out, nl.netName(n));
        }
    }
    putU32(out, std::uint32_t(nl.gateCount()));
    for (GateId gi = 0; gi < nl.gateCount(); ++gi) {
        const Gate g = nl.gate(gi);
        putU8(out, std::uint8_t(g.kind));
        putU32(out, g.in0);
        putU32(out, g.in1);
        putU32(out, g.out);
    }
    putU32(out, std::uint32_t(nl.inputs().size()));
    for (const PortBinding &p : nl.inputs()) {
        putString(out, p.name);
        putU32(out, p.net);
    }
    putU32(out, std::uint32_t(nl.outputs().size()));
    for (const PortBinding &p : nl.outputs()) {
        putString(out, p.name);
        putU32(out, p.net);
    }
    putU32(out, nl.constZeroId());
    putU32(out, nl.constOneId());
    return out;
}

Netlist
decodeNetlist(BlobReader &r)
{
    std::string name = r.str();
    const std::uint32_t netCount = r.u32();
    std::vector<NetSource> sources;
    sources.reserve(std::min<std::uint32_t>(netCount, 1u << 20));
    for (std::uint32_t i = 0; i < netCount; ++i) {
        const std::uint8_t src = r.u8();
        fatalIf(src > std::uint8_t(NetSource::GateOutput),
                "disk cache: bad net source");
        sources.push_back(NetSource(src));
    }
    const std::uint32_t named = r.u32();
    std::vector<std::pair<NetId, std::string>> netNames;
    netNames.reserve(std::min<std::uint32_t>(named, 1u << 20));
    for (std::uint32_t i = 0; i < named; ++i) {
        const NetId n = r.u32();
        fatalIf(n >= netCount, "disk cache: bad named net");
        netNames.emplace_back(n, r.str());
    }
    const std::uint32_t gateCount = r.u32();
    std::vector<Gate> gates;
    gates.reserve(std::min<std::uint32_t>(gateCount, 1u << 20));
    for (std::uint32_t i = 0; i < gateCount; ++i) {
        Gate g;
        const std::uint8_t kind = r.u8();
        fatalIf(kind >= numCellKinds, "disk cache: bad cell kind");
        g.kind = CellKind(kind);
        g.in0 = r.u32();
        g.in1 = r.u32();
        g.out = r.u32();
        gates.push_back(g);
    }
    auto readPorts = [&] {
        const std::uint32_t n = r.u32();
        std::vector<PortBinding> ports;
        ports.reserve(std::min<std::uint32_t>(n, 1u << 16));
        for (std::uint32_t i = 0; i < n; ++i) {
            PortBinding p;
            p.name = r.str();
            p.net = r.u32();
            ports.push_back(std::move(p));
        }
        return ports;
    };
    std::vector<PortBinding> inputs = readPorts();
    std::vector<PortBinding> outputs = readPorts();
    const NetId const0 = r.u32();
    const NetId const1 = r.u32();
    // restore() rebuilds driver lists and validate()s; structural
    // nonsense panics, which the loader quarantines.
    return Netlist::restore(std::move(name), std::move(sources),
                            std::move(netNames), std::move(gates),
                            std::move(inputs), std::move(outputs),
                            const0, const1);
}

// ---------------------------------------------------------------
// Characterization blob
// ---------------------------------------------------------------

std::string
encodeChar(const Characterization &ch)
{
    std::string out;
    putString(out, ch.label);
    putU8(out, std::uint8_t(ch.tech));
    putU32(out, std::uint32_t(numCellKinds));
    for (std::size_t n : ch.stats.histogram)
        putU64(out, n);
    putU64(out, ch.stats.totalGates);
    putU64(out, ch.stats.combGates);
    putU64(out, ch.stats.seqGates);
    putU64(out, ch.stats.logicDepth);
    putU64(out, ch.stats.inputCount);
    putU64(out, ch.stats.outputCount);
    putF64(out, ch.area.total_mm2);
    putF64(out, ch.area.comb_mm2);
    putF64(out, ch.area.seq_mm2);
    for (double a : ch.area.perCell_mm2)
        putF64(out, a);
    putF64(out, ch.timing.outputDelayUs);
    putF64(out, ch.timing.regPathUs);
    putF64(out, ch.timing.criticalPathUs);
    putF64(out, ch.timing.periodUs);
    putF64(out, ch.timing.fmaxHz);
    putF64(out, ch.powerAtFmax.frequencyHz);
    putF64(out, ch.powerAtFmax.activity);
    putF64(out, ch.powerAtFmax.dynamic_mW);
    putF64(out, ch.powerAtFmax.static_mW);
    putF64(out, ch.powerAtFmax.total_mW);
    putF64(out, ch.powerAtFmax.comb_mW);
    putF64(out, ch.powerAtFmax.seq_mW);
    putF64(out, ch.powerAtFmax.energyPerCycle_nJ);
    return out;
}

Characterization
decodeChar(BlobReader &r)
{
    Characterization ch;
    ch.label = r.str();
    const std::uint8_t tech = r.u8();
    fatalIf(tech > std::uint8_t(TechKind::CNT_TFT),
            "disk cache: bad tech kind");
    ch.tech = TechKind(tech);
    fatalIf(r.u32() != numCellKinds,
            "disk cache: cell-kind count mismatch");
    for (std::size_t &n : ch.stats.histogram)
        n = std::size_t(r.u64());
    ch.stats.totalGates = std::size_t(r.u64());
    ch.stats.combGates = std::size_t(r.u64());
    ch.stats.seqGates = std::size_t(r.u64());
    ch.stats.logicDepth = std::size_t(r.u64());
    ch.stats.inputCount = std::size_t(r.u64());
    ch.stats.outputCount = std::size_t(r.u64());
    ch.area.total_mm2 = r.f64();
    ch.area.comb_mm2 = r.f64();
    ch.area.seq_mm2 = r.f64();
    for (double &a : ch.area.perCell_mm2)
        a = r.f64();
    ch.timing.outputDelayUs = r.f64();
    ch.timing.regPathUs = r.f64();
    ch.timing.criticalPathUs = r.f64();
    ch.timing.periodUs = r.f64();
    ch.timing.fmaxHz = r.f64();
    ch.powerAtFmax.frequencyHz = r.f64();
    ch.powerAtFmax.activity = r.f64();
    ch.powerAtFmax.dynamic_mW = r.f64();
    ch.powerAtFmax.static_mW = r.f64();
    ch.powerAtFmax.total_mW = r.f64();
    ch.powerAtFmax.comb_mW = r.f64();
    ch.powerAtFmax.seq_mW = r.f64();
    ch.powerAtFmax.energyPerCycle_nJ = r.f64();
    return ch;
}

} // anonymous namespace

DiskCache::DiskCache(std::string dir, bool publishMetrics)
    : dir_(std::move(dir))
{
    if (publishMetrics) {
        netlistHits_ =
            &metrics::counter("synth.disk_cache.netlist_hits");
        netlistMisses_ =
            &metrics::counter("synth.disk_cache.netlist_misses");
        charHits_ = &metrics::counter("synth.disk_cache.char_hits");
        charMisses_ =
            &metrics::counter("synth.disk_cache.char_misses");
        stores_ = &metrics::counter("synth.disk_cache.stores");
        storeErrors_ =
            &metrics::counter("synth.disk_cache.store_errors");
        corrupt_ = &metrics::counter("synth.disk_cache.corrupt");
        versionMismatches_ =
            &metrics::counter("synth.disk_cache.version_mismatches");
        keyMismatches_ =
            &metrics::counter("synth.disk_cache.key_mismatches");
    } else {
        netlistHits_ = &ownCounters_[0];
        netlistMisses_ = &ownCounters_[1];
        charHits_ = &ownCounters_[2];
        charMisses_ = &ownCounters_[3];
        stores_ = &ownCounters_[4];
        storeErrors_ = &ownCounters_[5];
        corrupt_ = &ownCounters_[6];
        versionMismatches_ = &ownCounters_[7];
        keyMismatches_ = &ownCounters_[8];
    }

    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_))
        fatal("disk cache: cannot create directory '" + dir_ + "'");

    // Remove writer tmp files left behind by a crash: they were
    // never renamed into place, so they are dead weight, never
    // entries.
    for (const auto &e : fs::directory_iterator(dir_, ec)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("tmp-", 0) == 0)
            fs::remove(e.path(), ec);
    }
}

std::string
DiskCache::readEntry(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return {}; // plain miss: no such entry
    std::string raw;
    char chunk[1 << 16];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        raw.append(chunk, n);
    const bool readError = std::ferror(f);
    std::fclose(f);

    if (readError || raw.size() < headerBytes ||
        std::memcmp(raw.data(), magic, sizeof(magic)) != 0) {
        quarantine(path);
        return {};
    }
    BlobReader header{raw, sizeof(magic)};
    const std::uint32_t version = header.u32();
    const std::uint64_t payloadBytes = header.u64();
    const std::uint64_t checksum = header.u64();
    if (version != formatVersion) {
        versionMismatches_->add();
        quarantine(path);
        return {};
    }
    if (payloadBytes != raw.size() - headerBytes) {
        quarantine(path);
        return {};
    }
    std::string payload = raw.substr(headerBytes);
    if (fnv1a(payload) != checksum) {
        quarantine(path);
        return {};
    }
    return payload;
}

bool
DiskCache::writeEntry(const std::string &path,
                      const std::string &payload)
{
    std::string tmp;
    {
        std::lock_guard lk(writeMutex_);
        tmp = dir_ + "/tmp-" + std::to_string(::getpid()) + "-" +
              std::to_string(++tmpSeq_);
    }
    std::string framed(magic, sizeof(magic));
    putU32(framed, formatVersion);
    putU64(framed, payload.size());
    putU64(framed, fnv1a(payload));
    framed += payload;

    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL,
                          0644);
    if (fd < 0)
        return false;
    std::size_t written = 0;
    while (written < framed.size()) {
        const ssize_t w = ::write(fd, framed.data() + written,
                                  framed.size() - written);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        written += std::size_t(w);
    }
    // fsync the data before the rename: the atomic rename must
    // never publish a name whose bytes could still be lost.
    if (::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    // Make the rename itself durable.
    const int dirFd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
    if (dirFd >= 0) {
        ::fsync(dirFd);
        ::close(dirFd);
    }
    return true;
}

void
DiskCache::quarantine(const std::string &path)
{
    corrupt_->add();
    std::error_code ec;
    for (unsigned n = 0; n < 1000; ++n) {
        const std::string target =
            path + ".corrupt-" + std::to_string(n);
        if (fs::exists(target, ec))
            continue;
        fs::rename(path, target, ec);
        if (!ec)
            return;
    }
    fs::remove(path, ec); // last resort: drop it
}

std::shared_ptr<const Netlist>
DiskCache::loadNetlist(const CoreConfigKey &key)
{
    const std::string path =
        dir_ + "/nl-" + hex16(keyHash(key)) + ".psc";
    const std::string payload = readEntry(path);
    if (payload.empty()) {
        netlistMisses_->add();
        return nullptr;
    }
    try {
        BlobReader r{payload, 0};
        fatalIf(r.u32() != kindNetlist,
                "disk cache: wrong entry kind");
        if (readKey(r) != key) {
            // A hash collision, not corruption: leave the entry
            // (it is some other config's valid netlist).
            keyMismatches_->add();
            netlistMisses_->add();
            return nullptr;
        }
        auto nl = std::make_shared<const Netlist>(decodeNetlist(r));
        netlistHits_->add();
        return nl;
    } catch (const std::exception &) {
        // Truncated/mutated payload that survived the checksum is
        // impossible in practice, but a hostile or torn file must
        // still degrade to a miss.
        quarantine(path);
        netlistMisses_->add();
        return nullptr;
    }
}

void
DiskCache::storeNetlist(const CoreConfigKey &key, const Netlist &nl)
{
    std::string payload;
    putU32(payload, kindNetlist);
    putKey(payload, key);
    payload += encodeNetlist(nl);
    const std::string path =
        dir_ + "/nl-" + hex16(keyHash(key)) + ".psc";
    if (writeEntry(path, payload))
        stores_->add();
    else
        storeErrors_->add();
}

std::shared_ptr<const Characterization>
DiskCache::loadCharacterization(const CoreConfigKey &key,
                                TechKind tech, double activity)
{
    const std::uint64_t activityBits =
        std::bit_cast<std::uint64_t>(activity);
    const std::uint64_t hash = mixSeed(
        mixSeed(keyHash(key), std::uint64_t(tech)), activityBits);
    const std::string path = dir_ + "/ch-" + hex16(hash) + ".psc";
    const std::string payload = readEntry(path);
    if (payload.empty()) {
        charMisses_->add();
        return nullptr;
    }
    try {
        BlobReader r{payload, 0};
        fatalIf(r.u32() != kindChar, "disk cache: wrong entry kind");
        const CoreConfigKey storedKey = readKey(r);
        const std::uint32_t storedTech = r.u32();
        const std::uint64_t storedActivity = r.u64();
        if (storedKey != key ||
            storedTech != std::uint32_t(tech) ||
            storedActivity != activityBits) {
            keyMismatches_->add();
            charMisses_->add();
            return nullptr;
        }
        auto ch = std::make_shared<const Characterization>(
            decodeChar(r));
        charHits_->add();
        return ch;
    } catch (const std::exception &) {
        quarantine(path);
        charMisses_->add();
        return nullptr;
    }
}

void
DiskCache::storeCharacterization(const CoreConfigKey &key,
                                 TechKind tech, double activity,
                                 const Characterization &ch)
{
    const std::uint64_t activityBits =
        std::bit_cast<std::uint64_t>(activity);
    std::string payload;
    putU32(payload, kindChar);
    putKey(payload, key);
    putU32(payload, std::uint32_t(tech));
    putU64(payload, activityBits);
    payload += encodeChar(ch);
    const std::uint64_t hash = mixSeed(
        mixSeed(keyHash(key), std::uint64_t(tech)), activityBits);
    const std::string path = dir_ + "/ch-" + hex16(hash) + ".psc";
    if (writeEntry(path, payload))
        stores_->add();
    else
        storeErrors_->add();
}

std::size_t
DiskCache::entryCount() const
{
    std::error_code ec;
    std::size_t n = 0;
    for (const auto &e : fs::directory_iterator(dir_, ec)) {
        const std::string name = e.path().filename().string();
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".psc") == 0)
            ++n;
    }
    return n;
}

std::string
DiskCache::corruptOneEntry(std::uint64_t seed)
{
    std::error_code ec;
    std::vector<std::string> entries;
    for (const auto &e : fs::directory_iterator(dir_, ec)) {
        const std::string name = e.path().filename().string();
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".psc") == 0)
            entries.push_back(name);
    }
    if (entries.empty())
        return "";
    std::sort(entries.begin(), entries.end());
    Rng rng(seed);
    const std::string victim =
        entries[std::size_t(rng.below(entries.size()))];
    const std::string path = dir_ + "/" + victim;

    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (!f)
        return "";
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    if (size <= long(headerBytes)) {
        std::fclose(f);
        return "";
    }
    // Flip one payload byte somewhere past the header.
    const long offset =
        long(headerBytes) +
        long(rng.below(std::uint64_t(size - long(headerBytes))));
    std::fseek(f, offset, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, offset, SEEK_SET);
    std::fputc((c ^ 0x5A) & 0xFF, f);
    std::fclose(f);
    return victim;
}

DiskCacheStats
DiskCache::stats() const
{
    DiskCacheStats s;
    s.netlistHits = netlistHits_->value();
    s.netlistMisses = netlistMisses_->value();
    s.charHits = charHits_->value();
    s.charMisses = charMisses_->value();
    s.stores = stores_->value();
    s.storeErrors = storeErrors_->value();
    s.corruptQuarantined = corrupt_->value();
    s.versionMismatches = versionMismatches_->value();
    s.keyMismatches = keyMismatches_->value();
    return s;
}

} // namespace printed
