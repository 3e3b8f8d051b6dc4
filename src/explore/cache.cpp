#include "explore/cache.hpp"

#include <filesystem>
#include <sstream>

#include "checkpoint/archive.hpp"
#include "common/logging.hpp"

namespace stonne::explore {

namespace {

/** Shape-only layer text: the name is cosmetic and must not split
 *  cache entries between identically-shaped layers. */
std::string
layerKeyText(const LayerSpec &layer)
{
    std::ostringstream os;
    os << layerKindName(layer.kind);
    if (layer.kind == LayerKind::Convolution ||
        layer.kind == LayerKind::MaxPool) {
        const Conv2dShape &c = layer.conv;
        os << " R" << c.R << " S" << c.S << " C" << c.C << " K" << c.K
           << " G" << c.G << " N" << c.N << " X" << c.X << " Y" << c.Y
           << " stride" << c.stride << " pad" << c.padding;
    } else {
        const GemmDims g = layer.gemm;
        os << " M" << g.m << " N" << g.n << " K" << g.k;
    }
    if (layer.kind == LayerKind::MaxPool)
        os << " window" << layer.pool_window << " pstride"
           << layer.pool_stride;
    return os.str();
}

} // namespace

ResultCache::ResultCache(std::string path)
    : path_(std::move(path))
{
    load();
}

std::uint64_t
ResultCache::hashKey(const std::string &key_text)
{
    std::uint64_t h = 1469598103934665603ull; // FNV offset basis
    for (const char c : key_text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull; // FNV prime
    }
    return h;
}

std::string
ResultCache::keyText(const HardwareConfig &cfg, const LayerSpec &layer,
                     const Tile &tile, const std::string &policy)
{
    std::ostringstream os;
    os << "[config]\n" << cfg.structuralText() << "[layer]\n"
       << layerKeyText(layer) << "\n[tile]\n" << tile.canonical()
       << "\n[policy]\n" << policy << "\n";
    return os.str();
}

std::string
ResultCache::policyText(std::uint64_t seed, double sparsity)
{
    std::ostringstream os;
    os << "seed=" << seed << " sparsity=" << sparsity;
    return os.str();
}

std::optional<CachedOutcome>
ResultCache::lookup(const std::string &key_text) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(hashKey(key_text));
    if (it == entries_.end() || it->second.key_text != key_text)
        return std::nullopt;
    return it->second.outcome;
}

void
ResultCache::insert(const std::string &key_text,
                    const CachedOutcome &outcome)
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_[hashKey(key_text)] = Entry{key_text, outcome};
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

void
ResultCache::load()
{
    if (path_.empty() || !std::filesystem::exists(path_))
        return;
    try {
        ArchiveReader ar(path_);
        // v2 added the area field to each record; a v1 ("dse_cache")
        // file fails the section-name check below and is rebuilt.
        ar.enterSection("dse_cache_v2");
        const std::uint64_t n = ar.getU64();
        std::map<std::uint64_t, Entry> loaded;
        for (std::uint64_t i = 0; i < n; ++i) {
            Entry e;
            e.key_text = ar.getString();
            e.outcome.cycles = ar.getU64();
            e.outcome.energy_uj = ar.getDouble();
            e.outcome.area_um2 = ar.getDouble();
            e.outcome.ms_utilization = ar.getDouble();
            loaded.emplace(hashKey(e.key_text), std::move(e));
        }
        ar.leaveSection();
        entries_ = std::move(loaded);
    } catch (const CheckpointError &e) {
        // A damaged cache is an inconvenience, not an error: start
        // empty and let the next save() replace the file.
        warn("dse cache '", path_, "' is unreadable and will be "
             "rebuilt: ", e.what());
        entries_.clear();
        load_failed_ = true;
    }
}

void
ResultCache::save() const
{
    if (path_.empty())
        return;
    // Snapshot under the entries lock, serialize and write outside it:
    // the archive write (CRC + tmp/rename) must not stall concurrent
    // lookups. Writers themselves are serialized by save_mu_ — two
    // concurrent saves would race on the shared .tmp sibling.
    std::lock_guard<std::mutex> save_lock(save_mu_);
    std::map<std::uint64_t, Entry> snapshot;
    {
        std::lock_guard<std::mutex> lock(mu_);
        snapshot = entries_;
    }
    ArchiveWriter ar;
    ar.beginSection("dse_cache_v2");
    ar.putU64(snapshot.size());
    for (const auto &[hash, e] : snapshot) {
        (void)hash;
        ar.putString(e.key_text);
        ar.putU64(e.outcome.cycles);
        ar.putDouble(e.outcome.energy_uj);
        ar.putDouble(e.outcome.area_um2);
        ar.putDouble(e.outcome.ms_utilization);
    }
    ar.endSection();
    ar.writeFile(path_);
}

} // namespace stonne::explore
