/**
 * @file
 * Content-addressed cache of cycle-level simulation outcomes.
 *
 * A tuner run simulates many (config, layer, tile) points, and sweeps
 * revisit the same points constantly; a point's outcome is fully
 * determined by its canonical key text — the structural configuration
 * text (policy knobs normalized away; both engines are bit-identical),
 * the layer shape, the tile in canonical form and
 * the data-policy knobs (seed/sparsity for the value-dependent
 * controllers). Entries are addressed by a stable 64-bit FNV-1a hash
 * of that text; the full key text is stored alongside the outcome so a
 * hash collision reads as a miss, never as a wrong answer.
 *
 * Persistence reuses the src/checkpoint archive format: versioned,
 * CRC-guarded, atomically published (tmp + rename), so a crash
 * mid-save never corrupts the cache and a corrupt/alien file is
 * detected and discarded instead of poisoning results.
 */

#ifndef STONNE_EXPLORE_CACHE_HPP
#define STONNE_EXPLORE_CACHE_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "common/config.hpp"
#include "common/types.hpp"
#include "controller/layer.hpp"
#include "controller/tile.hpp"

namespace stonne::explore {

/** The cached outcome of one cycle-level simulation point. */
struct CachedOutcome {
    cycle_t cycles = 0;
    double energy_uj = 0.0;
    double area_um2 = 0.0;
    double ms_utilization = 0.0;
};

/**
 * Content-addressed, archive-persisted simulation-outcome cache.
 *
 * Thread-safe: lookup/insert/save/size may be called concurrently from
 * any number of threads (the simulation service shares one instance
 * between all of its workers and every tuner they run). The internal
 * mutex covers each call; save() snapshots the entries under the lock
 * and serializes outside it, so a long archive write never stalls the
 * hot lookup path.
 */
class ResultCache
{
  public:
    /**
     * @param path cache file to load from / save to ("" = in-memory
     *        only). A missing file starts empty; a corrupt or
     *        alien-format file is discarded (the next save overwrites
     *        it) — a damaged cache must never fail or poison a tuner
     *        run.
     */
    explicit ResultCache(std::string path = "");

    /** Stable FNV-1a 64-bit hash of a canonical key text. */
    static std::uint64_t hashKey(const std::string &key_text);

    /**
     * Canonical key text of one simulation point: structural config
     * text + layer shape + canonical tile + data-policy text
     * (seed/sparsity and any value-dependent knobs the caller adds).
     */
    static std::string keyText(const HardwareConfig &cfg,
                               const LayerSpec &layer, const Tile &tile,
                               const std::string &policy);

    /**
     * The data-policy part of a key: the knobs that shape operands.
     * Tuner, explorer and service jobs all key on it, so their
     * evaluations of the same point share one entry.
     */
    static std::string policyText(std::uint64_t seed, double sparsity);

    /** Look up a key; the stored key text must match byte-for-byte. */
    std::optional<CachedOutcome> lookup(const std::string &key_text) const;

    /** Record an outcome (overwrites a colliding/stale entry). */
    void insert(const std::string &key_text, const CachedOutcome &outcome);

    /** Persist to the cache file (no-op for in-memory caches). */
    void save() const;

    std::size_t size() const;
    const std::string &path() const { return path_; }

    /** Entries whose file could not be parsed at load (0 or all). */
    bool loadFailed() const { return load_failed_; }

  private:
    struct Entry {
        std::string key_text;
        CachedOutcome outcome;
    };

    void load();

    std::string path_;
    mutable std::mutex mu_;      //!< guards entries_
    mutable std::mutex save_mu_; //!< serializes writers of the file
    // Ordered by hash so the persisted file is deterministic.
    std::map<std::uint64_t, Entry> entries_;
    bool load_failed_ = false;
};

} // namespace stonne::explore

#endif // STONNE_EXPLORE_CACHE_HPP
