#include "explore/design_space.hpp"

#include <algorithm>
#include <sstream>

#include "common/logging.hpp"

namespace stonne::explore {

namespace {

bool
isPow2(index_t v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

const char *const kAxisNames[] = {
    "ms_size", "dn_bandwidth", "rn_bandwidth", "accumulator_size", "fabric",
};

bool
knownAxis(const std::string &name)
{
    for (const char *n : kAxisNames)
        if (name == n)
            return true;
    return false;
}

/** "origin:lineno: " (file key) or "origin: " (programmatic config). */
std::string
where(const std::string &origin, int lineno)
{
    std::ostringstream os;
    os << origin;
    if (lineno > 0)
        os << ":" << lineno;
    os << ": ";
    return os.str();
}

index_t
parseBound(const std::string &text, const std::string &origin, int lineno,
           const std::string &token)
{
    fatalIf(text.empty() ||
                text.find_first_not_of("0123456789") != std::string::npos,
            where(origin, lineno), "explore_axes range bound '", text,
            "' in '", token, "' is not a positive integer");
    long long v = 0;
    for (char c : text) {
        v = v * 10 + (c - '0');
        fatalIf(v > (1ll << 30), where(origin, lineno),
                "explore_axes range bound '", text, "' in '", token,
                "' is out of range");
    }
    return static_cast<index_t>(v);
}

/** Power-of-two doubling sweep [lo, hi], both bounds included. */
std::vector<index_t>
pow2Range(index_t lo, index_t hi)
{
    std::vector<index_t> vals;
    for (index_t v = lo; v <= hi; v *= 2)
        vals.push_back(v);
    return vals;
}

} // namespace

std::vector<AxisSpec>
parseAxesSpec(const std::string &spec, const std::string &origin, int lineno)
{
    std::vector<AxisSpec> axes;
    fatalIf(trim(spec).empty(), where(origin, lineno),
            "explore_axes must name at least one axis");
    std::istringstream ss(spec);
    std::string token;
    while (std::getline(ss, token, ',')) {
        token = trim(token);
        fatalIf(token.empty(), where(origin, lineno),
                "explore_axes has an empty entry in '", spec, "'");
        AxisSpec axis;
        std::size_t eq = token.find('=');
        if (eq == std::string::npos) {
            axis.name = token;
        } else {
            axis.name = trim(token.substr(0, eq));
            std::string range = trim(token.substr(eq + 1));
            std::size_t colon = range.find(':');
            fatalIf(colon == std::string::npos, where(origin, lineno),
                    "explore_axes range '", token,
                    "' must have the form name=lo:hi");
            axis.has_range = true;
            axis.lo = parseBound(trim(range.substr(0, colon)), origin,
                                 lineno, token);
            axis.hi = parseBound(trim(range.substr(colon + 1)), origin,
                                 lineno, token);
            fatalIf(!isPow2(axis.lo) || !isPow2(axis.hi),
                    where(origin, lineno), "explore_axes range '", token,
                    "' bounds must be powers of two (the sweep doubles "
                    "from lo to hi)");
            fatalIf(axis.lo > axis.hi, where(origin, lineno),
                    "explore_axes range '", token, "' has lo > hi");
        }
        fatalIf(!knownAxis(axis.name), where(origin, lineno),
                "explore_axes names unknown axis '", axis.name,
                "' (known: ms_size, dn_bandwidth, rn_bandwidth, "
                "accumulator_size, fabric)");
        fatalIf(axis.name == "fabric" && axis.has_range,
                where(origin, lineno),
                "explore_axes axis 'fabric' enumerates {dense, sparse} "
                "and takes no range");
        for (const AxisSpec &prev : axes)
            fatalIf(prev.name == axis.name, where(origin, lineno),
                    "explore_axes lists axis '", axis.name, "' twice");
        axes.push_back(axis);
    }
    return axes;
}

std::vector<DesignPoint>
DesignSpace::enumerate(const HardwareConfig &base,
                       const std::string &axes_spec)
{
    const std::vector<AxisSpec> axes = parseAxesSpec(axes_spec);

    // Unlisted axes stay pinned at the base's value (single-element
    // sweep); listed axes without a range sweep around the base.
    std::vector<index_t> ms_vals = {base.ms_size};
    std::vector<index_t> dn_vals = {base.dn_bandwidth};
    std::vector<index_t> rn_vals = {base.rn_bandwidth};
    std::vector<index_t> acc_vals = {base.accumulator_size};
    bool sweep_fabric = false;
    for (const AxisSpec &axis : axes) {
        if (axis.name == "ms_size") {
            ms_vals = axis.has_range
                          ? pow2Range(axis.lo, axis.hi)
                          : pow2Range(std::max<index_t>(16, base.ms_size / 4),
                                      base.ms_size);
        } else if (axis.name == "dn_bandwidth") {
            dn_vals = axis.has_range
                          ? pow2Range(axis.lo, axis.hi)
                          : pow2Range(
                                std::max<index_t>(1, base.dn_bandwidth / 4),
                                base.dn_bandwidth);
        } else if (axis.name == "rn_bandwidth") {
            rn_vals = axis.has_range
                          ? pow2Range(axis.lo, axis.hi)
                          : pow2Range(
                                std::max<index_t>(1, base.rn_bandwidth / 4),
                                base.rn_bandwidth);
        } else if (axis.name == "accumulator_size") {
            acc_vals = axis.has_range
                           ? pow2Range(axis.lo, axis.hi)
                           : pow2Range(
                                 std::max<index_t>(1,
                                                   base.accumulator_size / 2),
                                 base.accumulator_size * 2);
        } else if (axis.name == "fabric") {
            sweep_fabric = true;
        }
    }

    // A variant is a plain runnable instance: it must not re-trigger a
    // search when its config text is fed back in, so it carries none
    // of the search keys.
    const HardwareConfig defaults;
    HardwareConfig plain = base;
    plain.autotune = false;
    plain.dse_top_k = defaults.dse_top_k;
    plain.dse_cache_file = defaults.dse_cache_file;
    plain.explore_axes = defaults.explore_axes;
    plain.explore_top_k = defaults.explore_top_k;

    std::vector<DesignPoint> points;
    const int fabric_count = sweep_fabric ? 2 : 1;
    for (int fabric = 0; fabric < fabric_count; ++fabric) {
        const bool sparse = fabric == 1;
        for (index_t ms : ms_vals) {
            for (index_t dn : dn_vals) {
                if (dn > ms)
                    continue;
                for (index_t rn : rn_vals) {
                    if (rn > ms)
                        continue;
                    for (index_t acc : acc_vals) {
                        DesignPoint p;
                        p.cfg = plain;
                        p.cfg.ms_size = ms;
                        p.cfg.dn_bandwidth = dn;
                        p.cfg.rn_bandwidth = rn;
                        p.cfg.accumulator_size = acc;
                        if (sparse) {
                            p.cfg.dn_type = DnType::Benes;
                            p.cfg.mn_type = MnType::Disabled;
                            p.cfg.rn_type = RnType::Fan;
                            p.cfg.controller_type = ControllerType::Sparse;
                            p.cfg.dataflow = Dataflow::WeightStationary;
                        }
                        p.cfg.validate();
                        std::ostringstream label;
                        label << "ms=" << ms << " dn=" << dn << " rn=" << rn
                              << " acc=" << acc << " fabric="
                              << (sparse ? "sparse" : "dense");
                        p.label = label.str();
                        points.push_back(std::move(p));
                    }
                }
            }
        }
    }
    return points;
}

} // namespace stonne::explore
