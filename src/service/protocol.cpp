#include "service/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>
#include <sstream>

#include "common/json_writer.hpp"
#include "common/logging.hpp"

namespace stonne::service {

namespace {

[[noreturn]] void
badRequest(const std::string &msg)
{
    throw ProtocolError(kErrBadRequest, msg);
}

/** Checked read of an integral member into index_t. */
index_t
asIndex(const JsonValue &v, const std::string &name, index_t min_value)
{
    if (!v.isNumber() || v.kind() == JsonValue::Kind::Double)
        badRequest("'" + name + "' must be an integer");
    const std::int64_t raw = v.asInt64();
    if (raw < static_cast<std::int64_t>(min_value))
        badRequest("'" + name + "' must be >= " +
                   std::to_string(min_value) + ", got " +
                   std::to_string(raw));
    return static_cast<index_t>(raw);
}

const JsonValue &
requireMember(const JsonValue &obj, const std::string &name)
{
    const JsonValue *m = obj.find(name);
    if (!m)
        badRequest("missing required member '" + name + "'");
    return *m;
}

/** Reject members outside the allowed set (strict protocol). */
void
rejectUnknownMembers(const JsonValue &obj, const std::set<std::string> &ok,
                     const std::string &where)
{
    for (const auto &[key, value] : obj.members()) {
        (void)value;
        if (ok.find(key) == ok.end())
            badRequest("unknown member '" + key + "' in " + where);
    }
}

LayerSpec
parseLayer(const JsonValue &v)
{
    if (!v.isObject())
        badRequest("'layer' must be an object");
    const std::string kind = requireMember(v, "kind").asString();

    std::string name = "job_layer";
    if (const JsonValue *n = v.find("name"))
        name = n->asString();

    if (kind == "conv") {
        rejectUnknownMembers(v,
                             {"kind", "name", "R", "S", "C", "K", "G", "N",
                              "X", "Y", "stride", "pad"},
                             "layer");
        Conv2dShape c;
        c.R = asIndex(requireMember(v, "R"), "R", 1);
        c.S = asIndex(requireMember(v, "S"), "S", 1);
        c.C = asIndex(requireMember(v, "C"), "C", 1);
        c.K = asIndex(requireMember(v, "K"), "K", 1);
        c.X = asIndex(requireMember(v, "X"), "X", 1);
        c.Y = asIndex(requireMember(v, "Y"), "Y", 1);
        if (const JsonValue *g = v.find("G"))
            c.G = asIndex(*g, "G", 1);
        if (const JsonValue *n = v.find("N"))
            c.N = asIndex(*n, "N", 1);
        if (const JsonValue *s = v.find("stride"))
            c.stride = asIndex(*s, "stride", 1);
        if (const JsonValue *p = v.find("pad"))
            c.padding = asIndex(*p, "pad", 0);
        return LayerSpec::convolution(std::move(name), c);
    }
    if (kind == "gemm" || kind == "linear" || kind == "spmm") {
        rejectUnknownMembers(v, {"kind", "name", "M", "N", "K"}, "layer");
        const index_t m = asIndex(requireMember(v, "M"), "M", 1);
        const index_t n = asIndex(requireMember(v, "N"), "N", 1);
        const index_t k = asIndex(requireMember(v, "K"), "K", 1);
        if (kind == "gemm")
            return LayerSpec::gemmLayer(std::move(name), m, n, k);
        if (kind == "spmm")
            return LayerSpec::sparseGemm(std::move(name), m, n, k);
        // linear: N = batch, K = inputs, M = outputs (GEMM view).
        return LayerSpec::linear(std::move(name), n, k, m);
    }
    badRequest("unknown layer kind '" + kind +
               "' (expected conv|gemm|linear|spmm)");
}

Tile
parseTile(const JsonValue &v)
{
    if (!v.isArray() || v.items().size() != 8)
        badRequest("'tile' must be an array of 8 positive integers "
                   "[T_R,T_S,T_C,T_G,T_K,T_N,T_X,T_Y]");
    Tile t;
    index_t *dims[8] = {&t.t_r, &t.t_s, &t.t_c, &t.t_g,
                        &t.t_k, &t.t_n, &t.t_x, &t.t_y};
    for (std::size_t i = 0; i < 8; ++i)
        *dims[i] = asIndex(v.items()[i], "tile[" + std::to_string(i) + "]",
                           1);
    return t;
}

/** Render one override value as config-file text. */
std::string
overrideValueText(const JsonValue &v, const std::string &key)
{
    switch (v.kind()) {
      case JsonValue::Kind::String:
        return v.asString();
      case JsonValue::Kind::Bool:
        return v.asBool() ? "ON" : "OFF";
      case JsonValue::Kind::Int:
        return std::to_string(v.asInt64());
      case JsonValue::Kind::Uint:
        return std::to_string(v.asUint64());
      case JsonValue::Kind::Double: {
        std::ostringstream os;
        os << v.asDouble();
        return os.str();
      }
      default:
        badRequest("override '" + key +
                   "' must be a string, number or boolean");
    }
}

std::string
lowercase(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

/** `key` of a "key = value" config line (lowercased), "" otherwise. */
std::string
configLineKey(const std::string &line)
{
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos)
        return "";
    std::string key = line.substr(0, eq);
    const std::size_t b = key.find_first_not_of(" \t");
    const std::size_t e = key.find_last_not_of(" \t");
    if (b == std::string::npos)
        return "";
    return lowercase(key.substr(b, e - b + 1));
}

} // namespace

JobRequest
parseRequest(const std::string &line)
{
    if (line.size() > kMaxRequestBytes)
        throw ProtocolError(
            kErrOversized,
            "request is " + std::to_string(line.size()) +
                " bytes; the limit is " + std::to_string(kMaxRequestBytes));

    JsonValue root;
    try {
        root = JsonValue::parse(line);
    } catch (const JsonParseError &e) {
        throw ProtocolError(kErrBadJson, e.what());
    }
    if (!root.isObject())
        throw ProtocolError(kErrBadJson,
                            "a request must be a JSON object");

    const JsonValue *type = root.find("type");
    if (!type || !type->isString())
        badRequest("missing required string member 'type'");

    JobRequest req;
    const std::string &t = type->asString();
    if (t == "ping")
        req.type = RequestType::Ping;
    else if (t == "stats")
        req.type = RequestType::Stats;
    else if (t == "shutdown")
        req.type = RequestType::Shutdown;
    else if (t == "run")
        req.type = RequestType::Run;
    else if (t == "tune")
        req.type = RequestType::Tune;
    else if (t == "explore")
        req.type = RequestType::Explore;
    else if (t == "run_model")
        req.type = RequestType::RunModel;
    else
        throw ProtocolError(kErrUnknownType,
                            "unknown request type '" + t + "'");

    if (req.type == RequestType::Ping || req.type == RequestType::Stats ||
        req.type == RequestType::Shutdown) {
        rejectUnknownMembers(root, {"type"}, "a " + t + " request");
        return req;
    }

    if (req.type == RequestType::RunModel)
        rejectUnknownMembers(root,
                             {"type", "id", "config", "config_text",
                              "preset", "ms", "bw", "overrides", "model",
                              "batch", "seed", "budget_cycles",
                              "budget_wall_ms", "retries"},
                             "a run_model request");
    else
        rejectUnknownMembers(
            root,
            {"type", "id", "config", "config_text", "preset", "ms", "bw",
             "overrides", "layer", "tile", "seed", "sparsity", "repeat",
             "use_cache", "budget_cycles", "budget_wall_ms", "retries",
             "top_k", "axes"},
            "a " + t + " request");

    const JsonValue &id = requireMember(root, "id");
    if (!id.isString() || id.asString().empty())
        badRequest("'id' must be a non-empty string");
    if (id.asString().size() > kMaxIdBytes)
        badRequest("'id' exceeds " + std::to_string(kMaxIdBytes) +
                   " bytes");
    req.id = id.asString();

    if (const JsonValue *v = root.find("config"))
        req.config_path = v->asString();
    if (const JsonValue *v = root.find("config_text"))
        req.config_text = v->asString();
    if (const JsonValue *v = root.find("preset")) {
        req.preset = v->asString();
        if (req.preset != "tpu" && req.preset != "maeri" &&
            req.preset != "sigma" && req.preset != "snapea")
            badRequest("unknown preset '" + req.preset +
                       "' (expected tpu|maeri|sigma|snapea)");
    }
    if (const JsonValue *v = root.find("ms"))
        req.preset_ms = asIndex(*v, "ms", 1);
    if (const JsonValue *v = root.find("bw"))
        req.preset_bw = asIndex(*v, "bw", 1);

    if (const JsonValue *v = root.find("overrides")) {
        if (!v->isObject())
            badRequest("'overrides' must be an object");
        for (const auto &[key, value] : v->members())
            req.overrides.emplace_back(lowercase(key),
                                       overrideValueText(value, key));
    }

    if (req.type == RequestType::RunModel) {
        const JsonValue &m = requireMember(root, "model");
        if (!m.isString() || m.asString().empty())
            badRequest("'model' must be a non-empty file path");
        req.model_path = m.asString();
        if (const JsonValue *v = root.find("batch"))
            req.batch = asIndex(*v, "batch", 1);
        if (const JsonValue *v = root.find("seed")) {
            if (!v->isNumber() || v->kind() == JsonValue::Kind::Double)
                badRequest("'seed' must be an integer");
            req.seed = v->asUint64();
        }
        // The envelope knobs apply to run_model jobs too: the retry
        // and the wall budget wrap the whole composition.
        if (const JsonValue *v = root.find("budget_cycles"))
            req.budget_cycles = asIndex(*v, "budget_cycles", 0);
        if (const JsonValue *v = root.find("budget_wall_ms"))
            req.budget_wall_ms = asIndex(*v, "budget_wall_ms", 0);
        if (const JsonValue *v = root.find("retries"))
            req.retries = asIndex(*v, "retries", 0);
        return req;
    }

    req.has_layer = root.find("layer") != nullptr;
    if (!req.has_layer)
        badRequest("a " + t + " request needs a 'layer' object");
    req.layer = parseLayer(*root.find("layer"));
    try {
        req.layer.validate();
    } catch (const std::exception &e) {
        badRequest(e.what());
    }

    if (const JsonValue *v = root.find("tile"))
        req.tile = parseTile(*v);

    if (const JsonValue *v = root.find("seed")) {
        if (!v->isNumber() || v->kind() == JsonValue::Kind::Double)
            badRequest("'seed' must be an integer");
        req.seed = v->asUint64();
    }
    if (const JsonValue *v = root.find("sparsity")) {
        req.sparsity = v->asDouble();
        if (!(req.sparsity >= 0.0) || req.sparsity >= 1.0 ||
            !std::isfinite(req.sparsity))
            badRequest("'sparsity' must be in [0, 1)");
    }
    if (const JsonValue *v = root.find("repeat"))
        req.repeat = asIndex(*v, "repeat", 1);
    if (const JsonValue *v = root.find("use_cache"))
        req.use_cache = v->asBool();

    if (const JsonValue *v = root.find("budget_cycles"))
        req.budget_cycles = asIndex(*v, "budget_cycles", 0);
    if (const JsonValue *v = root.find("budget_wall_ms"))
        req.budget_wall_ms = asIndex(*v, "budget_wall_ms", 0);
    if (const JsonValue *v = root.find("retries"))
        req.retries = asIndex(*v, "retries", 0);
    if (const JsonValue *v = root.find("top_k")) {
        if (req.type != RequestType::Tune &&
            req.type != RequestType::Explore)
            badRequest("'top_k' only applies to tune and explore "
                       "requests");
        req.top_k = asIndex(*v, "top_k", 1);
    }
    if (const JsonValue *v = root.find("axes")) {
        if (req.type != RequestType::Explore)
            badRequest("'axes' only applies to explore requests");
        if (!v->isString() || v->asString().empty())
            badRequest("'axes' must be a non-empty string");
        req.axes = v->asString();
    }

    if ((req.type == RequestType::Tune ||
         req.type == RequestType::Explore) &&
        req.layer.kind != LayerKind::Gemm &&
        req.layer.kind != LayerKind::Linear &&
        req.layer.kind != LayerKind::Convolution)
        badRequest(t + " supports conv|gemm|linear layers");

    return req;
}

HardwareConfig
applyOverrides(const HardwareConfig &cfg,
               const std::vector<std::pair<std::string, std::string>>
                   &overrides)
{
    if (overrides.empty())
        return cfg;

    std::set<std::string> patched;
    for (const auto &[key, value] : overrides) {
        (void)value;
        patched.insert(key);
    }

    // Drop every line whose key is being overridden, keep the rest.
    std::istringstream in(cfg.toConfigText());
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (patched.find(configLineKey(line)) == patched.end())
            out << line << "\n";
    }
    for (const auto &[key, value] : overrides)
        out << key << " = " << value << "\n";

    try {
        return HardwareConfig::parse(out.str(), "<overrides>");
    } catch (const std::exception &e) {
        throw ProtocolError(kErrBadConfig, e.what());
    }
}

HardwareConfig
resolveConfig(const JobRequest &req, const HardwareConfig &base)
{
    HardwareConfig cfg;
    try {
        if (!req.config_text.empty())
            cfg = HardwareConfig::parse(req.config_text, "<config_text>");
        else if (!req.config_path.empty())
            cfg = HardwareConfig::parseFile(req.config_path);
        else if (req.preset == "tpu")
            cfg = HardwareConfig::tpuLike(req.preset_ms);
        else if (req.preset == "maeri")
            cfg = HardwareConfig::maeriLike(req.preset_ms, req.preset_bw);
        else if (req.preset == "sigma")
            cfg = HardwareConfig::sigmaLike(req.preset_ms, req.preset_bw);
        else if (req.preset == "snapea")
            cfg = HardwareConfig::snapeaLike(req.preset_ms, req.preset_bw);
        else
            cfg = base;
    } catch (const std::exception &e) {
        throw ProtocolError(kErrBadConfig, e.what());
    }

    cfg = applyOverrides(cfg, req.overrides);

    try {
        cfg.validate();
    } catch (const std::exception &e) {
        throw ProtocolError(kErrBadConfig, e.what());
    }
    return cfg;
}

} // namespace stonne::service
