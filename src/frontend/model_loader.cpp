#include "frontend/model_loader.hpp"

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "common/last_memo.hpp"
#include "common/logging.hpp"
#include "frontend/model_builder.hpp"

namespace stonne {

namespace {

/** Parsed `key=value` arguments of one statement. */
class Args
{
  public:
    Args(std::istringstream &in, const std::string &origin, int lineno)
        : origin_(origin), lineno_(lineno)
    {
        std::string tok;
        while (in >> tok) {
            const std::size_t eq = tok.find('=');
            fatalIf(eq == std::string::npos || eq == 0,
                    origin_, ":", lineno, ": expected key=value, got '",
                    tok, "'");
            const std::string key = tok.substr(0, eq);
            const auto [it, inserted] =
                kv_.emplace(key, tok.substr(eq + 1));
            fatalIf(!inserted, origin_, ":", lineno,
                    ": duplicate key '", key, "'");
        }
    }

    index_t
    integer(const std::string &key, index_t fallback) const
    {
        auto it = kv_.find(key);
        if (it == kv_.end())
            return fallback;
        // std::stoll stops at the first bad character, so without the
        // full-consumption check 'out=16x' silently configures 16.
        long long v = 0;
        std::size_t used = 0;
        try {
            v = std::stoll(it->second, &used);
        } catch (const std::exception &) {
            fatal(origin_, ":", lineno_, ": key '", key,
                  "' expects an integer, got '", it->second, "'");
        }
        fatalIf(used != it->second.size(), origin_, ":", lineno_,
                ": key '", key, "' expects an integer, got '", it->second,
                "' (trailing characters after the number)");
        return static_cast<index_t>(v);
    }

    index_t
    required(const std::string &key) const
    {
        fatalIf(kv_.find(key) == kv_.end(), origin_, ":", lineno_,
                ": missing required key '", key, "'");
        return integer(key, 0);
    }

    std::string
    text(const std::string &key, const std::string &fallback = "") const
    {
        auto it = kv_.find(key);
        return it == kv_.end() ? fallback : it->second;
    }

  private:
    std::map<std::string, std::string> kv_;
    const std::string &origin_;
    int lineno_;
};

/** Parse and synthesise a model description (loadModelFromText). */
DnnModel
parseModel(const std::string &text, std::uint64_t default_seed,
           const std::string &origin)
{
    std::istringstream in(text);
    std::string line;
    int lineno = 0;

    std::string model_name = "model";
    double sparsity = 0.0;
    std::uint64_t seed = default_seed;
    std::unique_ptr<ModelBuilder> b;
    std::map<std::string, int> labels;
    bool has_input = false;

    auto resolve = [&](const std::string &label, int lno) -> int {
        if (label == "input")
            return DnnLayer::kFromModelInput;
        auto it = labels.find(label);
        fatalIf(it == labels.end(), origin, ":", lno,
                ": unknown label '", label, "'");
        return it->second;
    };
    auto builder = [&]() -> ModelBuilder & {
        fatalIf(!b, origin, ":", lineno,
                ": an 'input' statement must come first");
        return *b;
    };
    // Positional statements must consume the whole line: without this,
    // 'input 3 32 32 junk' and 'seed 5x' misparse silently.
    auto expect_end = [&](std::istringstream &ls, const char *stmt) {
        std::string extra;
        fatalIf(static_cast<bool>(ls >> extra), origin, ":", lineno,
                ": trailing characters after the ", stmt,
                " statement: '", extra, "'");
    };
    auto maybe_save = [&](const Args &args, int layer_idx) {
        const std::string label = args.text("save");
        if (!label.empty()) {
            builder().markSaved(layer_idx);
            labels[label] = layer_idx;
        }
    };

    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream ls(line);
        std::string op;
        if (!(ls >> op))
            continue;

        if (op == "model") {
            fatalIf(!(ls >> model_name), origin, ":", lineno,
                    ": model expects a name");
            expect_end(ls, "model");
        } else if (op == "sparsity") {
            fatalIf(!(ls >> sparsity) || sparsity < 0.0 || sparsity >= 1.0,
                    origin, ":", lineno,
                    ": sparsity expects a ratio in [0, 1)");
            expect_end(ls, "sparsity");
            fatalIf(b != nullptr, origin, ":", lineno,
                    ": sparsity must precede the input statement");
        } else if (op == "seed") {
            fatalIf(!(ls >> seed), origin, ":", lineno,
                    ": seed expects an integer");
            expect_end(ls, "seed");
            fatalIf(b != nullptr, origin, ":", lineno,
                    ": seed must precede the input statement");
        } else if (op == "input") {
            index_t c = 0, x = 0, y = 0;
            fatalIf(!(ls >> c >> x >> y), origin, ":", lineno,
                    ": input expects <channels> <X> <Y> [batch]");
            index_t n = 1;
            if (ls >> n)
                fatalIf(n <= 0, origin, ":", lineno,
                        ": input batch must be positive, got ", n);
            else
                ls.clear();
            expect_end(ls, "input");
            fatalIf(c <= 0 || x <= 0 || y <= 0, origin, ":", lineno,
                    ": input dimensions must be positive, got ", c, " ",
                    x, " ", y);
            b = std::make_unique<ModelBuilder>(model_name, sparsity,
                                               seed);
            b->setInput(c, x, y, n);
            has_input = true;
        } else if (op == "input2d") {
            index_t rows = 0, feats = 0;
            fatalIf(!(ls >> rows >> feats), origin, ":", lineno,
                    ": input2d expects <rows> <features>");
            expect_end(ls, "input2d");
            fatalIf(rows <= 0 || feats <= 0, origin, ":", lineno,
                    ": input2d dimensions must be positive, got ", rows,
                    " ", feats);
            b = std::make_unique<ModelBuilder>(model_name, sparsity,
                                               seed);
            b->setInput2d(rows, feats);
            has_input = true;
        } else if (op == "conv") {
            const Args args(ls, origin, lineno);
            const std::string from = args.text("from");
            const int idx = builder().conv(
                args.text("name", "conv"), args.required("out"),
                args.required("kernel"), args.integer("stride", 1),
                args.integer("pad", 0), args.integer("groups", 1),
                from.empty() ? -1 : resolve(from, lineno));
            maybe_save(args, idx);
        } else if (op == "linear") {
            const Args args(ls, origin, lineno);
            const int idx = builder().linear(args.text("name", "linear"),
                                             args.required("out"));
            maybe_save(args, idx);
        } else if (op == "attention") {
            const Args args(ls, origin, lineno);
            const int idx = builder().attention(
                args.text("name", "attention"), args.required("heads"));
            maybe_save(args, idx);
        } else if (op == "maxpool") {
            const Args args(ls, origin, lineno);
            const int idx = builder().maybeMaxPool(
                args.required("window"), args.required("stride"));
            maybe_save(args, idx);
        } else if (op == "relu" || op == "gap" || op == "flatten" ||
                   op == "softmax" || op == "logsoftmax" ||
                   op == "layernorm") {
            const Args args(ls, origin, lineno);
            int idx = -1;
            if (op == "relu")
                idx = builder().relu();
            else if (op == "gap")
                idx = builder().globalAvgPool();
            else if (op == "flatten")
                idx = builder().flatten();
            else if (op == "softmax")
                idx = builder().softmax();
            else if (op == "logsoftmax")
                idx = builder().logSoftmax();
            else
                idx = builder().layerNorm();
            maybe_save(args, idx);
        } else if (op == "add" || op == "concat") {
            const Args args(ls, origin, lineno);
            const std::string with = args.text("with");
            fatalIf(with.empty(), origin, ":", lineno, ": '", op,
                    "' requires with=<label>");
            const int operand = resolve(with, lineno);
            const int idx = op == "add"
                ? builder().addResidual(operand)
                : builder().concat(operand);
            maybe_save(args, idx);
        } else {
            fatal(origin, ":", lineno, ": unknown op '", op, "'");
        }
    }

    fatalIf(!has_input, origin,
            ": model description has no input statement");
    fatalIf(b->last() < 0, origin, ": model description has no layers");
    return b->finish();
}

} // namespace

DnnModel
loadModelFromText(const std::string &text, std::uint64_t default_seed,
                  const std::string &origin)
{
    // The model is a function of the text and the default seed alone:
    // the origin only names the source in diagnostics, and a text that
    // fails to parse leaves nothing behind.
    static LastMemo<std::pair<std::string, std::uint64_t>, DnnModel> memo;
    return memo.get({text, default_seed}, [&] {
        return parseModel(text, default_seed, origin);
    });
}

DnnModel
loadModelFromFile(const std::string &path, std::uint64_t default_seed)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot open model description '", path, "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    fatalIf(!in.good() && !in.eof(),
            "error reading model description '", path, "'");
    return loadModelFromText(ss.str(), default_seed, path);
}

} // namespace stonne
