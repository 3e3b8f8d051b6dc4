#include "controller/tile.hpp"

#include <charconv>
#include <sstream>

#include "common/logging.hpp"

namespace stonne {

void
Tile::validate(const LayerSpec &layer, index_t ms_size) const
{
    fatalIf(t_r <= 0 || t_s <= 0 || t_c <= 0 || t_g <= 0 || t_k <= 0 ||
            t_n <= 0 || t_x <= 0 || t_y <= 0,
            "tile dimensions must be positive");
    fatalIf(usedMs() > ms_size, "tile occupies ", usedMs(),
            " multiplier switches but the array has ", ms_size);

    if (layer.kind == LayerKind::Convolution) {
        const Conv2dShape &c = layer.conv;
        fatalIf(t_r > c.R || t_s > c.S || t_c > c.cPerGroup(),
                "tile cluster exceeds the filter dimensions");
        fatalIf(t_g > c.G, "tile T_G exceeds layer groups");
        fatalIf(t_k > c.kPerGroup(), "tile T_K exceeds filters per group");
        fatalIf(t_n > c.N, "tile T_N exceeds batch size");
        fatalIf(t_x > c.outX() || t_y > c.outY(),
                "tile output block exceeds the layer output");
    } else {
        const GemmDims g = layer.gemmView();
        fatalIf(t_r != 1 || t_s != 1 || t_g != 1 || t_n != 1 || t_x != 1,
                "GEMM tiles use only T_C (dot slice), T_K (rows) and "
                "T_Y' (columns)");
        fatalIf(t_c > g.k, "tile T_C exceeds the GEMM dot length");
        fatalIf(t_k > g.m, "tile T_K exceeds the GEMM row count");
        fatalIf(t_y > g.n, "tile T_Y' exceeds the GEMM column count");
    }
}

std::string
Tile::canonical() const
{
    // Eight decimal fields of at most 20 characters, 'x'-separated.
    char buf[8 * 21];
    char *p = buf;
    for (const index_t v : {t_r, t_s, t_c, t_g, t_k, t_n, t_x, t_y}) {
        if (p != buf)
            *p++ = 'x';
        p = std::to_chars(p, buf + sizeof buf, v).ptr;
    }
    return std::string(buf, p);
}

std::string
Tile::toString() const
{
    std::ostringstream os;
    os << "Tile(T_R=" << t_r << ", T_S=" << t_s << ", T_C=" << t_c
       << ", T_G=" << t_g << ", T_K=" << t_k << ", T_N=" << t_n
       << ", T_X'=" << t_x << ", T_Y'=" << t_y << ")";
    return os.str();
}

} // namespace stonne
