#include "common/logging.hpp"

#include <cstdio>

namespace stonne {

void
warnMessage(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace stonne
