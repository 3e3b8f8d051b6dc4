/**
 * @file
 * Fundamental scalar types and enums shared by every STONNE module.
 */

#ifndef STONNE_COMMON_TYPES_HPP
#define STONNE_COMMON_TYPES_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace stonne {

/** Signed index type used for tensor shapes and loop bounds. */
using index_t = std::int64_t;

/** Unsigned counter type for cycles and activity counts. */
using count_t = std::uint64_t;

/** Cycle timestamp. */
using cycle_t = std::uint64_t;

/**
 * ceil(log2(v)): the levels of a binary tree over `v` leaves. 0 for
 * v <= 1.
 */
inline index_t
log2Ceil(index_t v)
{
    return v <= 1 ? 0
                  : std::bit_width(static_cast<std::uint64_t>(v - 1));
}

/**
 * Numeric format used to represent DNN parameters in the simulated
 * hardware. Only affects the energy/area tables and the per-element byte
 * width; computation is carried out in float throughout so the simulator
 * output is bit-comparable against the CPU reference.
 */
enum class DataType {
    FP8,
    FP16,
    INT8,
    FP32,
};

/** Bytes occupied by one element of the given type in simulated memory. */
inline index_t
bytesPerElement(DataType t)
{
    switch (t) {
      case DataType::FP8:
      case DataType::INT8:
        return 1;
      case DataType::FP16:
        return 2;
      case DataType::FP32:
        return 4;
    }
    return 4;
}

/** Human-readable name of a data type. */
inline const char *
dataTypeName(DataType t)
{
    switch (t) {
      case DataType::FP8:  return "FP8";
      case DataType::FP16: return "FP16";
      case DataType::INT8: return "INT8";
      case DataType::FP32: return "FP32";
    }
    return "?";
}

/**
 * Reduction operation performed by a reduction network. SUM implements
 * dot products; MAX lets pooling layers map onto the same fabric, as the
 * paper notes flexible accelerators can do without SIMD add-ons.
 */
enum class ReduceOp {
    Sum,
    Max,
};

/** Apply a reduce op to two floats. */
inline float
applyReduce(ReduceOp op, float a, float b)
{
    return op == ReduceOp::Sum ? a + b : (a > b ? a : b);
}

/** Identity element of a reduce op. */
inline float
reduceIdentity(ReduceOp op)
{
    return op == ReduceOp::Sum ? 0.0f : -3.4e38f;
}

} // namespace stonne

#endif // STONNE_COMMON_TYPES_HPP
