#include "tensor/tensor.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace stonne {

Tensor::Tensor(std::vector<index_t> shape)
    : shape_(std::move(shape))
{
    index_t total = 1;
    for (index_t d : shape_) {
        fatalIf(d < 0, "tensor dimension must be non-negative, got ", d);
        total *= d;
    }
    data_.assign(static_cast<std::size_t>(total), 0.0f);
}

index_t
Tensor::dim(index_t i) const
{
    panicIf(i < 0 || i >= rank(), "tensor dim ", i, " out of range for rank ",
            rank());
    return shape_[static_cast<std::size_t>(i)];
}

float &
Tensor::at(index_t flat)
{
    panicIf(flat < 0 || flat >= size(), "flat index ", flat,
            " out of range for size ", size());
    return data_[static_cast<std::size_t>(flat)];
}

float
Tensor::at(index_t flat) const
{
    panicIf(flat < 0 || flat >= size(), "flat index ", flat,
            " out of range for size ", size());
    return data_[static_cast<std::size_t>(flat)];
}

index_t
Tensor::flatIndex2(index_t r, index_t c) const
{
    panicIf(rank() != 2, "2-d access on rank-", rank(), " tensor");
    panicIf(r < 0 || r >= shape_[0] || c < 0 || c >= shape_[1],
            "index (", r, ",", c, ") out of range for (", shape_[0], ",",
            shape_[1], ")");
    return r * shape_[1] + c;
}

float &
Tensor::at(index_t r, index_t c)
{
    return data_[static_cast<std::size_t>(flatIndex2(r, c))];
}

float
Tensor::at(index_t r, index_t c) const
{
    return data_[static_cast<std::size_t>(flatIndex2(r, c))];
}

index_t
Tensor::flatIndex4(index_t a, index_t b, index_t c, index_t d) const
{
    panicIf(rank() != 4, "4-d access on rank-", rank(), " tensor");
    panicIf(a < 0 || a >= shape_[0] || b < 0 || b >= shape_[1] ||
            c < 0 || c >= shape_[2] || d < 0 || d >= shape_[3],
            "4-d index out of range");
    return ((a * shape_[1] + b) * shape_[2] + c) * shape_[3] + d;
}

float &
Tensor::at(index_t a, index_t b, index_t c, index_t d)
{
    return data_[static_cast<std::size_t>(flatIndex4(a, b, c, d))];
}

float
Tensor::at(index_t a, index_t b, index_t c, index_t d) const
{
    return data_[static_cast<std::size_t>(flatIndex4(a, b, c, d))];
}

Tensor
Tensor::reshaped(std::vector<index_t> new_shape) const
{
    index_t total = 1;
    for (index_t d : new_shape)
        total *= d;
    fatalIf(total != size(), "reshape from ", size(), " elements to ",
            total, " elements");
    Tensor t;
    t.shape_ = std::move(new_shape);
    t.data_ = data_;
    return t;
}

MatrixView
Tensor::asMatrix(index_t rows, index_t cols) const
{
    fatalIf(rows < 0 || cols < 0 || rows * cols != size(), "view of ",
            size(), " elements as a ", rows, " x ", cols, " matrix");
    return {data(), rows, cols};
}

void
Tensor::fill(float v)
{
    for (auto &x : data_)
        x = v;
}

void
Tensor::fillUniform(Rng &rng, float lo, float hi)
{
    for (auto &x : data_)
        x = rng.uniform(lo, hi);
}

void
Tensor::fillNormal(Rng &rng, float mean, float stddev)
{
    rng.fillNormal(data_.data(), data_.size(), mean, stddev);
}

double
Tensor::sparsity() const
{
    if (data_.empty())
        return 0.0;
    return 1.0 - static_cast<double>(nnz()) / static_cast<double>(size());
}

index_t
Tensor::nnz() const
{
    index_t n = 0;
    for (float x : data_)
        if (x != 0.0f)
            ++n;
    return n;
}

bool
Tensor::allFinite() const
{
    for (float x : data_)
        if (!std::isfinite(x))
            return false;
    return true;
}

bool
Tensor::equals(const Tensor &other) const
{
    return shape_ == other.shape_ && data_ == other.data_;
}

double
Tensor::maxAbsDiff(const Tensor &other) const
{
    fatalIf(shape_ != other.shape_, "maxAbsDiff on mismatched shapes");
    double m = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i)
        m = std::max(m, std::abs(static_cast<double>(data_[i]) -
                                 static_cast<double>(other.data_[i])));
    return m;
}

} // namespace stonne
