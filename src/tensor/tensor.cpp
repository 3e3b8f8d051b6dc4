#include "tensor/tensor.hpp"

#include <algorithm>
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
    size_ = total;
    if (total > 0)
        data_ = std::make_shared<float[]>(static_cast<std::size_t>(total));
}

void
Tensor::detach()
{
    auto copy = std::make_shared_for_overwrite<float[]>(
        static_cast<std::size_t>(size_));
    std::copy_n(data_.get(), size_, copy.get());
    data_ = std::move(copy);
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
    own();
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
    own();
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
    own();
    return data_[static_cast<std::size_t>(flatIndex4(a, b, c, d))];
}

float
Tensor::at(index_t a, index_t b, index_t c, index_t d) const
{
    return data_[static_cast<std::size_t>(flatIndex4(a, b, c, d))];
}

Tensor
Tensor::transposed() const
{
    panicIf(rank() != 2, "transpose of a rank-", rank(), " tensor");
    const index_t rows = shape_[0];
    const index_t cols = shape_[1];
    Tensor t({cols, rows});
    const float *src = data_.get();
    float *dst = t.data_.get();
    for (index_t i = 0; i < rows; ++i)
        for (index_t j = 0; j < cols; ++j)
            dst[j * rows + i] = src[i * cols + j];
    return t;
}

Tensor
Tensor::reshaped(std::vector<index_t> new_shape) const
{
    index_t total = 1;
    for (index_t d : new_shape)
        total *= d;
    fatalIf(total != size(), "reshape from ", size(), " elements to ",
            total, " elements");
    Tensor t = *this;
    t.shape_ = std::move(new_shape);
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
    std::fill_n(data(), size_, v);
}

void
Tensor::fillUniform(Rng &rng, float lo, float hi)
{
    rng.fillUniform(data(), static_cast<std::size_t>(size_), lo, hi);
}

void
Tensor::fillNormal(Rng &rng, float mean, float stddev)
{
    rng.fillNormal(data(), static_cast<std::size_t>(size_), mean, stddev);
}

double
Tensor::sparsity() const
{
    if (empty())
        return 0.0;
    return 1.0 - static_cast<double>(nnz()) / static_cast<double>(size());
}

index_t
Tensor::nnz() const
{
    index_t n = 0;
    for (index_t i = 0; i < size_; ++i)
        n += data_[static_cast<std::size_t>(i)] != 0.0f;
    return n;
}

bool
Tensor::allFinite() const
{
    const float *d = data();
    return std::all_of(d, d + size_,
                       [](float x) { return std::isfinite(x); });
}

bool
Tensor::equals(const Tensor &other) const
{
    return shape_ == other.shape_ &&
        std::equal(data(), data() + size_, other.data());
}

double
Tensor::maxAbsDiff(const Tensor &other) const
{
    fatalIf(shape_ != other.shape_, "maxAbsDiff on mismatched shapes");
    const float *a = data();
    const float *b = other.data();
    double m = 0.0;
    for (index_t i = 0; i < size_; ++i)
        m = std::max(m, std::abs(static_cast<double>(a[i]) -
                                 static_cast<double>(b[i])));
    return m;
}

} // namespace stonne
