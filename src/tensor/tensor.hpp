/**
 * @file
 * Dense row-major N-dimensional float tensor.
 *
 * This is the data substrate the front-end (the PyTorch stand-in) and the
 * simulated accelerator share. Values stay float end-to-end so that the
 * simulator's functional output can be bit-compared against the CPU
 * reference kernels, reproducing the paper's functional validation.
 * Storage is copy-on-write (DESIGN.md, "Tensor storage").
 */

#ifndef STONNE_TENSOR_TENSOR_HPP
#define STONNE_TENSOR_TENSOR_HPP

#include <atomic>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace stonne {

/** Read-only view of a row-major (rows x cols) matrix held elsewhere. */
struct MatrixView {
    const float *data = nullptr;
    index_t rows = 0;
    index_t cols = 0;
};

/**
 * Dense row-major float tensor with up to any number of dimensions.
 * Copies share storage until one is written: non-const data() and at()
 * and the fills detach first. Read through the const overloads, and
 * write through a pointer from data() only until the next copy.
 */
class Tensor
{
  public:
    /** Empty (rank-0, zero-element) tensor. */
    Tensor() = default;

    /** Zero-initialized tensor of the given shape. */
    explicit Tensor(std::vector<index_t> shape);

    Tensor(std::initializer_list<index_t> shape)
        : Tensor(std::vector<index_t>(shape)) {}

    Tensor(const Tensor &) = default;
    Tensor &operator=(const Tensor &) = default;

    /** A moved-from tensor is empty, as a moved-from vector is. */
    Tensor(Tensor &&other) noexcept { *this = std::move(other); }
    Tensor &operator=(Tensor &&other) noexcept
    {
        if (this != &other) {
            shape_ = std::move(other.shape_);
            size_ = std::exchange(other.size_, 0);
            data_ = std::move(other.data_);
        }
        return *this;
    }

    /** Number of dimensions. */
    index_t rank() const { return static_cast<index_t>(shape_.size()); }

    /** Size of one dimension. */
    index_t dim(index_t i) const;

    const std::vector<index_t> &shape() const { return shape_; }

    /** Total number of elements. */
    index_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

    /** Writable elements; detaches from any tensor sharing them. */
    float *data()
    {
        own();
        return data_.get();
    }
    const float *data() const { return data_.get(); }

    /** Flat element access. */
    float &at(index_t flat);
    float at(index_t flat) const;

    /** 2-d element access (matrices). */
    float &at(index_t r, index_t c);
    float at(index_t r, index_t c) const;

    /** 4-d element access (N, C, H, W activations / K, C, R, S filters). */
    float &at(index_t a, index_t b, index_t c, index_t d);
    float at(index_t a, index_t b, index_t c, index_t d) const;

    /** Transpose of a rank-2 tensor. */
    Tensor transposed() const;

    /** Reinterpret the same storage under a new shape (same size). */
    Tensor reshaped(std::vector<index_t> new_shape) const;

    /** View the storage, without copying, as a (rows x cols) matrix. */
    MatrixView asMatrix(index_t rows, index_t cols) const;

    /** Set every element to v. */
    void fill(float v);

    /** Fill with deterministic uniform values in [lo, hi). */
    void fillUniform(Rng &rng, float lo = -1.0f, float hi = 1.0f);

    /** Fill with deterministic Gaussian values. */
    void fillNormal(Rng &rng, float mean = 0.0f, float stddev = 1.0f);

    /** Fraction of elements that are exactly zero. */
    double sparsity() const;

    /** Number of non-zero elements. */
    index_t nnz() const;

    /** Whether no element is inf or NaN. */
    bool allFinite() const;

    /** Exact equality of shape and all values. */
    bool equals(const Tensor &other) const;

    /** Max |a - b| over all elements (shapes must match). */
    double maxAbsDiff(const Tensor &other) const;

  private:
    /** Become the sole owner of the storage, copying it if shared. On
     *  a use count of 1 the acquire fence orders the in-place writes
     *  after every access the last other owner made before letting go. */
    void own()
    {
        if (data_.use_count() > 1)
            detach();
        else
            std::atomic_thread_fence(std::memory_order_acquire);
    }

    /** Replace shared storage by a private copy of it. */
    void detach();

    index_t flatIndex2(index_t r, index_t c) const;
    index_t flatIndex4(index_t a, index_t b, index_t c, index_t d) const;

    std::vector<index_t> shape_;
    index_t size_ = 0;
    std::shared_ptr<float[]> data_;
};

} // namespace stonne

#endif // STONNE_TENSOR_TENSOR_HPP
