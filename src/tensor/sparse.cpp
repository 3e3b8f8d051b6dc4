#include "tensor/sparse.hpp"

#include "common/logging.hpp"
#include "tensor/kernels.hpp"

namespace stonne {

index_t
CsrMatrix::rowNnz(index_t r) const
{
    panicIf(r < 0 || r >= rows, "CSR row out of range");
    return row_ptr[static_cast<std::size_t>(r + 1)] -
           row_ptr[static_cast<std::size_t>(r)];
}

Tensor
CsrMatrix::toDense() const
{
    Tensor d({rows, cols});
    for (index_t r = 0; r < rows; ++r) {
        for (index_t i = row_ptr[static_cast<std::size_t>(r)];
             i < row_ptr[static_cast<std::size_t>(r + 1)]; ++i) {
            d.at(r, col_idx[static_cast<std::size_t>(i)]) =
                values[static_cast<std::size_t>(i)];
        }
    }
    return d;
}

index_t
CsrMatrix::storageBytes(index_t bytes_per_value, index_t bytes_per_index) const
{
    return nnz() * (bytes_per_value + bytes_per_index) +
           (rows + 1) * bytes_per_index;
}

CsrMatrix
CsrMatrix::fromDense(const Tensor &dense)
{
    fatalIf(dense.rank() != 2, "CSR conversion expects a rank-2 tensor");
    return fromBlockDiagonal(dense.asMatrix(dense.dim(0), dense.dim(1)), 1);
}

CsrMatrix
CsrMatrix::fromBlockDiagonal(MatrixView blocks, index_t groups)
{
    fatalIf(groups <= 0 || blocks.rows % groups != 0,
            "block-diagonal CSR: ", blocks.rows, " rows in ", groups,
            " groups");
    const index_t band = blocks.rows / groups;
    CsrMatrix m;
    m.rows = blocks.rows;
    m.cols = groups * blocks.cols;
    // Count every row first, then fill arrays of the exact size: no
    // push_back, no regrowth. This conversion runs on every SpMM
    // lowering.
    m.row_ptr.resize(static_cast<std::size_t>(m.rows + 1));
    index_t nnz = 0;
    for (index_t r = 0; r < m.rows; ++r) {
        nnz += kernels::countNonZeros(blocks.data + r * blocks.cols,
                                      blocks.cols);
        m.row_ptr[static_cast<std::size_t>(r + 1)] = nnz;
    }
    m.col_idx.resize(static_cast<std::size_t>(nnz));
    m.values.resize(static_cast<std::size_t>(nnz));
    for (index_t r = 0; r < m.rows; ++r) {
        const index_t p = m.row_ptr[static_cast<std::size_t>(r)];
        kernels::compressNonZeros(blocks.data + r * blocks.cols,
                                  blocks.cols, r / band * blocks.cols,
                                  m.col_idx.data() + p, m.values.data() + p);
    }
    return m;
}

bool
BitmapMatrix::present(index_t r, index_t c) const
{
    panicIf(r < 0 || r >= rows || c < 0 || c >= cols,
            "bitmap index out of range");
    return bitmap[static_cast<std::size_t>(r * cols + c)];
}

Tensor
BitmapMatrix::toDense() const
{
    Tensor d({rows, cols});
    std::size_t vi = 0;
    for (index_t r = 0; r < rows; ++r) {
        for (index_t c = 0; c < cols; ++c) {
            if (bitmap[static_cast<std::size_t>(r * cols + c)]) {
                panicIf(vi >= values.size(), "bitmap value underrun");
                d.at(r, c) = values[vi++];
            }
        }
    }
    panicIf(vi != values.size(), "bitmap value overrun");
    return d;
}

index_t
BitmapMatrix::storageBytes(index_t bytes_per_value) const
{
    return nnz() * bytes_per_value + (rows * cols + 7) / 8;
}

BitmapMatrix
BitmapMatrix::fromDense(const Tensor &dense)
{
    fatalIf(dense.rank() != 2, "bitmap conversion expects a rank-2 tensor");
    BitmapMatrix m;
    m.rows = dense.dim(0);
    m.cols = dense.dim(1);
    m.bitmap.assign(static_cast<std::size_t>(m.rows * m.cols), false);
    for (index_t r = 0; r < m.rows; ++r) {
        for (index_t c = 0; c < m.cols; ++c) {
            float v = dense.at(r, c);
            if (v != 0.0f) {
                m.bitmap[static_cast<std::size_t>(r * m.cols + c)] = true;
                m.values.push_back(v);
            }
        }
    }
    return m;
}

std::vector<index_t>
rowNnzSizes(const CsrMatrix &m)
{
    std::vector<index_t> sizes;
    sizes.reserve(static_cast<std::size_t>(m.rows));
    for (index_t r = 0; r < m.rows; ++r)
        sizes.push_back(m.rowNnz(r));
    return sizes;
}

} // namespace stonne
