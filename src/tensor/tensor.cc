#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/fp16.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"
#include "tensor/workspace.h"

namespace enode {

Shape::Shape(std::initializer_list<std::size_t> dims)
    : Shape(dims.begin(), dims.end())
{
}

Shape::Shape(const std::vector<std::size_t> &dims)
    : Shape(dims.data(), dims.data() + dims.size())
{
}

Shape::Shape(const std::size_t *begin, const std::size_t *end)
{
    ENODE_ASSERT(begin <= end, "inverted extent range");
    const std::size_t n = static_cast<std::size_t>(end - begin);
    ENODE_ASSERT(n <= kMaxRank, "rank > ", kMaxRank, " unsupported");
    for (std::size_t i = 0; i < n; i++) {
        ENODE_ASSERT(begin[i] > 0, "zero extent in shape");
        dims_[i] = begin[i];
    }
    rank_ = n;
}

std::size_t
Shape::dim(std::size_t i) const
{
    ENODE_ASSERT(i < rank_, "shape dim ", i, " out of rank ", rank_);
    return dims_[i];
}

std::size_t
Shape::numel() const
{
    std::size_t n = 1;
    for (std::size_t i = 0; i < rank_; i++)
        n *= dims_[i];
    return n;
}

Shape
Shape::prepended(std::size_t n) const
{
    ENODE_ASSERT(rank_ < kMaxRank, "prepended() on a rank-", kMaxRank,
                 " shape");
    Shape out;
    out.dims_[0] = n;
    for (std::size_t i = 0; i < rank_; i++)
        out.dims_[i + 1] = dims_[i];
    out.rank_ = rank_ + 1;
    ENODE_ASSERT(n > 0, "zero extent in shape");
    return out;
}

std::string
Shape::str() const
{
    std::ostringstream oss;
    oss << "[";
    for (std::size_t i = 0; i < rank_; i++)
        oss << (i ? ", " : "") << dims_[i];
    oss << "]";
    return oss.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(detail::acquireBuffer(shape_.numel()))
{
    std::fill(data_.begin(), data_.end(), 0.0f);
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)),
      data_(detail::acquireBuffer(shape_.numel()))
{
    std::fill(data_.begin(), data_.end(), fill);
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data))
{
    ENODE_ASSERT(data_.size() == shape_.numel(), "data size ", data_.size(),
                 " != shape numel ", shape_.numel());
}

Tensor::~Tensor()
{
    detail::releaseBuffer(std::move(data_));
}

Tensor::Tensor(const Tensor &other)
    : shape_(other.shape_),
      data_(detail::acquireBuffer(other.data_.size())),
      writeVersion_(other.writeVersion())
{
    std::copy(other.data_.begin(), other.data_.end(), data_.begin());
}

Tensor &
Tensor::operator=(const Tensor &other)
{
    if (this != &other)
        copyFrom(other);
    return *this;
}

Tensor::Tensor(Tensor &&other) noexcept
    : shape_(std::move(other.shape_)),
      data_(std::move(other.data_)),
      writeVersion_(other.writeVersion())
{
    other.shape_ = Shape();
    other.data_.clear();
    other.advanceWriteVersion();
}

Tensor &
Tensor::operator=(Tensor &&other) noexcept
{
    if (this != &other) {
        // Swap rather than destroy: the moved-from tensor carries our
        // old buffer back to the pool (or gets it recycled in place by
        // a later copyFrom, the stepper workspace pattern). Both
        // tensors' storage changed, and each advances its own count.
        std::swap(shape_, other.shape_);
        std::swap(data_, other.data_);
        advanceWriteVersion();
        other.advanceWriteVersion();
    }
    return *this;
}

void
Tensor::resize(const Shape &shape)
{
    advanceWriteVersion();
    if (shape.numel() != data_.size()) {
        detail::releaseBuffer(std::move(data_));
        data_ = detail::acquireBuffer(shape.numel());
    }
    shape_ = shape;
}

void
Tensor::copyFrom(const Tensor &src)
{
    ENODE_ASSERT(this != &src, "copyFrom self");
    advanceWriteVersion();
    // Match src's exact storage size (an empty tensor has no buffer even
    // though a rank-0 shape reports numel() == 1).
    if (src.data_.size() != data_.size()) {
        detail::releaseBuffer(std::move(data_));
        data_ = detail::acquireBuffer(src.data_.size());
    }
    shape_ = src.shape_;
    simdOps().copy(data_.data(), src.data_.data(), data_.size());
}

void
Tensor::reset()
{
    advanceWriteVersion();
    detail::releaseBuffer(std::move(data_));
    data_.clear();
    shape_ = Shape();
}

Tensor
Tensor::full(Shape shape, float value)
{
    return Tensor(std::move(shape), value);
}

Tensor
Tensor::randn(Shape shape, Rng &rng, float stddev)
{
    Tensor t(std::move(shape));
    for (auto &v : t.data_)
        v = static_cast<float>(rng.normal(0.0, stddev));
    return t;
}

Tensor
Tensor::uniform(Shape shape, Rng &rng, float lo, float hi)
{
    Tensor t(std::move(shape));
    for (auto &v : t.data_)
        v = static_cast<float>(rng.uniform(lo, hi));
    return t;
}

Tensor
Tensor::zerosLike(const Tensor &other)
{
    return Tensor(other.shape_);
}

float &
Tensor::at(std::size_t i)
{
    ENODE_ASSERT(i < data_.size(), "flat index ", i, " out of ", data_.size());
    advanceWriteVersion();
    return data_[i];
}

float
Tensor::at(std::size_t i) const
{
    ENODE_ASSERT(i < data_.size(), "flat index ", i, " out of ", data_.size());
    return data_[i];
}

// The const and non-const element accessors each carry the index
// check: a shared helper would add a call to every element access,
// since the check's failure path keeps it from being inlined.
float &
Tensor::at(std::size_t c, std::size_t h, std::size_t w)
{
    ENODE_ASSERT(shape_.rank() == 3, "rank-3 access on ", shape_.str());
    const std::size_t H = shape_.dim(1), W = shape_.dim(2);
    ENODE_ASSERT(c < shape_.dim(0) && h < H && w < W, "chw index out of ",
                 shape_.str());
    advanceWriteVersion();
    return data_[(c * H + h) * W + w];
}

float
Tensor::at(std::size_t c, std::size_t h, std::size_t w) const
{
    ENODE_ASSERT(shape_.rank() == 3, "rank-3 access on ", shape_.str());
    const std::size_t H = shape_.dim(1), W = shape_.dim(2);
    ENODE_ASSERT(c < shape_.dim(0) && h < H && w < W, "chw index out of ",
                 shape_.str());
    return data_[(c * H + h) * W + w];
}

float &
Tensor::at(std::size_t n, std::size_t c, std::size_t h, std::size_t w)
{
    ENODE_ASSERT(shape_.rank() == 4, "rank-4 access on ", shape_.str());
    const std::size_t C = shape_.dim(1), H = shape_.dim(2), W = shape_.dim(3);
    ENODE_ASSERT(n < shape_.dim(0) && c < C && h < H && w < W,
                 "nchw index out of ", shape_.str());
    advanceWriteVersion();
    return data_[((n * C + c) * H + h) * W + w];
}

float
Tensor::at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const
{
    ENODE_ASSERT(shape_.rank() == 4, "rank-4 access on ", shape_.str());
    const std::size_t C = shape_.dim(1), H = shape_.dim(2), W = shape_.dim(3);
    ENODE_ASSERT(n < shape_.dim(0) && c < C && h < H && w < W,
                 "nchw index out of ", shape_.str());
    return data_[((n * C + c) * H + h) * W + w];
}

Tensor
Tensor::reshaped(Shape shape) const
{
    ENODE_ASSERT(shape.numel() == numel(), "reshape ", shape_.str(), " -> ",
                 shape.str(), " changes numel");
    Tensor out(*this); // pooled copy
    out.shape_ = std::move(shape);
    return out;
}

Tensor
Tensor::sample(std::size_t n) const
{
    ENODE_ASSERT(shape_.rank() >= 2, "sample() needs rank >= 2, got ",
                 shape_.str());
    ENODE_ASSERT(n < shape_.dim(0), "sample index out of batch");
    const Shape sample_shape(shape_.dims().begin() + 1,
                             shape_.dims().end());
    const std::size_t stride = sample_shape.numel();
    Tensor out;
    out.resize(sample_shape);
    std::copy(data_.begin() + n * stride, data_.begin() + (n + 1) * stride,
              out.data_.begin());
    return out;
}

void
Tensor::setSample(std::size_t n, const Tensor &sample)
{
    ENODE_ASSERT(shape_.rank() >= 2 &&
                     sample.shape().rank() + 1 == shape_.rank(),
                 "setSample needs a leading batch dim on the target and a "
                 "one-lower-rank source, got ",
                 shape_.str(), " <- ", sample.shape().str());
    const std::size_t stride = shape_.numel() / shape_.dim(0);
    ENODE_ASSERT(sample.numel() == stride, "sample numel mismatch");
    ENODE_ASSERT(n < shape_.dim(0), "sample index out of batch");
    advanceWriteVersion();
    std::copy(sample.data_.begin(), sample.data_.end(),
              data_.begin() + n * stride);
}

void
Tensor::fill(float value)
{
    advanceWriteVersion();
    std::fill(data_.begin(), data_.end(), value);
}

void
Tensor::checkSameShape(const Tensor &other, const char *op) const
{
    ENODE_ASSERT(shape_ == other.shape_, op, ": shape ", shape_.str(),
                 " vs ", other.shape_.str());
}

Tensor &
Tensor::operator+=(const Tensor &other)
{
    checkSameShape(other, "+=");
    advanceWriteVersion();
    simdOps().addInPlace(data_.data(), other.data_.data(), data_.size());
    return *this;
}

Tensor &
Tensor::operator-=(const Tensor &other)
{
    checkSameShape(other, "-=");
    advanceWriteVersion();
    simdOps().subInPlace(data_.data(), other.data_.data(), data_.size());
    return *this;
}

Tensor &
Tensor::operator*=(float s)
{
    advanceWriteVersion();
    simdOps().scale(data_.data(), s, data_.size());
    return *this;
}

Tensor
Tensor::operator+(const Tensor &other) const
{
    Tensor out = *this;
    out += other;
    return out;
}

Tensor
Tensor::operator-(const Tensor &other) const
{
    Tensor out = *this;
    out -= other;
    return out;
}

Tensor
Tensor::operator*(float s) const
{
    Tensor out = *this;
    out *= s;
    return out;
}

void
Tensor::axpy(float alpha, const Tensor &x)
{
    checkSameShape(x, "axpy");
    advanceWriteVersion();
    simdOps().axpy(data_.data(), alpha, x.data_.data(), data_.size());
}

void
Tensor::quantizeFp16()
{
    advanceWriteVersion();
    quantizeFp16Buffer(data_.data(), data_.size());
}

double
Tensor::sum() const
{
    double s = 0.0;
    for (auto v : data_)
        s += v;
    return s;
}

double
Tensor::mean() const
{
    return data_.empty() ? 0.0 : sum() / static_cast<double>(data_.size());
}

double
Tensor::l2Norm() const
{
    // The WRMS error-norm kernel of the RK steppers. Fixed 8-double-lane
    // accumulation: bitwise identical across SIMD backends, within the
    // reduction-order tolerance of a serial sum (see DESIGN.md).
    return std::sqrt(simdOps().sumSquares(data_.data(), data_.size()));
}

double
Tensor::maxAbs() const
{
    double m = 0.0;
    for (auto v : data_)
        m = std::max(m, std::abs(static_cast<double>(v)));
    return m;
}

bool
Tensor::isFinite() const
{
    return simdOps().allFinite(data_.data(), data_.size());
}

double
Tensor::rowWindowL2(std::size_t row_begin, std::size_t row_end) const
{
    ENODE_ASSERT(shape_.rank() == 3, "rowWindowL2 needs rank 3");
    const std::size_t C = shape_.dim(0), H = shape_.dim(1), W = shape_.dim(2);
    ENODE_ASSERT(row_begin <= row_end && row_end <= H,
                 "row window [", row_begin, ", ", row_end, ") out of H=", H);
    // The row window of one channel is a contiguous span, so each
    // channel is a single sumSquares call; channel partials are summed
    // serially in channel order (deterministic per backend).
    const SimdOps &ops = simdOps();
    double s = 0.0;
    const std::size_t span = (row_end - row_begin) * W;
    for (std::size_t c = 0; c < C; c++) {
        const float *window = data_.data() + (c * H + row_begin) * W;
        s += ops.sumSquares(window, span);
    }
    return std::sqrt(s);
}

double
Tensor::maxAbsDiff(const Tensor &a, const Tensor &b)
{
    a.checkSameShape(b, "maxAbsDiff");
    double m = 0.0;
    for (std::size_t i = 0; i < a.data_.size(); i++)
        m = std::max(m, std::abs(static_cast<double>(a.data_[i]) -
                                 b.data_[i]));
    return m;
}

bool
Tensor::allClose(const Tensor &a, const Tensor &b, double rtol, double atol)
{
    if (a.shape() != b.shape())
        return false;
    for (std::size_t i = 0; i < a.data_.size(); i++) {
        const double da = a.data_[i], db = b.data_[i];
        if (std::abs(da - db) > atol + rtol * std::abs(db))
            return false;
    }
    return true;
}

} // namespace enode
