#ifndef ENODE_TENSOR_TENSOR_H
#define ENODE_TENSOR_TENSOR_H

/**
 * @file
 * Dense float tensor, the data type for NODE states and NN activations.
 *
 * Layout is row-major over up to four dimensions interpreted as
 * (N, C, H, W) for images / feature maps, (C, H, W) for a single sample,
 * or arbitrary 1-2D shapes for vectors and matrices. The ODE solvers
 * treat a Tensor as a flat state vector; the NN layers interpret it
 * spatially. Storage is float32; FP16 datapath effects are modelled by
 * explicit quantization passes (see common/fp16.h) rather than by storing
 * halves, matching how an accelerator keeps FP32 accumulators with FP16
 * operands.
 */

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace enode {

class Rng;

/**
 * Shape of a tensor: up to four extents, all positive.
 *
 * Extents live inline (no heap storage): temporary tensors are minted
 * by the thousand per solve on the trainer and solver hot paths, and a
 * heap-allocated dims vector per temporary would be the one allocation
 * the pooled float storage cannot hide. With inline extents a
 * pool-hit Tensor construction touches the heap zero times.
 */
class Shape
{
  public:
    static constexpr std::size_t kMaxRank = 4;

    /** Iterable, comparable view of the inline extents. */
    class DimsView
    {
      public:
        DimsView(const std::size_t *data, std::size_t size)
            : data_(data), size_(size)
        {
        }

        const std::size_t *begin() const { return data_; }
        const std::size_t *end() const { return data_ + size_; }
        std::size_t size() const { return size_; }
        std::size_t operator[](std::size_t i) const { return data_[i]; }

        bool operator==(const DimsView &other) const
        {
            if (size_ != other.size_)
                return false;
            for (std::size_t i = 0; i < size_; i++)
                if (data_[i] != other.data_[i])
                    return false;
            return true;
        }
        bool operator!=(const DimsView &other) const
        {
            return !(*this == other);
        }

      private:
        const std::size_t *data_;
        std::size_t size_;
    };

    Shape() = default;
    Shape(std::initializer_list<std::size_t> dims);
    explicit Shape(const std::vector<std::size_t> &dims);
    /** From a contiguous extent range (e.g. a dims() sub-range). */
    Shape(const std::size_t *begin, const std::size_t *end);

    std::size_t rank() const { return rank_; }
    std::size_t dim(std::size_t i) const;
    /** Total element count (1 for a rank-0 shape). */
    std::size_t numel() const;

    /** (n, d0, d1, ...) from (d0, d1, ...): batch-prepend an extent. */
    Shape prepended(std::size_t n) const;

    bool operator==(const Shape &other) const
    {
        return dims() == other.dims();
    }
    bool operator!=(const Shape &other) const { return !(*this == other); }

    /** "[2, 8, 64, 64]" for diagnostics. */
    std::string str() const;

    DimsView dims() const { return DimsView(dims_.data(), rank_); }

  private:
    std::array<std::size_t, kMaxRank> dims_{};
    std::size_t rank_ = 0;
};

/**
 * Dense row-major float tensor with value semantics.
 *
 * Storage is drawn from the thread-local Workspace arena
 * (tensor/workspace.h): construction reuses a recycled buffer of the
 * same size when one is available and destruction returns the buffer to
 * the pool, so steady-state solver loops allocate nothing from the
 * heap. Copy assignment into a tensor of equal element count reuses the
 * existing storage outright.
 *
 * Every tensor counts the writes it takes (writeVersion()), so a holder
 * of a copy derived from its elements, such as Linear's column panels,
 * can tell in O(1) whether the copy is still current.
 */
class Tensor
{
  public:
    /** Empty tensor (rank 0, no storage). */
    Tensor() = default;

    ~Tensor();
    Tensor(const Tensor &other);
    Tensor &operator=(const Tensor &other);
    Tensor(Tensor &&other) noexcept;
    Tensor &operator=(Tensor &&other) noexcept;

    /** Zero-filled tensor of the given shape. */
    explicit Tensor(Shape shape);

    /** Constant-filled tensor. */
    Tensor(Shape shape, float fill);

    /** Adopt existing data; size must match the shape. */
    Tensor(Shape shape, std::vector<float> data);

    static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
    static Tensor full(Shape shape, float value);
    static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
    /** I.i.d. normal entries from an explicit generator. */
    static Tensor randn(Shape shape, Rng &rng, float stddev = 1.0f);
    /** I.i.d. uniform entries in [lo, hi). */
    static Tensor uniform(Shape shape, Rng &rng, float lo, float hi);
    /** Tensor with the same shape as another, zero filled. */
    static Tensor zerosLike(const Tensor &other);

    const Shape &shape() const { return shape_; }
    std::size_t numel() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    /**
     * Mutable element pointer. Taking it advances writeVersion(): the
     * version moves when the pointer is taken, not when it is written
     * through. Writes through a pointer taken before a reader compared
     * versions are invisible to that reader, so take the pointer again
     * for every round of writes.
     */
    float *data()
    {
        advanceWriteVersion();
        return data_.data();
    }
    const float *data() const { return data_.data(); }

    /**
     * This tensor's write count. Every member that can write the
     * elements or replace the storage advances it: non-const data() and
     * at(), fill, setSample, copyFrom, resize, reset, the in-place
     * arithmetic, axpy, quantizeFp16, and copy and move assignment.
     * Const access never does. An assignment advances the destination's
     * own count and never imports the source's, so it never lands on a
     * version the destination held before; a copy or move construction
     * starts at the source's version. Threads that write disjoint elements at
     * once may all advance it without racing; they may lose counts
     * between them, but once they are done the count differs from any
     * taken before they began.
     */
    std::uint64_t writeVersion() const
    {
        return writeVersion_.load(std::memory_order_relaxed);
    }

    /** Flat element access with bounds check in debug paths. */
    float &at(std::size_t i);
    float at(std::size_t i) const;

    /** (c, h, w) access on a rank-3 tensor. */
    float &at(std::size_t c, std::size_t h, std::size_t w);
    float at(std::size_t c, std::size_t h, std::size_t w) const;

    /** (n, c, h, w) access on a rank-4 tensor. */
    float &at(std::size_t n, std::size_t c, std::size_t h, std::size_t w);
    float at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const;

    /** View this storage under a different shape with equal numel. */
    Tensor reshaped(Shape shape) const;

    /**
     * Extract sample n along the leading (batch) dimension of a rank >= 2
     * tensor as a rank-reduced tensor, e.g. (N, C, H, W) -> (C, H, W) or
     * (N, D) -> (D).
     */
    Tensor sample(std::size_t n) const;

    /** Overwrite sample n along the leading (batch) dimension. */
    void setSample(std::size_t n, const Tensor &sample);

    void fill(float value);

    /** In-place scale by a scalar (alias of *=, named for workspaces). */
    void scale(float s) { *this *= s; }

    /**
     * Re-shape this tensor in place. A same-numel resize keeps the
     * storage and the elements, so it views them under the new shape
     * (the batch-of-one views of Layer::forward and
     * EmbeddedNet::evalInto rely on this); otherwise the storage is
     * re-acquired from the workspace pool and the contents are
     * unspecified.
     */
    void resize(const Shape &shape);

    /** Become an elementwise copy of src, reusing storage when possible. */
    void copyFrom(const Tensor &src);

    /** Release storage (back to the workspace pool); rank 0 afterwards. */
    void reset();

    /** In-place elementwise: this += other. Shapes must match. */
    Tensor &operator+=(const Tensor &other);
    /** In-place elementwise: this -= other. Shapes must match. */
    Tensor &operator-=(const Tensor &other);
    /** In-place scale: this *= s. */
    Tensor &operator*=(float s);

    Tensor operator+(const Tensor &other) const;
    Tensor operator-(const Tensor &other) const;
    Tensor operator*(float s) const;

    /** this += alpha * x (the BLAS axpy, the workhorse of RK updates). */
    void axpy(float alpha, const Tensor &x);

    /** Round every element through FP16 (models a 16-bit datapath). */
    void quantizeFp16();

    double sum() const;
    double mean() const;
    /** Euclidean norm over all elements. */
    double l2Norm() const;
    /** Largest |element|. */
    double maxAbs() const;

    /**
     * True when no element is NaN or infinite (vacuously true when
     * empty). The cheap screen the solver runs on accepted states and
     * the serving runtime runs on every response payload.
     */
    bool isFinite() const;

    /**
     * Euclidean norm restricted to rows [row_begin, row_end) of a rank-3
     * (C, H, W) tensor, across all channels. This is the primitive behind
     * priority processing: the error map is scanned row-window by
     * row-window (Sec. VII.B).
     */
    double rowWindowL2(std::size_t row_begin, std::size_t row_end) const;

    /** Largest elementwise |a - b|; shapes must match. */
    static double maxAbsDiff(const Tensor &a, const Tensor &b);

    /** True when every |a_i - b_i| <= atol + rtol * |b_i|. */
    static bool allClose(const Tensor &a, const Tensor &b,
                         double rtol = 1e-5, double atol = 1e-7);

  private:
    void checkSameShape(const Tensor &other, const char *op) const;

    /** A relaxed load and a relaxed store, not a locked increment: on
     *  x86 the same code as a plain `++`. */
    void advanceWriteVersion()
    {
        writeVersion_.store(writeVersion_.load(std::memory_order_relaxed) + 1,
                            std::memory_order_relaxed);
    }

    Shape shape_;
    std::vector<float> data_;
    std::atomic<std::uint64_t> writeVersion_{0};
};

} // namespace enode

#endif // ENODE_TENSOR_TENSOR_H
