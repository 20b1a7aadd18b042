#ifndef ENODE_NN_CONCAT_TIME_H
#define ENODE_NN_CONCAT_TIME_H

/**
 * @file
 * Time-concatenation layer.
 *
 * The embedded network of a NODE is f(t, h, theta): it takes the scalar
 * integration time t in addition to the state (Eq. 1). The standard
 * construction (Chen et al. 2018) appends t as one extra input feature:
 * an extra constant channel for (C, H, W) states, or one extra element
 * for rank-1 states. The backward pass simply drops the gradient of the
 * appended feature, since t is not differentiated through.
 */

#include <vector>

#include "nn/layer.h"

namespace enode {

/** Appends each sample's scalar time as an extra channel / feature. */
class ConcatTime : public Layer
{
  public:
    ConcatTime() = default;

    /** Set the time the next forward() appends: a one-sample time
     *  list. */
    void setTime(double t) { times_.assign(1, t); }

    /**
     * Set per-sample times for the next forwardBatched(): samples of a
     * coalesced batch sit at different points of their own stepsize
     * searches, so each gets its own t appended.
     */
    void setBatchTimes(const std::vector<double> &ts) { times_ = ts; }

    void forwardBatched(const Tensor &xs, Tensor &out) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "ConcatTime"; }
    Shape outputShape(const Shape &input) const override;

  private:
    std::vector<double> times_{0.0}; ///< one per sample; t = 0 until set
};

} // namespace enode

#endif // ENODE_NN_CONCAT_TIME_H
