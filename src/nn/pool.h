#ifndef ENODE_NN_POOL_H
#define ENODE_NN_POOL_H

/**
 * @file
 * Pooling layer for the classifier head.
 */

#include "nn/layer.h"

namespace enode {

/** Global average pool: (C, H, W) -> (C). */
class GlobalAvgPool : public Layer
{
  public:
    void forwardBatched(const Tensor &xs, Tensor &out) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "GlobalAvgPool"; }
    Shape outputShape(const Shape &input) const override;
};

} // namespace enode

#endif // ENODE_NN_POOL_H
