#ifndef ENODE_NN_LINEAR_H
#define ENODE_NN_LINEAR_H

/**
 * @file
 * Fully connected layer.
 *
 * Used as the embedded network for low-dimensional dynamic-system NODEs
 * (Three-Body, Lotka-Volterra) and as the classifier head of the image
 * models. Operates on rank-1 tensors.
 */

#include <cstdint>

#include "nn/layer.h"

namespace enode {

class Rng;

/**
 * y = W x + b on rank-1 tensors.
 *
 * The forward runs matvecPanels on a copy of W in 16-row column panels,
 * packed on the first forward after each write to W (noticed by W's
 * write version, so any writer serves fresh weights without telling the
 * layer). The layer reads W only through const, so no read repacks.
 */
class Linear : public Layer
{
  public:
    Linear(std::size_t in_features, std::size_t out_features, Rng &rng,
           bool with_bias = true);

    void forwardBatched(const Tensor &xs, Tensor &out) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<ParamSlot> paramSlots() override;
    std::string name() const override;
    Shape outputShape(const Shape &input) const override;

    std::size_t inFeatures() const { return inFeatures_; }
    std::size_t outFeatures() const { return outFeatures_; }

    Tensor &weight() { return weight_; }

  private:
    /** The column panels of weight_, repacked if weight_ was written
     *  since they were packed. */
    const float *panels();

    std::size_t inFeatures_;
    std::size_t outFeatures_;
    bool withBias_;

    Tensor weight_; // (out, in)
    Tensor weightGrad_;
    Tensor bias_; // (out) or empty
    Tensor biasGrad_;

    /** weight_ as 16-row column panels, packed from weight_ at write
     *  version packedVersion_ (empty until the first forward). */
    std::vector<float> panels_;
    std::uint64_t packedVersion_ = 0;
};

} // namespace enode

#endif // ENODE_NN_LINEAR_H
