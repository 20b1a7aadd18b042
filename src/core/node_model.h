#ifndef ENODE_CORE_NODE_MODEL_H
#define ENODE_CORE_NODE_MODEL_H

/**
 * @file
 * The Neural-ODE model: a stack of integration layers (Fig. 2(a)).
 *
 * A NODE is a series of first-order ODEs dh/dt = f_i(t, h) (Eq. 1), one
 * per integration layer, each solved as an IVP over its time period with
 * an adaptive integrator. NodeModel drives solveIvp per layer and
 * aggregates statistics; NodeClassifier adds a convolutional encoder and
 * a linear head for the image-classification workloads.
 */

#include <memory>
#include <vector>

#include "common/fault_injection.h"
#include "nn/loss.h"
#include "nn/sequential.h"
#include "ode/batched_ivp.h"
#include "ode/ivp.h"
#include "ode/ode_function.h"

namespace enode {

/**
 * Adapts an EmbeddedNet to both f interfaces. Every evaluation runs the
 * layers' one forward arithmetic and keeps nothing for vjp(): a solo
 * evaluation is EmbeddedNet::evalInto, evalBatched on a batch of one, so
 * a solo solve and a batch-of-one batched solve evaluate f alike, and a
 * warm solo evaluation takes no Workspace storage. The adapter holds
 * only the net, so building it makes no heap call: NodeModel builds one
 * per layer solve.
 */
class EmbeddedNetOde : public OdeFunction, public BatchedOdeFunction
{
  public:
    explicit EmbeddedNetOde(EmbeddedNet &net) : net_(net) {}

    Tensor
    eval(double t, const Tensor &h) override
    {
        Tensor d;
        evalInto(t, h, d);
        return d;
    }

    void
    evalInto(double t, const Tensor &h, Tensor &out) override
    {
        countEval();
        net_.evalInto(t, h, out);
        probeFaults(out, 1);
    }

    void
    evalInto(const std::vector<double> &ts, const Tensor &hs,
             Tensor &out) override
    {
        net_.evalBatched(ts, hs, out);
        probeFaults(out, ts.size());
    }

    EmbeddedNet &net() { return net_; }

  private:
    /**
     * Chaos probe: an armed fault plan can corrupt a sample's f output
     * with NaN/Inf at a chosen evaluation index (a single relaxed atomic
     * load when disarmed). The n samples stacked in `out` are walked in
     * order, one hit per per-sample evaluation, and this is the exact
     * tensor the RK stepper consumes, so injected corruption flows
     * through the production trial/accept path.
     */
    static void
    probeFaults(Tensor &out, std::size_t n)
    {
        const std::size_t stride = out.numel() / n;
        for (std::size_t i = 0; i < n; i++)
            FaultInjector::instance().maybeCorrupt(
                "node.feval", out.data() + i * stride, stride);
    }

    EmbeddedNet &net_;
};

/** Per-sample outcome of a batched forward pass (all sized n). */
struct BatchedForwardResult
{
    std::vector<Tensor> outputs;      ///< h after the last layer
    std::vector<IvpStats> stats;      ///< aggregated over layers
    /**
     * First non-Ok layer status per sample, or Ok. A failing sample
     * stops integrating further layers (its untrustworthy state is
     * still returned) while its batchmates continue.
     */
    std::vector<SolveStatus> status;
};

/** Per-forward-pass record kept for the backward pass. */
struct NodeForwardResult
{
    Tensor output;                    ///< h after the last layer
    std::vector<IvpResult> layers;    ///< per-layer checkpoints and stats
    IvpStats totalStats;              ///< aggregated over layers
    /**
     * First non-Ok layer status, or Ok. A failing layer ends the
     * forward pass immediately — its (untrustworthy) final state is
     * still returned as `output` for diagnostics, but callers must
     * treat any non-Ok forward as unusable.
     */
    SolveStatus status = SolveStatus::Ok;
};

/** A stack of integration layers sharing solver configuration. */
class NodeModel
{
  public:
    /**
     * @param nets One embedded network per integration layer (the state
     *        shape must be preserved by each).
     * @param layer_time Integration period T of each layer (t in [0, T]).
     */
    NodeModel(std::vector<std::unique_ptr<EmbeddedNet>> nets,
              double layer_time = 1.0);

    /**
     * Convenience constructor: num_layers conv embedded nets of the given
     * channel count and depth (the paper's 4-integration-layer NODE with
     * a 4-conv-layer f).
     */
    static std::unique_ptr<NodeModel> makeConv(std::size_t num_layers,
                                               std::size_t channels,
                                               std::size_t f_depth,
                                               Rng &rng);

    /** MLP variant for dynamic-system states. */
    static std::unique_ptr<NodeModel> makeMlp(std::size_t num_layers,
                                              std::size_t dim,
                                              std::size_t hidden,
                                              std::size_t f_depth, Rng &rng);

    /**
     * Augmented NODE (Dupont et al., the paper's Ref. [7]): the state is
     * lifted to dim + aug dimensions, giving the flow room to realize
     * maps a plain NODE cannot (crossing trajectories). Use
     * augmentState()/truncateState() to move between the original and
     * the lifted space.
     */
    static std::unique_ptr<NodeModel> makeAugmentedMlp(
        std::size_t num_layers, std::size_t dim, std::size_t aug,
        std::size_t hidden, std::size_t f_depth, Rng &rng);

    /**
     * Forward pass (inference): solve each layer's IVP in sequence.
     *
     * @param x Initial state h(0) of the first layer.
     * @param tableau Integrator.
     * @param controller Stepsize-search policy; reset per layer.
     * @param opts Solver options (tolerance epsilon etc.).
     * @param evaluator Optional priority/early-stop trial evaluator.
     * @param guard Optional per-accepted-step abort check on the whole
     *        pass's stats so far (request deadlines, f-eval budgets).
     */
    NodeForwardResult forward(const Tensor &x, const ButcherTableau &tableau,
                              StepController &controller,
                              const IvpOptions &opts,
                              TrialEvaluator *evaluator = nullptr,
                              SolveGuard *guard = nullptr);

    /**
     * Batched forward pass (inference only): solve each layer's IVP for
     * all samples together via solveIvpBatched, sharing one f
     * evaluation per RK stage across the batch while keeping error
     * control, stats, and failure status per sample. A sample that
     * fails a layer drops out of later layers; the rest continue.
     * Like forward(), it reads the parameters as they are at the call,
     * whoever last wrote them.
     *
     * @param xs Initial states (same shape each).
     * @param controllers One stepsize controller per sample (reset per
     *        layer, like the solo path's single controller).
     * @param guards Optional per-sample abort checks (each as forward()'s
     *        guard), sized like xs.
     */
    BatchedForwardResult forwardBatched(
        const std::vector<Tensor> &xs, const ButcherTableau &tableau,
        const std::vector<StepController *> &controllers,
        const IvpOptions &opts,
        const std::vector<SolveGuard *> *guards = nullptr);

    /**
     * True when `state` is a shape the model can solve: every
     * integration layer's net maps it to itself. Reads only the nets'
     * fixed layer configuration, never parameters or solver state, so
     * any thread may ask while another runs the model.
     */
    bool acceptsState(const Shape &state) const;

    std::size_t numLayers() const { return nets_.size(); }
    EmbeddedNet &net(std::size_t layer) { return *nets_.at(layer); }
    const EmbeddedNet &net(std::size_t layer) const
    {
        return *nets_.at(layer);
    }
    double layerTime() const { return layerTime_; }

    /**
     * All parameter slots across layers (for the optimizer, the weight
     * registry and checkpoints), named "node<i>.<layer slot>". Built
     * once at construction, so a call makes no heap call.
     */
    const std::vector<ParamSlot> &paramSlots() { return slots_; }
    void zeroGrad();
    std::size_t paramCount();

  private:
    std::vector<std::unique_ptr<EmbeddedNet>> nets_;
    double layerTime_;
    std::vector<ParamSlot> slots_; ///< paramSlots(), built once
    /**
     * Solver workspace threaded through every layer solve: the RK stage
     * buffers, walking state, and FSAL stage persist across layers and
     * forward calls, so repeated inference on same-shaped inputs
     * allocates nothing. Makes forward() non-reentrant — concurrent
     * serving uses per-worker model replicas (see runtime/).
     */
    IvpWorkspace ivpWorkspace_;
    /** Same role for forwardBatched (also non-reentrant). */
    BatchedIvpWorkspace batchedIvpWorkspace_;
};

/** Lift a rank-1 state with `aug` zero-initialized extra dimensions. */
Tensor augmentState(const Tensor &x, std::size_t aug);

/** Drop the augmented dimensions, keeping the first `dim` entries. */
Tensor truncateState(const Tensor &x, std::size_t dim);

/** Encoder + NODE + classifier head for image workloads. */
class NodeClassifier
{
  public:
    /**
     * @param in_channels Input image channels (3 for CIFAR-like, 1 for
     *        MNIST-like).
     * @param state_channels NODE state channels.
     * @param num_layers Integration layers.
     * @param f_depth Conv layers inside each f.
     * @param num_classes Output classes.
     * @param rng Weight init.
     */
    NodeClassifier(std::size_t in_channels, std::size_t state_channels,
                   std::size_t num_layers, std::size_t f_depth,
                   std::size_t num_classes, Rng &rng);

    /** Logits for one image; forward records kept for training. */
    struct Result
    {
        Tensor logits;
        NodeForwardResult node;
    };

    Result forward(const Tensor &image, const ButcherTableau &tableau,
                   StepController &controller, const IvpOptions &opts,
                   TrialEvaluator *evaluator = nullptr);

    NodeModel &node() { return *node_; }
    Sequential &encoder() { return *encoder_; }
    Sequential &head() { return *head_; }

    std::vector<ParamSlot> paramSlots();
    void zeroGrad();

  private:
    std::unique_ptr<Sequential> encoder_;
    std::unique_ptr<NodeModel> node_;
    std::unique_ptr<Sequential> head_;
};

} // namespace enode

#endif // ENODE_CORE_NODE_MODEL_H
