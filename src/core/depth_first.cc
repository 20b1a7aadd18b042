#include "core/depth_first.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.h"
#include "common/task_pool.h"
#include "common/trace_span.h"
#include "nn/activation.h"
#include "nn/concat_time.h"
#include "nn/conv2d.h"

namespace enode {

namespace {

/** `prefix` then `n` in decimal ("k", 2 -> "k2"). Appending, unlike
 *  `"k" + std::to_string(n)`, keeps GCC 12's -Wrestrict quiet at -O3. */
std::string
numbered(std::string prefix, std::size_t n)
{
    prefix += std::to_string(n);
    return prefix;
}

} // namespace

// ---------------------------------------------------------------------------
// DDG construction
// ---------------------------------------------------------------------------

DepthFirstDdg::DepthFirstDdg(const ButcherTableau &tableau)
    : tableau_(tableau)
{
    const std::size_t s = tableau.stages();
    const auto &a = tableau.a();
    const auto &b = tableau.b();
    const bool emb = tableau.hasEmbedded();
    const auto d = emb ? tableau.errorWeights() : std::vector<double>();

    // h(t)
    const std::size_t h_idx =
        addNode(DdgNodeKind::InitialState, "h", -1, -1, {});

    // Stage 1: k1 = f(h).
    std::vector<std::size_t> k_idx(s);
    k_idx[0] = addNode(DdgNodeKind::IntegralState, "k1", 0, -1, {h_idx});

    // Partial-state chains: p_{i,1} = h + dt a_{i,1} k_1, then
    // p_{i,j} = p_{i,j-1} + dt a_{i,j} k_j; finally k_i = f(p_{i,i-1}).
    for (std::size_t i = 1; i < s; i++) {
        std::size_t prev = h_idx;
        for (std::size_t j = 0; j < i; j++) {
            std::vector<std::size_t> inputs{prev};
            if (a[i][j] != 0.0)
                inputs.push_back(k_idx[j]);
            prev = addNode(DdgNodeKind::PartialState,
                           numbered(numbered("p", i + 1), j + 1),
                           static_cast<int>(i), static_cast<int>(j), inputs);
        }
        k_idx[i] = addNode(DdgNodeKind::IntegralState,
                           numbered("k", i + 1), static_cast<int>(i),
                           -1, {prev});
    }

    // Final state accumulation (folded into the last partial chain in
    // hardware; modelled as one node reading every k with b_j != 0).
    std::vector<std::size_t> final_inputs{h_idx};
    for (std::size_t j = 0; j < s; j++)
        if (b[j] != 0.0)
            final_inputs.push_back(k_idx[j]);
    addNode(DdgNodeKind::FinalState, "h'", -1, -1, final_inputs);

    // Partial error chain e_1..e_{s-1}, then the error state e.
    if (emb) {
        std::size_t prev_e = 0;
        bool have_prev = false;
        std::size_t count = 0;
        for (std::size_t j = 0; j < s; j++) {
            if (d[j] == 0.0)
                continue;
            std::vector<std::size_t> inputs{k_idx[j]};
            if (have_prev)
                inputs.push_back(prev_e);
            count++;
            const bool last = [&] {
                for (std::size_t m = j + 1; m < s; m++)
                    if (d[m] != 0.0)
                        return false;
                return true;
            }();
            if (last) {
                addNode(DdgNodeKind::ErrorState, "e", -1, -1, inputs);
            } else {
                prev_e = addNode(DdgNodeKind::PartialError,
                                 numbered("e", count), -1,
                                 static_cast<int>(j), inputs);
                have_prev = true;
            }
        }
    }
    checkAcyclic();
}

std::size_t
DepthFirstDdg::addNode(DdgNodeKind kind, std::string name, int stage,
                       int substage, std::vector<std::size_t> inputs)
{
    for (auto i : inputs)
        ENODE_ASSERT(i < nodes_.size(), "DDG edge to future node");
    nodes_.push_back(
        {kind, std::move(name), stage, substage, std::move(inputs)});
    return nodes_.size() - 1;
}

std::size_t
DepthFirstDdg::partialStateCount() const
{
    std::size_t n = 0;
    for (const auto &node : nodes_)
        if (node.kind == DdgNodeKind::PartialState)
            n++;
    return n;
}

std::size_t
DepthFirstDdg::partialErrorCount() const
{
    std::size_t n = 0;
    for (const auto &node : nodes_)
        if (node.kind == DdgNodeKind::PartialError)
            n++;
    return n;
}

std::size_t
DepthFirstDdg::criticalPathLength() const
{
    std::vector<std::size_t> depth(nodes_.size(), 0);
    std::size_t longest = 0;
    for (std::size_t i = 0; i < nodes_.size(); i++) {
        for (auto in : nodes_[i].inputs)
            depth[i] = std::max(depth[i], depth[in] + 1);
        longest = std::max(longest, depth[i]);
    }
    return longest;
}

void
DepthFirstDdg::checkAcyclic() const
{
    // Construction only ever references earlier nodes, so the index order
    // is a topological order; verify the invariant held.
    for (std::size_t i = 0; i < nodes_.size(); i++)
        for (auto in : nodes_[i].inputs)
            ENODE_ASSERT(in < i, "DDG cycle at node ", nodes_[i].name);
}

// ---------------------------------------------------------------------------
// Closed-form buffer analyses
// ---------------------------------------------------------------------------

std::size_t
ForwardBufferAnalysis::totalRows() const
{
    return integralBufferRows + lineBufferRows;
}

double
ForwardBufferAnalysis::reductionFactor() const
{
    return static_cast<double>(baselineBytes) /
           static_cast<double>(enodeBytes);
}

ForwardBufferAnalysis
analyzeForwardBuffers(const DepthFirstConfig &cfg)
{
    ENODE_ASSERT(cfg.tableau != nullptr, "config needs a tableau");
    const std::size_t s = cfg.tableau->stages();
    const std::size_t K = cfg.kernel;
    const bool emb = cfg.tableau->hasEmbedded();

    ForwardBufferAnalysis out{};
    out.partialStateRows = s * (s - 1) / 2;
    out.partialErrorRows = emb ? s - 1 : 0;
    out.integralPsumRows = s;
    out.stageBufferRows = s * K; // K input rows per stream state buffer
    out.stagingRows = 2;
    out.convWindowRows = s * cfg.fDepth * (K - 1);

    // Both SRAMs are double-buffered so a stream can fill one half while
    // the cores drain the other (no-stall packetized processing).
    out.integralBufferRows =
        2 * (out.partialStateRows + out.partialErrorRows +
             out.integralPsumRows + out.stageBufferRows + out.stagingRows);
    out.lineBufferRows = 2 * out.convWindowRows;

    const std::size_t row_bytes = cfg.W * cfg.C * cfg.bytesPerElement;
    out.enodeIntegralBytes = out.integralBufferRows * row_bytes;
    out.enodeLineBytes = out.lineBufferRows * row_bytes;
    out.enodeBytes = out.enodeIntegralBytes + out.enodeLineBytes;

    // The layer-by-layer baseline buffers every integral state as a full
    // feature map for the duration of the step.
    out.baselineBytes = s * cfg.H * row_bytes;
    return out;
}

double
TrainingBufferAnalysis::reductionFactor() const
{
    return static_cast<double>(totalBytes) /
           static_cast<double>(enodeWorkingSetBytes);
}

std::size_t
TrainingBufferAnalysis::dramTrafficBytes(std::size_t buffer_bytes,
                                         bool depth_first) const
{
    const std::size_t need =
        depth_first ? enodeWorkingSetBytes : totalBytes;
    const std::size_t spill = need > buffer_bytes ? need - buffer_bytes : 0;
    return 2 * spill; // each spilled byte is written once and read once
}

std::size_t
backwardStageCount(const ButcherTableau &tableau)
{
    const std::size_t s = tableau.stages();
    std::size_t backward_stages = 0;
    for (std::size_t j = 0; j < s; j++) {
        bool contributes = tableau.b()[j] != 0.0;
        for (std::size_t m = j + 1; m < s && !contributes; m++)
            contributes = tableau.a()[m][j] != 0.0;
        if (contributes)
            backward_stages++;
    }
    return backward_stages;
}

TrainingBufferAnalysis
analyzeTrainingBuffers(const DepthFirstConfig &cfg)
{
    ENODE_ASSERT(cfg.tableau != nullptr, "config needs a tableau");

    TrainingBufferAnalysis out{};
    out.trainingStateMaps = backwardStageCount(*cfg.tableau) * cfg.fDepth;
    const std::size_t row_bytes = cfg.W * cfg.C * cfg.bytesPerElement;
    out.totalBytes = out.trainingStateMaps * cfg.H * row_bytes;

    // Lifetime model: the adjoint streams row-by-row through all M maps
    // right behind the local forward's production. A row of the map at
    // pipeline position p (1-based, production order) is consumed when
    // the adjoint front — which lags production by one conv window per
    // remaining map — reaches it: live window of (M - p)(K - 1) + c
    // rows, c = 2 covering the adjoint's own conv halo.
    const std::size_t M = out.trainingStateMaps;
    const std::size_t lag = cfg.kernel - 1;
    std::size_t ws_rows = 0;
    for (std::size_t p = 1; p <= M; p++)
        ws_rows += std::min((M - p) * lag + 2, cfg.H);
    out.enodeWorkingSetBytes = ws_rows * row_bytes;
    return out;
}

// ---------------------------------------------------------------------------
// Streaming executor
// ---------------------------------------------------------------------------

namespace {

/** A map whose rows are produced and retired incrementally. */
struct StreamMap
{
    std::string name;
    Tensor data;               // full storage (bookkeeping tracks windows)
    std::size_t rowsComputed = 0;
    std::size_t rowsRetired = 0;
    bool counted = true; // outputs stream off-chip and are not buffered

    std::size_t liveRows() const { return rowsComputed - rowsRetired; }
};

/** The conv stack extracted from a streamable EmbeddedNet. */
struct ConvStack
{
    std::vector<const Conv2d *> convs;
    std::vector<bool> reluAfter; // applied to conv d's output
};

ConvStack
extractConvStack(EmbeddedNet &net)
{
    ConvStack stack;
    Sequential &body = net.body();
    ENODE_ASSERT(dynamic_cast<ConcatTime *>(&body.layer(0)) != nullptr,
                 "embedded net must start with ConcatTime");
    for (std::size_t i = 1; i < body.size(); i++) {
        Layer &layer = body.layer(i);
        if (auto *conv = dynamic_cast<Conv2d *>(&layer)) {
            stack.convs.push_back(conv);
            stack.reluAfter.push_back(false);
        } else if (dynamic_cast<ReLU *>(&layer) != nullptr) {
            ENODE_ASSERT(!stack.convs.empty(), "ReLU before first conv");
            stack.reluAfter.back() = true;
        } else {
            ENODE_FATAL("streamingStep supports Conv2d/ReLU bodies only; "
                        "found ", layer.name(),
                        " (use EmbeddedNet::makeStreamableConvNet)");
        }
    }
    ENODE_ASSERT(!stack.convs.empty(), "no conv layers in embedded net");
    return stack;
}

/**
 * Compute one output row of a conv layer from an input map, optionally
 * treating the final weight input-channel as a constant time plane and
 * applying ReLU to the result.
 */
void
convRow(const Tensor &in, const Conv2d &conv, std::size_t row,
        bool time_channel, double time_value, bool relu, Tensor &out)
{
    const std::size_t C_in = in.shape().dim(0);
    const std::size_t H = in.shape().dim(1);
    const std::size_t W = in.shape().dim(2);
    const std::size_t M = conv.outChannels();
    const std::size_t K = conv.kernel();
    const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(K / 2);
    const Tensor &weight = conv.weight();
    ENODE_ASSERT(conv.inChannels() == C_in + (time_channel ? 1 : 0),
                 "conv channel mismatch in streaming executor");

    for (std::size_t m = 0; m < M; m++) {
        const float bias = conv.bias().empty()
                               ? 0.0f
                               : conv.bias().at(m);
        for (std::size_t w = 0; w < W; w++) {
            float acc = bias;
            for (std::size_t kh = 0; kh < K; kh++) {
                const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(row) +
                                          static_cast<std::ptrdiff_t>(kh) -
                                          pad;
                if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(H))
                    continue;
                for (std::size_t kw = 0; kw < K; kw++) {
                    const std::ptrdiff_t iw =
                        static_cast<std::ptrdiff_t>(w) +
                        static_cast<std::ptrdiff_t>(kw) - pad;
                    if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(W))
                        continue;
                    for (std::size_t c = 0; c < C_in; c++) {
                        acc += in.at(c, static_cast<std::size_t>(ih),
                                     static_cast<std::size_t>(iw)) *
                               weight.at(m, c, kh, kw);
                    }
                    if (time_channel) {
                        acc += static_cast<float>(time_value) *
                               weight.at(m, C_in, kh, kw);
                    }
                }
            }
            if (relu && acc < 0.0f)
                acc = 0.0f;
            out.at(m, row, w) = acc;
        }
    }
}

/**
 * Per-run state and row producers of one RK step, shared by the serial
 * depth-first scheduler and the packetized pipeline. Compute methods
 * take an explicit row and never touch the progress counters, so a wave
 * of packets can run them concurrently (each packet writes only its own
 * row) and bump the counters afterwards — the serial path interleaves
 * the same calls one row at a time.
 */
class StreamEngine
{
  public:
    StreamEngine(EmbeddedNet &net, const ButcherTableau &tableau, double t,
                 const Tensor &h, double dt)
        : stack_(extractConvStack(net)), s_(tableau.stages()),
          depth_(stack_.convs.size()), C_(h.shape().dim(0)),
          H_(h.shape().dim(1)), W_(h.shape().dim(2)), a_(tableau.a()),
          b_(tableau.b()), c_(tableau.c()), emb_(tableau.hasEmbedded()),
          d_(emb_ ? tableau.errorWeights() : std::vector<double>()),
          pad_rows_(stack_.convs.front()->kernel() / 2), t_(t), dt_(dt),
          h_(h)
    {
        ENODE_ASSERT(h.shape().rank() == 3,
                     "streaming executor needs a CHW state");
        // Maps: the source h, per-stage inputs (stage 0 aliases h), the
        // conv chains z[j][l] (z[j][depth-1] is k_j), and the streamed
        // outputs. h itself *streams in* row by row: rows are fetched on
        // demand (the lowest-priority producer), so its live window
        // stays bounded like every other buffer.
        h_map_ = {"h", h, 0, 0, true};
        stage_in_.resize(s_); // [j]; j = 0 unused (alias of h)
        z_.resize(s_);
        for (std::size_t j = 0; j < s_; j++) {
            if (j > 0)
                stage_in_[j] = {numbered("y", j + 1),
                                Tensor(Shape{C_, H_, W_}), 0, 0, true};
            z_[j].resize(depth_);
            for (std::size_t l = 0; l < depth_; l++)
                z_[j][l] = {numbered(numbered("z", j + 1) + ".", l + 1),
                            Tensor(Shape{C_, H_, W_}), 0, 0, true};
        }
        y_next_ = {"h'", h, 0, 0, false}; // starts as a copy of h
        e_map_ = {"e", Tensor(Shape{C_, H_, W_}), 0, 0, false};
    }

    StreamingResult runSerial();
    StreamingResult runPipelined(TaskPool &pool, std::size_t width);

  private:
    /** One schedulable row of work: {stream j, layer l, row r}. */
    struct Packet
    {
        enum class Kind : unsigned char
        {
            Error,   ///< e row (most downstream)
            Final,   ///< h' row
            Conv,    ///< z[j][l] row
            StageIn, ///< stage-input combine row
        };
        Kind kind;
        std::size_t j;
        std::size_t l;
        std::size_t r;
    };

    StreamMap &inputOf(std::size_t j)
    {
        return j == 0 ? h_map_ : stage_in_[j];
    }
    StreamMap &kMap(std::size_t j) { return z_[j][depth_ - 1]; }

    // --- Readiness ---------------------------------------------------------
    // Each producer's ready range is [rowsComputed, limit): the limit is
    // the first row whose inputs are not all complete under the current
    // counters. The serial scheduler asks for one row (rowsComputed <
    // limit); the pipeline takes the whole range, so a wave's packets
    // only ever read rows finished in earlier waves.
    std::size_t stageInLimit(std::size_t j)
    {
        std::size_t lim = std::min(H_, h_map_.rowsComputed);
        for (std::size_t l = 0; l < j; l++)
            if (a_[j][l] != 0.0)
                lim = std::min(lim, kMap(l).rowsComputed);
        return lim;
    }
    std::size_t convLimit(std::size_t j, std::size_t l)
    {
        // Row r needs source rows through min(r + pad, H - 1): the
        // producer's limit trails its source by the halo until the
        // source is complete.
        const StreamMap &src = l == 0 ? inputOf(j) : z_[j][l - 1];
        if (src.rowsComputed >= H_)
            return H_;
        return src.rowsComputed > pad_rows_ ? src.rowsComputed - pad_rows_
                                            : 0;
    }
    std::size_t outputLimit(bool use_b)
    {
        std::size_t lim = H_;
        if (use_b)
            lim = std::min(lim, h_map_.rowsComputed);
        for (std::size_t j = 0; j < s_; j++) {
            const double coeff = use_b ? b_[j] : d_[j];
            if (coeff != 0.0)
                lim = std::min(lim, kMap(j).rowsComputed);
        }
        return lim;
    }

    // --- Row computations (explicit row, no counter updates) ---------------
    void computeStageIn(std::size_t j, std::size_t r)
    {
        for (std::size_t cc = 0; cc < C_; cc++) {
            for (std::size_t w = 0; w < W_; w++) {
                float acc = h_.at(cc, r, w);
                for (std::size_t l = 0; l < j; l++) {
                    if (a_[j][l] != 0.0)
                        acc += static_cast<float>(dt_ * a_[j][l]) *
                               kMap(l).data.at(cc, r, w);
                }
                stage_in_[j].data.at(cc, r, w) = acc;
            }
        }
    }
    void computeConv(std::size_t j, std::size_t l, std::size_t r)
    {
        const StreamMap &src = l == 0 ? inputOf(j) : z_[j][l - 1];
        convRow(src.data, *stack_.convs[l], r, /*time_channel=*/l == 0,
                t_ + c_[j] * dt_, stack_.reluAfter[l], z_[j][l].data);
    }
    void computeOutput(StreamMap &map, bool use_b, std::size_t r)
    {
        for (std::size_t cc = 0; cc < C_; cc++) {
            for (std::size_t w = 0; w < W_; w++) {
                float acc = use_b ? h_.at(cc, r, w) : 0.0f;
                for (std::size_t j = 0; j < s_; j++) {
                    const double coeff = use_b ? b_[j] : d_[j];
                    if (coeff != 0.0)
                        acc += static_cast<float>(dt_ * coeff) *
                               kMap(j).data.at(cc, r, w);
                }
                map.data.at(cc, r, w) = acc;
            }
        }
    }
    void execute(const Packet &p)
    {
        switch (p.kind) {
        case Packet::Kind::Error:
            computeOutput(e_map_, false, p.r);
            break;
        case Packet::Kind::Final:
            computeOutput(y_next_, true, p.r);
            break;
        case Packet::Kind::Conv:
            computeConv(p.j, p.l, p.r);
            break;
        case Packet::Kind::StageIn:
            computeStageIn(p.j, p.r);
            break;
        }
    }
    StreamMap &mapOf(const Packet &p)
    {
        switch (p.kind) {
        case Packet::Kind::Error:
            return e_map_;
        case Packet::Kind::Final:
            return y_next_;
        case Packet::Kind::Conv:
            return z_[p.j][p.l];
        case Packet::Kind::StageIn:
        default:
            return stage_in_[p.j];
        }
    }

    // --- Retirement --------------------------------------------------------
    // A row retires once every consumer that reads it has produced the
    // rows that need it. The conv halo means row r of a conv input is
    // last read when the consumer produces row r + pad.
    void retireSweep()
    {
        // h: read by every stage-input combine at row r, by stage 0's
        // first conv up to row r + pad, and by h' at row r.
        while (h_map_.rowsRetired < H_) {
            const std::size_t r = h_map_.rowsRetired;
            bool dead =
                y_next_.rowsComputed > r &&
                z_[0][0].rowsComputed >= std::min(r + pad_rows_ + 1, H_);
            for (std::size_t j = 1; j < s_ && dead; j++)
                dead = stage_in_[j].rowsComputed > r;
            if (!dead)
                break;
            h_map_.rowsRetired++;
        }
        // Stage inputs: consumed by the stage's first conv.
        for (std::size_t j = 1; j < s_; j++) {
            while (stage_in_[j].rowsRetired < H_) {
                const std::size_t r = stage_in_[j].rowsRetired;
                if (z_[j][0].rowsComputed < std::min(r + pad_rows_ + 1, H_))
                    break;
                stage_in_[j].rowsRetired++;
            }
        }
        // Conv intermediates: consumed by the next conv in the chain;
        // k_j (the last conv) is consumed by later stage inputs and the
        // two outputs.
        for (std::size_t j = 0; j < s_; j++) {
            for (std::size_t l = 0; l < depth_; l++) {
                StreamMap &map = z_[j][l];
                while (map.rowsRetired < H_) {
                    const std::size_t r = map.rowsRetired;
                    bool dead = true;
                    if (l + 1 < depth_) {
                        dead = z_[j][l + 1].rowsComputed >=
                               std::min(r + pad_rows_ + 1, H_);
                    } else {
                        for (std::size_t m = j + 1; m < s_ && dead; m++)
                            if (a_[m][j] != 0.0)
                                dead = stage_in_[m].rowsComputed > r;
                        if (dead && b_[j] != 0.0)
                            dead = y_next_.rowsComputed > r;
                        if (dead && emb_ && d_[j] != 0.0)
                            dead = e_map_.rowsComputed > r;
                    }
                    if (!dead)
                        break;
                    map.rowsRetired++;
                }
            }
        }
    }

    std::size_t liveRows() const
    {
        std::size_t live = h_map_.liveRows();
        for (std::size_t j = 1; j < s_; j++)
            live += stage_in_[j].liveRows();
        for (std::size_t j = 0; j < s_; j++)
            for (std::size_t l = 0; l < depth_; l++)
                live += z_[j][l].liveRows();
        return live;
    }

    bool finished() const
    {
        return y_next_.rowsComputed >= H_ &&
               (!emb_ || e_map_.rowsComputed >= H_);
    }

    StreamingResult takeResult(StreamingResult result)
    {
        result.yNext = std::move(y_next_.data);
        if (emb_)
            result.errorState = std::move(e_map_.data);
        return result;
    }

    const ConvStack stack_;
    const std::size_t s_, depth_, C_, H_, W_;
    const std::vector<std::vector<double>> &a_;
    const std::vector<double> &b_, &c_;
    const bool emb_;
    const std::vector<double> d_;
    const std::size_t pad_rows_;
    const double t_, dt_;
    const Tensor &h_;

    StreamMap h_map_;
    std::vector<StreamMap> stage_in_;
    std::vector<std::vector<StreamMap>> z_;
    StreamMap y_next_;
    StreamMap e_map_;
};

StreamingResult
StreamEngine::runSerial()
{
    StreamingResult result{};

    // --- Depth-first scheduler ---------------------------------------------
    // Always advance the most downstream computable row first: outputs,
    // then the latest streams (highest stage) deepest-conv-first — the
    // hardware's priority-selector policy ("a later stream is given a
    // higher priority", Sec. V.B).
    while (!finished()) {
        bool progressed = false;
        if (emb_ && e_map_.rowsComputed < outputLimit(false)) {
            computeOutput(e_map_, false, e_map_.rowsComputed);
            e_map_.rowsComputed++;
            progressed = true;
        } else if (y_next_.rowsComputed < outputLimit(true)) {
            computeOutput(y_next_, true, y_next_.rowsComputed);
            y_next_.rowsComputed++;
            progressed = true;
        } else {
            for (std::size_t jj = s_; jj-- > 0 && !progressed;) {
                for (std::size_t ll = depth_; ll-- > 0 && !progressed;) {
                    if (z_[jj][ll].rowsComputed < convLimit(jj, ll)) {
                        computeConv(jj, ll, z_[jj][ll].rowsComputed);
                        z_[jj][ll].rowsComputed++;
                        progressed = true;
                    }
                }
                if (!progressed && jj > 0 &&
                    stage_in_[jj].rowsComputed < stageInLimit(jj)) {
                    computeStageIn(jj, stage_in_[jj].rowsComputed);
                    stage_in_[jj].rowsComputed++;
                    progressed = true;
                }
            }
        }
        if (!progressed && h_map_.rowsComputed < H_) {
            // Nothing downstream can run: fetch the next input row (the
            // demand-driven arrival of h from the producer/DRAM).
            h_map_.rowsComputed++;
            progressed = true;
        }
        ENODE_ASSERT(progressed, "streaming schedule deadlocked");
        result.totalRowsComputed++;
        retireSweep();
        result.peakLiveRows = std::max(result.peakLiveRows, liveRows());
    }

    return takeResult(std::move(result));
}

StreamingResult
StreamEngine::runPipelined(TaskPool &pool, std::size_t width)
{
    ENODE_ASSERT(width >= 1, "pipeline width must be at least 1");
    StreamingResult result{};

    // --- Wavefront scheduler -----------------------------------------------
    // Each wave fills up to `width` ring slots with ready row packets in
    // the same most-downstream-first priority the serial scheduler uses,
    // runs them concurrently on the pool, then commits the progress
    // counters. Readiness is evaluated against the wave-*start* counters
    // only, so every packet reads rows finished in earlier waves and
    // writes its own row — value-wise the schedule cannot matter, which
    // is what makes the pipelined output bitwise equal to the serial
    // one at any width. Leftover slots are filled with input-row
    // fetches (the hub streaming h in alongside the compute).
    std::vector<Packet> wave;
    wave.reserve(width);
    while (!finished()) {
        TraceSpan wave_span("pipeline.wave", "pipeline");
        wave.clear();
        auto take = [&](Packet::Kind kind, std::size_t j, std::size_t l,
                        const StreamMap &map, std::size_t limit) {
            for (std::size_t r = map.rowsComputed;
                 r < limit && wave.size() < width; r++)
                wave.push_back({kind, j, l, r});
        };
        if (emb_)
            take(Packet::Kind::Error, 0, 0, e_map_, outputLimit(false));
        take(Packet::Kind::Final, 0, 0, y_next_, outputLimit(true));
        for (std::size_t jj = s_; jj-- > 0;) {
            for (std::size_t ll = depth_; ll-- > 0;)
                take(Packet::Kind::Conv, jj, ll, z_[jj][ll],
                     convLimit(jj, ll));
            if (jj > 0)
                take(Packet::Kind::StageIn, jj, 0, stage_in_[jj],
                     stageInLimit(jj));
        }
        const std::size_t packets = wave.size();
        const std::size_t fetches =
            std::min(width - packets, H_ - h_map_.rowsComputed);
        ENODE_ASSERT(packets + fetches > 0,
                     "streaming pipeline deadlocked");

        if (packets > 0) {
            pool.parallelFor(
                1, packets,
                [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; i++) {
                        // Packet spans land in each pool thread's own
                        // ring: the trace shows the {stream, layer,
                        // row} tiling across the core ring.
                        TraceSpan packet_span("pipeline.packet",
                                              "pipeline");
                        packet_span.arg(
                            "kind",
                            static_cast<double>(wave[i].kind));
                        packet_span.arg(
                            "stream", static_cast<double>(wave[i].j));
                        packet_span.arg(
                            "layer", static_cast<double>(wave[i].l));
                        packet_span.arg(
                            "row", static_cast<double>(wave[i].r));
                        execute(wave[i]);
                    }
                },
                width);
            // Commit: each producer's packets are contiguous rows, so
            // bumping once per packet reproduces the serial counters.
            for (const Packet &p : wave)
                mapOf(p).rowsComputed++;
        }
        h_map_.rowsComputed += fetches;

        wave_span.arg("packets", static_cast<double>(packets));
        wave_span.arg("fetches", static_cast<double>(fetches));
        wave_span.arg("wave",
                      static_cast<double>(result.pipelineWaves));
        result.pipelineWaves++;
        result.pipelinePackets += packets;
        result.totalRowsComputed += packets + fetches;
        retireSweep();
        result.peakLiveRows = std::max(result.peakLiveRows, liveRows());
    }

    result.pipelineOccupancy =
        result.pipelineWaves == 0
            ? 0.0
            : static_cast<double>(result.pipelinePackets) /
                  (static_cast<double>(result.pipelineWaves) *
                   static_cast<double>(width));
    return takeResult(std::move(result));
}

} // namespace

StreamingExecutor::StreamingExecutor(EmbeddedNet &net,
                                     const ButcherTableau &tableau)
    : net_(net), tableau_(tableau)
{
}

StreamingResult
StreamingExecutor::run(double t, const Tensor &h, double dt)
{
    StreamEngine engine(net_, tableau_, t, h, dt);
    return engine.runSerial();
}

StreamingResult
StreamingExecutor::runPipelined(double t, const Tensor &h, double dt,
                                const PipelineOptions &opts)
{
    TaskPool &pool = opts.pool != nullptr ? *opts.pool : TaskPool::global();
    const std::size_t width =
        opts.width != 0 ? opts.width : std::max<std::size_t>(1, pool.width());
    StreamEngine engine(net_, tableau_, t, h, dt);
    return engine.runPipelined(pool, width);
}

StreamingResult
streamingStep(EmbeddedNet &net, const ButcherTableau &tableau, double t,
              const Tensor &h, double dt)
{
    return StreamingExecutor(net, tableau).run(t, h, dt);
}

} // namespace enode
