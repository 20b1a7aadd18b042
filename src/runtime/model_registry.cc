#include "runtime/model_registry.h"

#include "common/logging.h"

namespace enode {

namespace {

Hash128
digestParams(const std::vector<std::pair<std::string, Tensor>> &params)
{
    StreamHasher hasher;
    hasher.update(params.size());
    for (const auto &kv : params) {
        hasher.updateSized(kv.first.data(), kv.first.size());
        hashTensorInto(hasher, kv.second);
    }
    return hasher.digest();
}

} // namespace

std::shared_ptr<WeightSnapshot>
ModelRegistry::capture(NodeModel &model)
{
    auto snap = std::make_shared<WeightSnapshot>();
    const std::vector<ParamSlot> &slots = model.paramSlots();
    snap->params.reserve(slots.size());
    for (const auto &slot : slots) {
        Tensor copy;
        copy.copyFrom(*slot.param);
        snap->params.emplace_back(slot.name, std::move(copy));
    }
    snap->paramsDigest = digestParams(snap->params);
    return snap;
}

void
ModelRegistry::seed(NodeModel &model)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ENODE_ASSERT(live_ == nullptr, "ModelRegistry already seeded");
    live_ = capture(model);
    latestVersion_.store(0, std::memory_order_release);
}

std::uint64_t
ModelRegistry::publish(std::shared_ptr<WeightSnapshot> snap)
{
    // The caller copied and digested the weights before the lock:
    // every admission reads the live snapshot, and none of them should
    // wait for a copy.
    ENODE_ASSERT(snap != nullptr, "ModelRegistry::publish of null");
    std::lock_guard<std::mutex> lock(mutex_);
    ENODE_ASSERT(live_ != nullptr, "ModelRegistry::publish before seed()");
    const std::uint64_t version = live_->version + 1;
    snap->version = version;
    live_ = std::move(snap);
    published_.fetch_add(1, std::memory_order_relaxed);
    latestVersion_.store(version, std::memory_order_release);
    return version;
}

std::shared_ptr<const WeightSnapshot>
ModelRegistry::latest() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ENODE_ASSERT(live_ != nullptr, "ModelRegistry::latest before seed()");
    return live_;
}

void
ModelRegistry::applyTo(const WeightSnapshot &snap, NodeModel &model)
{
    const std::vector<ParamSlot> &slots = model.paramSlots();
    ENODE_ASSERT(slots.size() == snap.params.size(),
                 "snapshot/model slot count mismatch");
    for (std::size_t i = 0; i < slots.size(); i++) {
        const auto &kv = snap.params[i];
        ENODE_ASSERT(slots[i].name == kv.first,
                     "snapshot/model slot name mismatch at ", i, ": '",
                     slots[i].name, "' vs '", kv.first, "'");
        ENODE_ASSERT(slots[i].param->shape() == kv.second.shape(),
                     "snapshot/model shape mismatch for slot '", kv.first,
                     "'");
        slots[i].param->copyFrom(kv.second);
    }
}

StatGroup
ModelRegistry::snapshotStats() const
{
    StatGroup stats("model");
    stats.set("model.version", static_cast<double>(latestVersion()));
    stats.setCounter("model.published", published());
    stats.setCounter("model.swaps", swapsApplied());
    return stats;
}

} // namespace enode
