#ifndef ENODE_RUNTIME_MODEL_REGISTRY_H
#define ENODE_RUNTIME_MODEL_REGISTRY_H

/**
 * @file
 * The live weight snapshot, for online training and hot reload.
 *
 * The registry is the handoff point between the training service and
 * the serving workers: the trainer publishes an immutable snapshot of
 * the master weights, the registry stamps it with a monotonically
 * increasing version and makes it the live one, and each worker swaps
 * the live snapshot into its private NodeModel replica at its next
 * dispatch boundary. The swap is purely thread-local — a worker only
 * touches its own replica between solves — so in-flight inference is
 * never corrupted: a solve that started on version v finishes on
 * version v, and the next dispatch runs on the new weights.
 *
 * Version 0 is the server's construction weights (seeded by the
 * server itself, which also applies it to every replica); every
 * publish() bumps the version. The registry holds only the live
 * snapshot. Snapshots are shared_ptr-immutable, so a reader keeps the
 * one it read alive however many publications replace it, and never
 * blocks the publisher beyond one pointer copy.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/node_model.h"
#include "tensor/hash.h"

namespace enode {

/** One immutable versioned copy of a model's parameters. */
struct WeightSnapshot
{
    std::uint64_t version = 0;
    /** (slot name, parameter value) in paramSlots() order. */
    std::vector<std::pair<std::string, Tensor>> params;
    /** Digest of the parameter names and bytes (not the version), so
     *  two versions with identical weights share cache identities. */
    Hash128 paramsDigest;
};

/** Thread-safe holder of the live weight snapshot. */
class ModelRegistry
{
  public:
    ModelRegistry() = default;

    ModelRegistry(const ModelRegistry &) = delete;
    ModelRegistry &operator=(const ModelRegistry &) = delete;

    /**
     * Install the construction weights as version 0. Called once by
     * the owning server before any publish; does not count as a
     * published update.
     */
    void seed(NodeModel &model);

    /** Stamp a captured snapshot (see capture()) with the next version
     *  and make it the live one. Returns the new version number. The
     *  caller may keep its reference, but must not write through it. */
    std::uint64_t publish(std::shared_ptr<WeightSnapshot> snap);

    /** The live snapshot (never null after seed()). */
    std::shared_ptr<const WeightSnapshot> latest() const;

    /** The live version number; lock-free fast path for worker polls. */
    std::uint64_t latestVersion() const
    {
        return latestVersion_.load(std::memory_order_acquire);
    }

    /** Overwrite the model's parameters with the snapshot's (matched
     *  positionally by slot name and shape; mismatch is fatal). */
    static void applyTo(const WeightSnapshot &snap, NodeModel &model);

    /** Capture a model's parameters at version 0 (no registry
     *  interaction; publish() stamps the version), reading them through
     *  const. The caller holds the only reference until it shares or
     *  publishes the snapshot. */
    static std::shared_ptr<WeightSnapshot> capture(NodeModel &model);

    /** publish() calls since construction. */
    std::uint64_t published() const
    {
        return published_.load(std::memory_order_relaxed);
    }

    /** Replica swaps workers reported via noteSwapApplied(). */
    std::uint64_t swapsApplied() const
    {
        return swapsApplied_.load(std::memory_order_relaxed);
    }

    /** A worker finished swapping a replica to the live version. */
    void noteSwapApplied()
    {
        swapsApplied_.fetch_add(1, std::memory_order_relaxed);
    }

    /** "model.*" gauges/counters for exposition. */
    StatGroup snapshotStats() const;

  private:
    mutable std::mutex mutex_;
    std::shared_ptr<const WeightSnapshot> live_;
    std::atomic<std::uint64_t> latestVersion_{0};
    std::atomic<std::uint64_t> published_{0};
    std::atomic<std::uint64_t> swapsApplied_{0};
};

} // namespace enode

#endif // ENODE_RUNTIME_MODEL_REGISTRY_H
