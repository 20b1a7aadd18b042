#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

/**
 * @file
 * The benchmark's three workloads (sensor-mlp, image-conv, train-mix)
 * against the public InferenceServer / TrainingService API. README.md
 * says what each one exercises and why it exists.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One invocation of the benchmark command. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** false: time the end-to-end metrics untraced; true: the separate
     *  traced run that reports the per-layer metrics. */
    bool trace = false;
    /** Provenance stamped on the result (passed in by run.py). */
    std::string gitRev = "unknown";
    std::string srcDigest = "unknown";
};

/** Names run() accepts, in the order README.md documents them. */
std::vector<std::string> workloadNames();

/**
 * Run one workload: print the stamp, the metrics by name and unit, the
 * span ledger when tracing, and last the result JSON line. Returns the
 * process exit code (non-zero when any output check failed).
 */
int run(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
