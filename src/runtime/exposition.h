#ifndef ENODE_RUNTIME_EXPOSITION_H
#define ENODE_RUNTIME_EXPOSITION_H

/**
 * @file
 * Prometheus text exposition of StatGroup snapshots.
 *
 * Renders a StatGroup as the Prometheus text format (version 0.0.4):
 * one `# HELP` / `# TYPE` header pair followed by the sample line per
 * metric. Hierarchical stat keys ("latency.total.p99_ms") become legal
 * metric names by mapping separators to underscores and prefixing a
 * namespace ("enode_latency_total_p99_ms"). Each sample is typed with
 * the StatKind its producer declared (StatGroup::setCounter vs. set).
 * Non-finite values are skipped — the format has no representation for
 * them and scrapers reject the whole page otherwise.
 */

#include <string>

#include "common/stats.h"

namespace enode {

/** "latency.total.p99_ms" -> "ns_latency_total_p99_ms" (ns = prefix). */
std::string prometheusMetricName(const std::string &key,
                                 const std::string &ns = "enode");

/** Render one StatGroup as Prometheus exposition text. */
std::string prometheusText(const StatGroup &group,
                           const std::string &ns = "enode");

} // namespace enode

#endif // ENODE_RUNTIME_EXPOSITION_H
