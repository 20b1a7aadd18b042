/**
 * @file
 * Benchmark entry point. Normally started through run.py, which
 * builds it first:
 *
 *   enode_perfbench --workload <name> --seed <n> --seconds <s>
 *                   --trace <0|1> [--git-rev <rev>] [--src-digest <hex>]
 *
 * The last line of standard output is the result JSON (see README.md).
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: enode_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--git-rev <rev>] "
                 "[--src-digest <hex>]\nworkloads:");
    for (const std::string &name : perfbench::workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opts;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            if (!(opts.seconds > 0.0))
                return usage();
        } else if (arg == "--trace") {
            opts.trace = value == "1";
            if (value != "0" && value != "1")
                return usage();
        } else if (arg == "--git-rev") {
            opts.gitRev = value;
        } else if (arg == "--src-digest") {
            opts.srcDigest = value;
        } else {
            return usage();
        }
        if (end != nullptr && *end != '\0')
            return usage();
    }
    if (opts.workload.empty())
        return usage();
    return perfbench::run(opts);
}
