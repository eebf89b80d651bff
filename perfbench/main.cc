/**
 * @file
 * Entry point of the benchmark binary.
 *
 *   edb_perfbench --workload batch|query|served --seed N --seconds S
 *                 --trace 0|1 --work-dir DIR
 *
 * Runs one workload and prints, as the last line of stdout, one JSON
 * object {"correct", "attempted", "failed", "metrics"}. Human-readable
 * notes (sample counts, chosen tail percentiles) go to stdout above
 * it. Exits 0 only when the run completed; a failed output check
 * still exits 0 but reports correct=false and counts the op as
 * failed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "edb_perfbench: %s\nusage: edb_perfbench --workload "
                 "batch|query|served --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    pb::Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            opt.workload = v;
        else if (k == "--seed")
            opt.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            opt.seconds = std::atof(v);
        else if (k == "--trace")
            opt.trace = std::strcmp(v, "0") != 0;
        else if (k == "--work-dir")
            opt.workDir = v;
        else
            return usage(("unknown option " + k).c_str());
    }
    if (argc % 2 == 0)
        return usage("options take one value each");
    if (opt.workDir.empty() || !(opt.seconds > 0))
        return usage("--work-dir and a positive --seconds are required");

    std::filesystem::create_directories(opt.workDir);
    pb::Outcome out;
    try {
        if (opt.workload == "batch")
            pb::runBatch(opt, out);
        else if (opt.workload == "query")
            pb::runQuery(opt, out);
        else if (opt.workload == "served")
            pb::runServed(opt, out);
        else
            return usage(("unknown workload '" + opt.workload + "'").c_str());
    } catch (const std::exception &e) {
        // An op that throws outside a per-op check aborts the run: no
        // result line, nonzero exit.
        std::fprintf(stderr, "edb_perfbench: %s\n", e.what());
        return 1;
    }
    std::cout << out.json() << std::endl;
    return 0;
}
