/**
 * @file
 * Entry point of the benchmark's driver binary:
 *
 *     perfbench_driver pipeline ...                    (the study)
 *     perfbench_driver loadgen  --workload serve_cold|serve_hot ...
 *
 * run.py builds and launches it; it is not meant to be run by hand.
 */

#include <cstdio>
#include <exception>
#include <string>

#include "modes.hh"

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fputs("usage: perfbench_driver pipeline|loadgen --flags\n",
                   stderr);
        return 2;
    }
    const std::string mode = argv[1];
    try {
        const perfbench::Args args(argc, argv, 2);
        if (mode == "pipeline")
            return perfbench::runPipeline(args);
        if (mode == "loadgen")
            return perfbench::runLoadgen(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver %s: %s\n", mode.c_str(),
                     e.what());
        return 1;
    }
    std::fprintf(stderr, "perfbench_driver: unknown mode %s\n",
                 mode.c_str());
    return 2;
}
