/**
 * @file
 * Shared helpers for the serial-vs-parallel bench reports, used by
 * the figure benches and the google-benchmark binaries alike:
 * `--threads N` argv parsing and the BENCH_parallel.json record sink
 * that CI uploads as an artifact (appended through
 * appendJsonRecord, common.hh). Wall-clock timing lives in
 * core/telemetry.hh (timedSeconds) — the one sanctioned clock (lint
 * rule R5).
 */

#ifndef WCNN_BENCH_PARALLEL_REPORT_HH
#define WCNN_BENCH_PARALLEL_REPORT_HH

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common.hh"

namespace wcnn {
namespace bench {

/**
 * Parse and strip a `--threads N` (or `--threads=N`) argument.
 *
 * Stripping matters for the google-benchmark binaries, whose own
 * Initialize() rejects flags it does not know.
 *
 * @param argc     Argument count; decremented when the flag is found.
 * @param argv     Argument vector; compacted in place.
 * @param fallback Value when the flag is absent.
 */
inline std::size_t
parseThreads(int &argc, char **argv, std::size_t fallback = 1)
{
    std::size_t threads = fallback;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads" && i + 1 < argc) {
            threads = static_cast<std::size_t>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg.rfind("--threads=", 0) == 0) {
            threads = static_cast<std::size_t>(
                std::strtoul(arg.c_str() + 10, nullptr, 10));
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return threads;
}

/**
 * Append one serial-vs-parallel measurement to BENCH_parallel.json
 * (a JSON array next to the binary; created on first use, merged
 * across benches) and echo it to stdout.
 *
 * @param bench      Emitting binary, e.g. "bench_parallel".
 * @param stage      Measured pipeline stage, e.g. "cross-validation".
 * @param threads    Worker threads of the parallel run.
 * @param serial_s   Serial wall time in seconds.
 * @param parallel_s Parallel wall time in seconds.
 * @param identical  Whether the two results were bit-identical.
 */
inline void
appendParallelRecord(const std::string &bench, const std::string &stage,
                     std::size_t threads, double serial_s,
                     double parallel_s, bool identical)
{
    const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;

    std::ostringstream record;
    record << "  {\"bench\": \"" << bench << "\", \"stage\": \""
           << stage << "\", \"threads\": " << threads
           << ", \"serial_seconds\": " << serial_s
           << ", \"parallel_seconds\": " << parallel_s
           << ", \"speedup\": " << speedup << ", \"bit_identical\": "
           << (identical ? "true" : "false") << "}";

    appendJsonRecord("BENCH_parallel.json", record.str());

    std::printf("[parallel] %s/%s: serial %.3fs, %zu threads %.3fs, "
                "speedup %.2fx, bit-identical %s\n",
                bench.c_str(), stage.c_str(), serial_s, threads,
                parallel_s, speedup, identical ? "yes" : "NO");
}

} // namespace bench
} // namespace wcnn

#endif // WCNN_BENCH_PARALLEL_REPORT_HH
