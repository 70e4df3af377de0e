/**
 * @file
 * The driver's two process modes. run.py launches each as a child and
 * talks to it over stdin/stdout lines; see README.md for the protocol.
 */

#ifndef WCNN_PERFBENCH_MODES_HH
#define WCNN_PERFBENCH_MODES_HH

#include "common.hh"

namespace perfbench {

/** `pipeline`: the study worker process. */
int runPipeline(const Args &args);

/** `loadgen`: the open-loop serving load generator process. */
int runLoadgen(const Args &args);

} // namespace perfbench

#endif // WCNN_PERFBENCH_MODES_HH
