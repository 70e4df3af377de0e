/**
 * @file
 * Shared parallel-execution layer.
 *
 * The paper's methodology is repeated training: 5-fold cross
 * validation, node-count/stop-threshold trials, and dense 2-D surface
 * sweeps — all embarrassingly parallel. This module provides the one
 * primitive the model and simulation layers route those hot paths
 * through: a fork-join parallelFor over real OS threads (unrelated to
 * `sim::ThreadPool`, which models the app server's execute queues in
 * *simulated* time).
 *
 * Determinism contract: a task is an index in [0, n) and every task
 * writes only to its own index-addressed slot, so results are
 * bit-identical at any thread count, including the serial path. Any
 * task-local randomness must come from a stream derived from the config
 * seed and the task index (numeric::Rng::stream) — never from wall
 * clock, thread id, or a shared generator (lint rule R1).
 *
 * Failure contract: exceptions (including wcnn::ContractViolation)
 * propagate out of parallelFor first-failure, where "first" means the
 * lowest task index — every run of every thread count rethrows the
 * same exception. All tasks run to completion before the rethrow so
 * the choice cannot depend on scheduling.
 */

#ifndef WCNN_CORE_PARALLEL_HH
#define WCNN_CORE_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace wcnn {
namespace core {

/** Usable hardware concurrency, floored to 1. */
std::size_t hardwareThreads();

/**
 * Run body(i) for every i in [0, n) and block until all tasks finish.
 *
 * Fork-join: the calling thread and `min(threads, n) - 1` spawned
 * threads claim indices from one shared counter, and the spawned
 * threads are joined before the call returns. `threads <= 1` or
 * `n <= 1` runs inline with no thread at all. Execution order is
 * unspecified, so callers must write results only to index-addressed
 * slots. If any tasks throw, the exception of the lowest-index failing
 * task is rethrown after every task has run.
 *
 * @param n       Task count.
 * @param threads Runner count, the caller included; 0 selects
 *                hardwareThreads().
 * @param body    Task body; invoked concurrently, must be thread-safe.
 */
void parallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)> &body);

} // namespace core
} // namespace wcnn

#endif // WCNN_CORE_PARALLEL_HH
