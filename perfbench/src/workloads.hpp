#pragma once

// The benchmark's workloads. Each call runs one repetition on a fresh
// cluster built from `options.seed`: set-up, the timed phase, then the
// checks computed apart from the program.

#include "harness.hpp"

namespace perfbench {

/// The paper's Modified Andrew Benchmark, three rounds with recursive
/// deletes, one client on 2048 nodes.
[[nodiscard]] RepResult run_mab(const Options& options);

/// 512 closed-loop clients through sim::run_multi_client_workload.
[[nodiscard]] RepResult run_clients(const Options& options);

/// One client over pre-written files on a self-healing 64-node cluster
/// while nodes retire and join.
[[nodiscard]] RepResult run_churn(const Options& options);

}  // namespace perfbench
