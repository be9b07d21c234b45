// Layer probes: micro-benchmarks that time single public calls of one
// layer at a workload's node count, on the workload's machine model.
// Costs of whole simulated runs (send, commit, barrier) are process CPU
// time, so they add up across the simulator's host threads; calls timed
// inside one fiber (read hit, write) are that host thread's CPU time.
#pragma once

namespace perfbench {

struct Probes {
  double switch_ns = 0;            // sim: fiber ping-pong via Engine::yield
  double event_ns = 0;             // sim: one Engine::at callback in a chain
  double send_ns = 0;              // net: Fabric::send -> Endpoint::recv
  double read_hit_ns = 0;          // core: cached-remote GlobalShared::get
  double write_ns = 0;             // core: remote GlobalShared::min_update
  double commit_ns_per_entry = 0;  // core: commit/apply host cost per entry
  double barrier_us = 0;           // core: vtime of one empty global phase
  double barrier_host_us = 0;      // core: CPU time of that phase
};

/// Run every probe; each one repeats and keeps its median.
Probes run_probes(int nodes, int sim_threads);

}  // namespace perfbench
