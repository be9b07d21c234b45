// One solve of a workload, PPM or MPI, with every public layer call timed
// from outside and the public counters read back afterwards.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "core/ppm.hpp"
#include "sim/parallel.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// CPU time of the whole process (all host threads), in seconds. The
/// windowed simulator runs a solve on several host threads, so a layer's
/// summed unit costs compare with CPU time, not with wall time.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time of the calling host thread, in seconds: unlike wall time it
/// leaves out the time the thread was descheduled.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct PpmSolve {
  std::string error;        // empty: ran and passed the output check
  double machine_s = 0;     // cluster::Machine construction
  double runtime_s = 0;     // Runtime construction
  double run_s = 0;         // Machine::run_per_node
  double collect_s = 0;     // Runtime::collect
  double cpu_s = 0;         // process CPU time of run plus collect
  ppm::RunResult result;
  uint64_t events = 0;      // Engine::events_fired summed over the nodes
  ppm::sim::WindowStats windows;

  /// Host wall time of the solve itself: run plus collect.
  double host_s() const { return run_s + collect_s; }
};

struct MpiSolve {
  std::string error;
  double run_s = 0;      // Machine::run_per_core
  int64_t vtime_ns = 0;
  uint64_t msgs = 0;   // inter-node fabric messages
  uint64_t bytes = 0;  // inter-node fabric bytes
  uint64_t events = 0;
};

/// Run one PPM solve with a fresh Machine and Runtime and check its output.
/// Exceptions (program errors, deadlocks) land in `error`. `spans` may be
/// null; `plant_wrong` damages the output before the check.
PpmSolve run_ppm(Workload& w, int sim_threads, bool trace, Spans* spans,
                 bool plant_wrong = false);

MpiSolve run_mpi(Workload& w, int sim_threads, Spans* spans);

}  // namespace perfbench
