// The benchmark's workloads: one figure application each, with its input
// generator, serial reference, PPM and MPI node programs, and the output
// checks. The machine model is the figure benches' one
// (bench/bench_common.hpp) in modeled-only calibration, so virtual time is
// a pure function of the program and the cost model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/machine.hpp"
#include "core/ppm.hpp"
#include "mp/comm.hpp"

namespace perfbench {

inline constexpr int kCoresPerNode = 4;

/// The figure benches' machine (6 us / 2 GB/s network, 4 cores per node)
/// on the windowed simulator in modeled-only calibration.
ppm::cluster::MachineConfig machine_config(int nodes, int sim_threads);

/// The figure benches' runtime options: library defaults plus 16 KiB read
/// blocks.
ppm::RuntimeOptions runtime_options();

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual int nodes() const = 0;

  /// Build the inputs from the seed (the same seed gives the same inputs).
  virtual void generate(uint64_t seed) = 0;
  /// Solve on the host with the serial reference code; the checks compare
  /// against its result.
  virtual void serial_reference() = 0;

  /// Size the per-node / per-rank output slots before a solve.
  virtual void prepare_ppm() = 0;
  virtual void prepare_mpi() = 0;
  /// PPM node program; collective over the machine's nodes. Each node
  /// writes only its own output slot (nodes run on several host threads).
  virtual void ppm_node(ppm::Env& env) = 0;
  /// MPI rank program; collective over all ranks.
  virtual void mpi_rank(ppm::mp::Comm& comm) = 0;

  /// Compare the last solve's output with the serial reference. Returns an
  /// empty string when it matches, otherwise what differs.
  virtual std::string check_ppm() const = 0;
  virtual std::string check_mpi() const = 0;

  /// Drop the stored outputs once checked (they can be large).
  virtual void release_outputs() = 0;

  /// Self-test hook: damage the stored PPM output so the next check_ppm
  /// must fail.
  virtual void plant_wrong_answer() = 0;
};

/// "cg-64", "barneshut-16" or "bfs-16"; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// Every workload name, for usage messages and the self-test.
const char* const* workload_names();

}  // namespace perfbench
