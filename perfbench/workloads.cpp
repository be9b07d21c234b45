#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "apps/cg/cg_mpi.hpp"
#include "apps/cg/cg_ppm.hpp"
#include "apps/cg/cg_serial.hpp"
#include "apps/graph/graph.hpp"
#include "apps/graph/graph_mpi.hpp"
#include "apps/graph/graph_ppm.hpp"
#include "apps/nbody/nbody_mpi.hpp"
#include "apps/nbody/nbody_ppm.hpp"
#include "apps/nbody/nbody_serial.hpp"

namespace perfbench {

using namespace ppm;

cluster::MachineConfig machine_config(int nodes, int sim_threads) {
  cluster::MachineConfig cfg;
  cfg.nodes = nodes;
  cfg.cores_per_node = kCoresPerNode;
  cfg.network = {.latency_ns = 6'000,
                 .bytes_per_ns = 2.0,
                 .send_overhead_ns = 600,
                 .recv_overhead_ns = 600};
  cfg.intranode = {.latency_ns = 500,
                   .bytes_per_ns = 5.0,
                   .send_overhead_ns = 200,
                   .recv_overhead_ns = 200};
  cfg.engine.calibration = sim::CalibrationMode::kModeledOnly;
  cfg.sim_threads = sim_threads;
  return cfg;
}

RuntimeOptions runtime_options() {
  RuntimeOptions opts;
  opts.read_block_bytes = 16 * 1024;
  return opts;
}

namespace {

std::string format(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

/// Residual histories agree within the tolerance of tests/app_cg_test.cpp.
std::string compare_residuals(const std::vector<double>& got,
                              const std::vector<double>& want,
                              const char* who) {
  if (got.size() != want.size()) {
    return format("%s: %zu residuals, reference has %zu", who, got.size(),
                  want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) <= 1e-6 * (1 + std::abs(want[i])))) {
      return format("%s: residual %zu is %.17g, reference %.17g", who, i,
                    got[i], want[i]);
    }
  }
  return {};
}

// ---- cg-64: Fig.1 CG on a 24x24x(46..50) chimney, 8 iterations, 64 nodes ----

class CgWorkload final : public Workload {
 public:
  std::string name() const override { return "cg-64"; }
  int nodes() const override { return 64; }

  // The seed picks the chimney height, nz in 46..50 around Fig.1's 48, so
  // that the inputs (and with them the modeled times) depend on the seed.
  // Nothing is built here: CG assembles its operator inside the solve.
  void generate(uint64_t seed) override { problem_.nz = 46 + seed % 5; }

  void serial_reference() override {
    const apps::cg::CsrMatrix a = apps::cg::build_chimney_matrix(problem_);
    const std::vector<double> b = apps::cg::build_chimney_rhs(problem_);
    reference_ = apps::cg::cg_solve_serial(a, b, options_).residual_history;
  }

  void prepare_ppm() override { ppm_out_.assign(64, {}); }
  void prepare_mpi() override { mpi_out_.assign(64 * kCoresPerNode, {}); }

  void ppm_node(Env& env) override {
    ppm_out_[static_cast<size_t>(env.node_id())] =
        apps::cg::cg_solve_ppm(env, problem_, options_).residual_history;
  }

  void mpi_rank(mp::Comm& comm) override {
    mpi_out_[static_cast<size_t>(comm.rank())] =
        apps::cg::cg_solve_mpi(comm, problem_, options_).residual_history;
  }

  std::string check_ppm() const override {
    for (const auto& h : ppm_out_) {
      std::string err = compare_residuals(h, reference_, "ppm");
      if (!err.empty()) return err;
    }
    return {};
  }

  // PPM and MPI agree because both match the same serial history.
  std::string check_mpi() const override {
    for (const auto& h : mpi_out_) {
      std::string err = compare_residuals(h, reference_, "mpi");
      if (!err.empty()) return err;
    }
    return {};
  }

  void release_outputs() override {
    ppm_out_ = {};
    mpi_out_ = {};
  }

  void plant_wrong_answer() override { ppm_out_.at(0).at(0) += 1.0; }

 private:
  apps::cg::ChimneyProblem problem_{.nx = 24, .ny = 24, .nz = 48};
  apps::cg::CgOptions options_{.max_iterations = 8, .tolerance = 0.0};
  std::vector<double> reference_;
  std::vector<std::vector<double>> ppm_out_;
  std::vector<std::vector<double>> mpi_out_;
};

// ---- barneshut-16: Fig.3 Barnes-Hut, 4,000-body Plummer sphere ----

class BarnesHutWorkload final : public Workload {
 public:
  std::string name() const override { return "barneshut-16"; }
  int nodes() const override { return 16; }

  void generate(uint64_t seed) override {
    init_ = apps::nbody::make_plummer(kBodies, seed);
  }

  void serial_reference() override {
    reference_ = init_;
    apps::nbody::simulate_serial_bh(reference_, options_);
  }

  void prepare_ppm() override { ppm_out_ = {}; }
  void prepare_mpi() override { mpi_out_ = {}; }

  void ppm_node(Env& env) override {
    auto st = apps::nbody::setup_nbody_ppm(env, init_);
    apps::nbody::simulate_ppm(env, st, options_);
    apps::nbody::BodySet snap = apps::nbody::snapshot_ppm(env, st);
    if (env.node_id() == 0) ppm_out_ = std::move(snap);
  }

  void mpi_rank(mp::Comm& comm) override {
    auto st = apps::nbody::setup_nbody_mpi(comm, init_);
    apps::nbody::simulate_mpi(comm, st, options_);
    apps::nbody::BodySet snap = apps::nbody::snapshot_mpi(comm, st);
    if (comm.rank() == 0) mpi_out_ = std::move(snap);
  }

  std::string check_ppm() const override { return compare(ppm_out_, "ppm"); }
  std::string check_mpi() const override { return compare(mpi_out_, "mpi"); }

  void release_outputs() override {
    ppm_out_ = {};
    mpi_out_ = {};
  }

  void plant_wrong_answer() override { ppm_out_.px.at(0) += 1.0; }

 private:
  static constexpr uint64_t kBodies = 4'000;

  /// Positions within the deviation tests/app_nbody_test.cpp allows
  /// between the distributed and the serial tree code.
  std::string compare(const apps::nbody::BodySet& got, const char* who) const {
    if (got.size() != reference_.size()) {
      return format("%s: %llu bodies, reference has %llu", who,
                    static_cast<unsigned long long>(got.size()),
                    static_cast<unsigned long long>(reference_.size()));
    }
    for (uint64_t i = 0; i < got.size(); ++i) {
      const apps::nbody::Vec3 d = got.position(i) - reference_.position(i);
      const double dev = std::sqrt(d.norm2());
      if (!(dev < 5e-3)) {
        return format("%s: body %llu is %.3g away from the reference", who,
                      static_cast<unsigned long long>(i), dev);
      }
    }
    return {};
  }

  apps::nbody::NbodyOptions options_{
      .theta = 0.5, .eps = 0.01, .dt = 0.002, .steps = 3};
  apps::nbody::BodySet init_;
  apps::nbody::BodySet reference_;
  apps::nbody::BodySet ppm_out_;
  apps::nbody::BodySet mpi_out_;
};

// ---- bfs-16: BFS on an R-MAT graph, 200,000 vertices, degree 8 ----

class BfsWorkload final : public Workload {
 public:
  std::string name() const override { return "bfs-16"; }
  int nodes() const override { return 16; }

  void generate(uint64_t seed) override {
    graph_ = apps::graph::make_rmat_graph(kVertices, 8.0, seed);
  }

  void serial_reference() override {
    reference_ = apps::graph::bfs_serial(graph_, kSource);
  }

  void prepare_ppm() override { ppm_out_.assign(16, {}); }
  void prepare_mpi() override { mpi_out_.assign(16 * kCoresPerNode, {}); }

  void ppm_node(Env& env) override {
    ppm_out_[static_cast<size_t>(env.node_id())] =
        apps::graph::bfs_ppm(env, graph_, kSource, Distribution::kBlock);
  }

  void mpi_rank(mp::Comm& comm) override {
    mpi_out_[static_cast<size_t>(comm.rank())] =
        apps::graph::bfs_mpi(comm, graph_, kSource);
  }

  std::string check_ppm() const override { return compare(ppm_out_, "ppm"); }
  std::string check_mpi() const override { return compare(mpi_out_, "mpi"); }

  void release_outputs() override {
    ppm_out_ = {};
    mpi_out_ = {};
  }

  void plant_wrong_answer() override { ppm_out_.at(0).at(1) += 1; }

 private:
  static constexpr uint64_t kVertices = 200'000;
  static constexpr uint64_t kSource = 0;  // an R-MAT hub

  std::string compare(const std::vector<std::vector<int64_t>>& out,
                      const char* who) const {
    for (size_t n = 0; n < out.size(); ++n) {
      if (out[n] != reference_) {
        return format("%s: levels of node/rank %zu differ from bfs_serial",
                      who, n);
      }
    }
    return {};
  }

  apps::graph::Graph graph_;
  std::vector<int64_t> reference_;
  std::vector<std::vector<int64_t>> ppm_out_;
  std::vector<std::vector<int64_t>> mpi_out_;
};

const char* const kNames[] = {"cg-64", "barneshut-16", "bfs-16", nullptr};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "cg-64") return std::make_unique<CgWorkload>();
  if (name == "barneshut-16") return std::make_unique<BarnesHutWorkload>();
  if (name == "bfs-16") return std::make_unique<BfsWorkload>();
  return nullptr;
}

const char* const* workload_names() { return kNames; }

}  // namespace perfbench
