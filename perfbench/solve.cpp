#include "solve.hpp"

#include <exception>
#include <optional>

#include "mp/comm.hpp"

namespace perfbench {

using namespace ppm;
using Clock = std::chrono::steady_clock;

namespace {

uint64_t events_fired(cluster::Machine& machine) {
  uint64_t events = 0;
  for (int n = 0; n < machine.nodes(); ++n) {
    events += machine.engine_for_node(n).events_fired();
  }
  return events;
}

}  // namespace

PpmSolve run_ppm(Workload& w, int sim_threads, bool trace, Spans* spans,
                 bool plant_wrong) {
  PpmSolve s;
  Spans::Scope solve_span(spans, "ppm_solve");
  try {
    w.prepare_ppm();
    auto t0 = Clock::now();
    std::optional<cluster::Machine> machine;
    {
      Spans::Scope span(spans, "cluster::Machine");
      machine.emplace(machine_config(w.nodes(), sim_threads));
    }
    s.machine_s = seconds_since(t0);

    RuntimeOptions opts = runtime_options();
    opts.trace = trace;
    t0 = Clock::now();
    std::optional<Runtime> runtime;
    {
      Spans::Scope span(spans, "ppm::Runtime");
      runtime.emplace(*machine, opts);
    }
    s.runtime_s = seconds_since(t0);

    const double cpu0 = process_cpu_s();
    t0 = Clock::now();
    {
      Spans::Scope span(spans, "Machine::run_per_node");
      machine->run_per_node([&](int node) {
        NodeRuntime& nr = runtime->node(node);
        nr.start();
        Env env(nr);
        w.ppm_node(env);
        nr.finish();
      });
    }
    s.run_s = seconds_since(t0);

    t0 = Clock::now();
    {
      Spans::Scope span(spans, "Runtime::collect");
      s.result = runtime->collect();
    }
    s.collect_s = seconds_since(t0);
    s.cpu_s = process_cpu_s() - cpu0;
    s.events = events_fired(*machine);
    s.windows = machine->window_stats();
  } catch (const std::exception& e) {
    s.error = std::string("ppm solve threw: ") + e.what();
    return s;
  }

  if (plant_wrong) w.plant_wrong_answer();
  {
    Spans::Scope span(spans, "check_ppm");
    s.error = w.check_ppm();
  }
  w.release_outputs();
  return s;
}

MpiSolve run_mpi(Workload& w, int sim_threads, Spans* spans) {
  MpiSolve s;
  Spans::Scope solve_span(spans, "mpi_solve");
  try {
    w.prepare_mpi();
    std::optional<cluster::Machine> machine;
    std::optional<mp::World> world;
    {
      Spans::Scope span(spans, "cluster::Machine");
      machine.emplace(machine_config(w.nodes(), sim_threads));
      world.emplace(*machine);
    }

    const auto t0 = Clock::now();
    {
      Spans::Scope span(spans, "Machine::run_per_core");
      machine->run_per_core([&](const cluster::Place& place) {
        mp::Comm comm = world->comm_at(place);
        w.mpi_rank(comm);
      });
    }
    s.run_s = seconds_since(t0);
    s.vtime_ns = machine->last_run_duration_ns();
    const net::FabricStats& fs = machine->fabric().stats();
    s.msgs = fs.inter_messages.value();
    s.bytes = fs.inter_bytes.value();
    s.events = events_fired(*machine);
  } catch (const std::exception& e) {
    s.error = std::string("mpi solve threw: ") + e.what();
    return s;
  }

  {
    Spans::Scope span(spans, "check_mpi");
    s.error = w.check_mpi();
  }
  w.release_outputs();
  return s;
}

}  // namespace perfbench
