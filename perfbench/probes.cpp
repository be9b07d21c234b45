#include "probes.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "core/ppm.hpp"
#include "sim/engine.hpp"
#include "solve.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ppm;

namespace {

constexpr int kRepeats = 5;

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double repeat_median(const std::function<double()>& probe) {
  std::vector<double> v;
  for (int r = 0; r < kRepeats; ++r) v.push_back(probe());
  return median_of(std::move(v));
}

/// Two fibers that yield to each other `kYields` times each: CPU ns per
/// yield.
double probe_switch_ns() {
  constexpr int kYields = 100'000;
  sim::Engine engine;
  for (int f = 0; f < 2; ++f) {
    engine.spawn("pingpong", [&engine] {
      for (int i = 0; i < kYields; ++i) engine.yield();
    });
  }
  const double t0 = thread_cpu_s();
  engine.run();
  return (thread_cpu_s() - t0) * 1e9 / (2.0 * kYields);
}

/// A chain of Engine::at callbacks, each scheduling the next: CPU ns per
/// event.
double probe_event_ns() {
  constexpr int kEvents = 500'000;
  sim::Engine engine;
  int fired = 0;
  std::function<void()> step = [&] {
    if (++fired < kEvents) engine.at(engine.engine_now_ns() + 1, step);
  };
  engine.at(0, step);
  const double t0 = thread_cpu_s();
  engine.run();
  return (thread_cpu_s() - t0) * 1e9 / kEvents;
}

/// Every node sends to its right neighbour on port 0 and receives from
/// its left: process CPU ns per message, send to receive.
double probe_send_ns(int nodes, int sim_threads) {
  const int per_node = std::max(1, 100'000 / nodes);
  cluster::Machine machine(machine_config(nodes, sim_threads));
  net::Fabric& fabric = machine.fabric();
  const double cpu0 = process_cpu_s();
  machine.run_per_node([&](int node) {
    for (int i = 0; i < per_node; ++i) {
      net::Message m;
      m.src_node = node;
      m.dst_node = (node + 1) % nodes;
      m.payload.resize(8);
      fabric.send(std::move(m));
    }
    net::Endpoint& ep = fabric.endpoint(node, 0);
    for (int i = 0; i < per_node; ++i) (void)ep.recv();
  });
  return (process_cpu_s() - cpu0) * 1e9 /
         (static_cast<double>(per_node) * nodes);
}

/// Node 0 reads one remote block over and over after its first fetch:
/// thread CPU ns per cached-remote get.
double probe_read_hit_ns(int nodes, int sim_threads) {
  constexpr int kReads = 2'000'000;
  cluster::Machine machine(machine_config(nodes, sim_threads));
  double ns = 0;
  run_on(machine, runtime_options(), [&](Env& env) {
    const uint64_t per_node = 1 << 16;
    auto a = env.global_array<double>(per_node * env.node_count());
    auto vps = env.ppm_do(env.node_id() == 0 ? 1 : 0);
    vps.global_phase([&](Vp&) {
      const uint64_t base = per_node;  // first element of node 1
      volatile double sink = a.get(base);  // fetch the block
      const uint64_t span = 1024;          // inside one 16 KiB block
      const double t0 = thread_cpu_s();
      double sum = 0;
      for (int r = 0; r < kReads; ++r) sum += a.get(base + (r % span));
      ns = (thread_cpu_s() - t0) * 1e9 / kReads;
      sink = sum;
      (void)sink;
    });
  });
  return ns;
}

struct WriteRun {
  double cpu_s = 0;         // process CPU time of Machine::run_per_node
  double write_s = 0;       // thread CPU in the VP bodies, all nodes
  uint64_t entries = 0;
};

/// Every node issues `per_node` remote min_updates (distinct elements
/// spread over the other nodes) in one global phase.
WriteRun write_run(int nodes, int sim_threads, int per_node) {
  cluster::Machine machine(machine_config(nodes, sim_threads));
  Runtime runtime(machine, runtime_options());
  std::vector<double> write_s(static_cast<size_t>(nodes), 0.0);
  const uint64_t chunk = static_cast<uint64_t>(per_node) + 1;
  const double cpu0 = process_cpu_s();
  machine.run_per_node([&](int node) {
    NodeRuntime& nr = runtime.node(node);
    nr.start();
    Env env(nr);
    auto a = env.global_array<int64_t>(chunk * static_cast<uint64_t>(nodes));
    auto vps = env.ppm_do(1);
    vps.global_phase([&](Vp&) {
      const double w0 = thread_cpu_s();
      for (int i = 0; i < per_node; ++i) {
        const int peer = (node + 1 + i % (nodes - 1)) % nodes;
        const uint64_t elem = static_cast<uint64_t>(peer) * chunk +
                              static_cast<uint64_t>(i / (nodes - 1));
        a.min_update(elem, i);
      }
      write_s[static_cast<size_t>(node)] = thread_cpu_s() - w0;
    });
    nr.finish();
  });
  WriteRun r;
  r.cpu_s = process_cpu_s() - cpu0;
  for (double s : write_s) r.write_s += s;
  r.entries = runtime.collect().write_entries;
  return r;
}

/// Empty global phases on one VP group: (vtime ns, process CPU s) of the
/// run.
std::pair<int64_t, double> phases_run(int nodes, int sim_threads,
                                      int phases) {
  cluster::Machine machine(machine_config(nodes, sim_threads));
  const double cpu0 = process_cpu_s();
  const RunResult r = run_on(machine, runtime_options(), [&](Env& env) {
    auto vps = env.ppm_do(1);
    for (int p = 0; p < phases; ++p) vps.global_phase([](Vp&) {});
  });
  return {r.duration_ns, process_cpu_s() - cpu0};
}

}  // namespace

Probes run_probes(int nodes, int sim_threads) {
  Probes p;
  p.switch_ns = repeat_median(probe_switch_ns);
  p.event_ns = repeat_median(probe_event_ns);
  p.send_ns =
      repeat_median([&] { return probe_send_ns(nodes, sim_threads); });
  p.read_hit_ns =
      repeat_median([&] { return probe_read_hit_ns(nodes, sim_threads); });

  // Writes: thread CPU time inside the VP bodies per entry. Commit: the
  // run's extra process CPU time over an identical run without writes, less
  // the time spent issuing them, per entry.
  const int per_node = std::max(nodes - 1, 1'000'000 / nodes);
  std::vector<double> write_ns, commit_ns;
  for (int r = 0; r < kRepeats; ++r) {
    const WriteRun with = write_run(nodes, sim_threads, per_node);
    const WriteRun without = write_run(nodes, sim_threads, 0);
    const double entries = static_cast<double>(with.entries);
    write_ns.push_back(with.write_s * 1e9 / entries);
    commit_ns.push_back((with.cpu_s - without.cpu_s - with.write_s) * 1e9 /
                        entries);
  }
  p.write_ns = median_of(write_ns);
  p.commit_ns_per_entry = median_of(commit_ns);

  constexpr int kPhases = 50;
  std::vector<double> vt, host;
  for (int r = 0; r < kRepeats; ++r) {
    const auto [d0, h0] = phases_run(nodes, sim_threads, 1);
    const auto [d1, h1] = phases_run(nodes, sim_threads, 1 + kPhases);
    vt.push_back(static_cast<double>(d1 - d0) * 1e-3 / kPhases);
    host.push_back((h1 - h0) * 1e6 / kPhases);
  }
  p.barrier_us = median_of(vt);
  p.barrier_host_us = median_of(host);
  return p;
}

}  // namespace perfbench
