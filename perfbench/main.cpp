// ppm_perfbench: the repository benchmark.
//
//   ppm_perfbench --workload cg-64|barneshut-16|bfs-16 --seed N --seconds S
//                 --trace 0|1 [--out-dir DIR] [--git-commit SHA]
//   ppm_perfbench --selftest [--workload NAME] [--seed N]
//
// A run builds kInstances problem instances from the seed, then runs a
// closed loop of back-to-back solves (a PPM and an MPI solve per iteration)
// for S seconds, checking every solve's output. With --trace 0 the last
// stdout line carries the end-to-end metrics, with --trace 1 the per-layer
// metrics: layer probes, a host-time attribution and a separate traced
// pass whose spans are written as Chrome trace JSON. perfbench/README.md
// documents every metric. perfbench/run.py builds this program and runs it.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "probes.hpp"
#include "solve.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Problem instances per run. Each solve of the loop takes the next one, and
// the modeled times are their mean, so one unlucky input (say an R-MAT graph
// one BFS level deeper) moves a run's figure by an eighth of its effect.
constexpr int kInstances = 8;
constexpr int kTracedInstances = 2;  // instances of the traced pass
constexpr int kMinPpmSamples = 11;  // so host_s_tail exists
constexpr int kConstructReps = 64;  // Machine + Runtime set-ups per run
constexpr int kSimThreads = 2;      // host threads of the windowed simulator

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string git_commit = "unknown";
};

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t instance_seed(uint64_t seed, int k) {
  return splitmix64(splitmix64(seed) + static_cast<uint64_t>(k));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---- provenance ----

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    while (!s.empty() && s.back() == ' ') s.pop_back();
    while (!s.empty() && s.front() == ' ') s.erase(s.begin());
    if (!s.empty()) return s;
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string provenance_json(const Args& a) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"nproc\":%u,\"cpu\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"git_commit\":\"%s\",\"workload\":\"%s\",\"seed\":%llu,"
      "\"sim_threads\":%d,\"instances\":%d,\"seconds\":%g}",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      json_escape(compiler()).c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(a.git_commit).c_str(), json_escape(a.workload).c_str(),
      static_cast<unsigned long long>(a.seed), kSimThreads, kInstances,
      a.seconds);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- solve bookkeeping ----

/// Everything in a PPM solve that must repeat bit for bit.
struct Fingerprint {
  int64_t vtime_ns = 0;
  std::vector<uint64_t> counts;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const PpmSolve& s) {
  const ppm::RunResult& r = s.result;
  return {r.duration_ns,
          {r.network_messages, r.network_bytes, r.intranode_messages,
           r.intranode_bytes, r.global_phases, r.remote_blocks_fetched,
           r.remote_reads_served_from_cache, r.slow_path_reads,
           r.write_entries, r.bundles_sent, r.fetch_stall_ns,
           r.prefetch_issued, r.prefetch_hits, r.entries_combined,
           r.accums_executed, s.events, s.windows.windows,
           s.windows.engine_activations}};
}

Fingerprint fingerprint(const MpiSolve& s) {
  return {s.vtime_ns, {s.msgs, s.bytes, s.events}};
}

/// Solves attempted and failed, with the first failure's message.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;

  void add(const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (first_error.empty()) first_error = error;
  }
};

struct Instance {
  std::unique_ptr<Workload> w;
  double gen_s = 0;
  double serial_s = 0;
  std::vector<double> ppm_host;  // timed PPM solves of this instance
  std::optional<PpmSolve> ppm;  // first PPM solve: counters, fingerprint
  std::optional<MpiSolve> mpi;
};

/// The untraced measurement of one run.
struct Measurement {
  std::vector<Instance> inst;
  Tally tally;
  std::vector<double> ppm_host, ppm_cpu, mpi_host, machine_s, runtime_s,
      collect_s, setup_construct_s;
};

/// Check a solve against the instance's first one; a differing vtime or
/// count is a failed solve.
template <typename Solve>
std::string repeatable(std::optional<Solve>& first, const Solve& s) {
  if (!s.error.empty()) return s.error;
  if (!first) {
    first = s;
    return {};
  }
  return fingerprint(*first) == fingerprint(s)
             ? std::string()
             : std::string("vtime or counters differ between solves of one "
                           "instance");
}

Measurement measure(const Args& a) {
  Measurement m;
  for (int k = 0; k < kInstances; ++k) {
    Instance in;
    in.w = make_workload(a.workload);
    auto t0 = Clock::now();
    in.w->generate(instance_seed(a.seed, k));
    in.gen_s = seconds_since(t0);
    t0 = Clock::now();
    in.w->serial_reference();
    in.serial_s = seconds_since(t0);
    m.inst.push_back(std::move(in));
  }
  Workload& w0 = *m.inst[0].w;

  // Set-up cost without a run: Machine plus Runtime construction.
  for (int r = 0; r < kConstructReps; ++r) {
    const auto t0 = Clock::now();
    ppm::cluster::Machine machine(machine_config(w0.nodes(), kSimThreads));
    ppm::Runtime runtime(machine, runtime_options());
    m.setup_construct_s.push_back(seconds_since(t0));
  }

  // Warm-up solve: caches fill and lazy set-up finishes before timing.
  m.tally.add(repeatable(m.inst[0].ppm,
                         run_ppm(w0, kSimThreads, false, nullptr)));

  // Past the deadline the loop goes on only to cover every instance and
  // reach the tail's sample count, and not at all once a solve failed.
  const auto start = Clock::now();
  for (uint64_t i = 0;; ++i) {
    bool complete = m.ppm_host.size() >= kMinPpmSamples;
    for (const Instance& in : m.inst) complete = complete && in.ppm && in.mpi;
    if (seconds_since(start) >= a.seconds &&
        (complete || m.tally.failed > 0)) {
      break;
    }
    Instance& in = m.inst[i % kInstances];
    const PpmSolve p = run_ppm(*in.w, kSimThreads, false, nullptr);
    m.tally.add(repeatable(in.ppm, p));
    if (p.error.empty()) {
      m.ppm_host.push_back(p.host_s());
      in.ppm_host.push_back(p.host_s());
      m.ppm_cpu.push_back(p.cpu_s);
      m.machine_s.push_back(p.machine_s);
      m.runtime_s.push_back(p.runtime_s);
      m.collect_s.push_back(p.collect_s);
    }
    const MpiSolve s = run_mpi(*in.w, kSimThreads, nullptr);
    m.tally.add(repeatable(in.mpi, s));
    if (s.error.empty()) m.mpi_host.push_back(s.run_s);
  }
  return m;
}

/// Highest percentile of `v` with at least 10 samples above it.
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.size() < 11) return t;
  std::sort(v.begin(), v.end());
  const size_t idx = v.size() - 11;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) /
                 static_cast<double>(v.size());
  return t;
}

// ---- metrics ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

template <typename F>
double inst_mean(const Measurement& m, F f) {
  std::vector<double> v;
  for (const Instance& in : m.inst) {
    if (in.ppm && in.mpi) v.push_back(f(in));
  }
  return mean(v);
}

double ppm_mean(const Measurement& m, uint64_t ppm::RunResult::*field) {
  return inst_mean(m, [&](const Instance& in) {
    return static_cast<double>(in.ppm->result.*field);
  });
}

std::vector<Metric> end_to_end(const Measurement& m) {
  std::vector<double> gen;
  for (const Instance& in : m.inst) gen.push_back(in.gen_s);
  return {
      {"vtime_ms",
       inst_mean(m, [](const Instance& in) {
         return static_cast<double>(in.ppm->result.duration_ns) * 1e-6;
       }),
       "ms"},
      {"mpi_vtime_ms",
       inst_mean(m, [](const Instance& in) {
         return static_cast<double>(in.mpi->vtime_ns) * 1e-6;
       }),
       "ms"},
      {"host_s", median(m.ppm_host), "s"},
      {"host_s_tail", tail_of(m.ppm_host).value, "s"},
      {"mpi_host_s", median(m.mpi_host), "s"},
      {"setup_s", median(gen) + median(m.setup_construct_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

struct Traced {
  std::vector<double> overhead_x;  // traced / untraced host_s, per instance
  std::vector<ppm::trace::Summary> summaries;
};

std::vector<Metric> per_layer(const Measurement& m, const Probes& pr,
                              const Traced& tr, int nodes) {
  const double host_s = median(m.ppm_host);
  const double events = inst_mean(m, [](const Instance& in) {
    return static_cast<double>(in.ppm->events);
  });
  const double msgs = ppm_mean(m, &ppm::RunResult::network_messages);
  const double bytes = ppm_mean(m, &ppm::RunResult::network_bytes);
  const double entries = ppm_mean(m, &ppm::RunResult::write_entries);
  const double combined = ppm_mean(m, &ppm::RunResult::entries_combined);
  const double phases = ppm_mean(m, &ppm::RunResult::global_phases);
  std::vector<double> gen, serial;
  for (const Instance& in : m.inst) {
    gen.push_back(in.gen_s);
    serial.push_back(in.serial_s);
  }
  const double serial_s = median(serial);

  double commit_us = 0, compute_us = 0, stall_us = 0, fetch_lat_us = 0,
         bundling = 0, overlap = 0, imbalance = 0;
  for (const ppm::trace::Summary& s : tr.summaries) {
    for (const ppm::trace::PhaseCritical& p : s.phases) {
      commit_us += static_cast<double>(p.commit_max_ns) * 1e-3;
      compute_us += static_cast<double>(p.compute_max_ns) * 1e-3;
      imbalance = std::max(imbalance, p.imbalance());
    }
    stall_us += static_cast<double>(s.stall_ns) * 1e-3;
    fetch_lat_us += ratio(static_cast<double>(s.fetch_latency_ns) * 1e-3,
                          static_cast<double>(s.fetches));
    bundling += s.bundling_efficiency();
    overlap += s.overlap_efficiency();
  }
  const double nt =
      std::max<double>(1, static_cast<double>(tr.summaries.size()));

  return {
      {"sim.events", events, "count"},
      {"sim.windows", inst_mean(m, [](const Instance& in) {
         return static_cast<double>(in.ppm->windows.windows);
       }), "count"},
      {"sim.engine_activations", inst_mean(m, [](const Instance& in) {
         return static_cast<double>(in.ppm->windows.engine_activations);
       }), "count"},
      {"sim.host_ns_per_event", ratio(host_s * 1e9, events), "ns"},
      {"sim.switch_ns", pr.switch_ns, "ns"},
      {"sim.event_ns", pr.event_ns, "ns"},
      {"sim.host_share", ratio(events * pr.switch_ns, host_s * 1e9), "ratio"},
      {"cluster.machine_s", median(m.machine_s), "s"},
      {"net.msgs", msgs, "count"},
      {"net.bytes", bytes, "B"},
      {"net.bytes_per_msg", ratio(bytes, msgs), "B"},
      {"net.intra_msgs", ppm_mean(m, &ppm::RunResult::intranode_messages),
       "count"},
      {"net.send_ns", pr.send_ns, "ns"},
      {"core.cache_hits",
       ppm_mean(m, &ppm::RunResult::remote_reads_served_from_cache), "count"},
      {"core.blocks_fetched",
       ppm_mean(m, &ppm::RunResult::remote_blocks_fetched), "count"},
      {"core.slow_path_reads", ppm_mean(m, &ppm::RunResult::slow_path_reads),
       "count"},
      {"core.fetch_stall_us",
       ppm_mean(m, &ppm::RunResult::fetch_stall_ns) * 1e-3, "us"},
      {"core.prefetch_hit_ratio",
       ratio(ppm_mean(m, &ppm::RunResult::prefetch_hits),
             ppm_mean(m, &ppm::RunResult::prefetch_issued)),
       "ratio"},
      {"core.read_hit_ns", pr.read_hit_ns, "ns"},
      {"core.write_entries", entries, "count"},
      {"core.combine_ratio", ratio(combined, entries + combined), "ratio"},
      {"core.write_max_over_mean", inst_mean(m, [&](const Instance& in) {
         for (const auto& c : in.ppm->result.counter_rollup) {
           if (c.name == "write_entries") {
             return ratio(static_cast<double>(c.max) * nodes,
                          static_cast<double>(c.sum));
           }
         }
         return 0.0;
       }), "ratio"},
      {"core.write_ns", pr.write_ns, "ns"},
      {"core.commit_ns_per_entry", pr.commit_ns_per_entry, "ns"},
      {"core.bundles_sent", ppm_mean(m, &ppm::RunResult::bundles_sent),
       "count"},
      {"core.bundles_per_peer_phase",
       ratio(ppm_mean(m, &ppm::RunResult::bundles_sent),
             phases * nodes * (nodes - 1)),
       "ratio"},
      {"core.global_phases", phases, "count"},
      {"core.accums_executed", ppm_mean(m, &ppm::RunResult::accums_executed),
       "count"},
      {"core.barrier_us", pr.barrier_us, "us"},
      {"core.barrier_host_us", pr.barrier_host_us, "us"},
      {"core.runtime_s", median(m.runtime_s), "s"},
      {"core.collect_s", median(m.collect_s), "s"},
      {"mp.msgs", inst_mean(m, [](const Instance& in) {
         return static_cast<double>(in.mpi->msgs);
       }), "count"},
      {"mp.bytes", inst_mean(m, [](const Instance& in) {
         return static_cast<double>(in.mpi->bytes);
       }), "B"},
      {"mp.events", inst_mean(m, [](const Instance& in) {
         return static_cast<double>(in.mpi->events);
       }), "count"},
      {"apps.gen_s", median(gen), "s"},
      {"apps.serial_s", serial_s, "s"},
      {"apps.overhead_x", ratio(host_s, serial_s), "x"},
      {"trace.commit_critical_us", commit_us / nt, "us"},
      {"trace.compute_critical_us", compute_us / nt, "us"},
      {"trace.stall_us", stall_us / nt, "us"},
      {"trace.fetch_latency_us", fetch_lat_us / nt, "us"},
      {"trace.bundling_efficiency", bundling / nt, "ratio"},
      {"trace.overlap_efficiency", overlap / nt, "ratio"},
      {"trace.imbalance_max", imbalance, "ratio"},
      {"trace.overhead_x", mean(tr.overhead_x), "x"},
  };
}

double metric(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return m.value;
  }
  return 0;
}

/// Host-time attribution: each layer's count times its probed unit cost,
/// as a share of host_s and of the solve's process CPU time. The solve
/// runs on several host threads, so the unit costs (CPU time) add up to
/// the CPU time, and the wall-time shares can sum past 100%. Rows that
/// would count work twice are shown but not summed; the remainder is what
/// no probe explains.
void print_attribution(const std::vector<Metric>& pl, double host_s,
                       double cpu_s) {
  struct Row {
    const char* layer;
    const char* count_name;
    double count;
    double unit_ns;
    bool summed;
  };
  const double event_ns = metric(pl, "sim.event_ns");
  const Row rows[] = {
      {"sim: events x switch_ns", "sim.events", metric(pl, "sim.events"),
       metric(pl, "sim.switch_ns"), true},
      // A delivered message is also an engine event, counted by sim.
      {"net: msgs x (send_ns - event_ns)", "net.msgs+intra_msgs",
       metric(pl, "net.msgs") + metric(pl, "net.intra_msgs"),
       metric(pl, "net.send_ns") - event_ns, true},
      {"core read: hits x read_hit_ns", "core.cache_hits",
       metric(pl, "core.cache_hits"), metric(pl, "core.read_hit_ns"), true},
      {"core write: entries x write_ns", "core.write_entries",
       metric(pl, "core.write_entries"), metric(pl, "core.write_ns"), true},
      {"core commit: entries x commit", "core.write_entries",
       metric(pl, "core.write_entries"),
       metric(pl, "core.commit_ns_per_entry"), true},
      {"apps kernel: serial solve", "apps.serial_s", 1,
       metric(pl, "apps.serial_s") * 1e9, true},
      // An empty phase's cost is its marker messages and their events.
      {"(core barrier: phases x barrier)", "core.global_phases",
       metric(pl, "core.global_phases"),
       metric(pl, "core.barrier_host_us") * 1e3, false},
  };
  std::printf("host-time attribution (host_s %.6f s wall, %.6f s process "
              "CPU):\n",
              host_s, cpu_s);
  std::printf("  %-36s %-20s %12s %12s %10s %8s %8s\n", "layer", "count of",
              "count", "unit ns", "cpu s", "%host_s", "%cpu");
  double explained = 0;
  for (const Row& r : rows) {
    const double sec = r.count * r.unit_ns * 1e-9;
    if (r.summed) explained += sec;
    std::printf("  %-36s %-20s %12.0f %12.2f %10.6f %7.1f%% %7.1f%%\n",
                r.layer, r.count_name, r.count, r.unit_ns, sec,
                100 * ratio(sec, host_s), 100 * ratio(sec, cpu_s));
  }
  std::printf("  %-36s %-20s %12s %12s %10.6f %8s %7.1f%%\n",
              "unexplained remainder (of cpu)", "", "", "", cpu_s - explained,
              "", 100 * ratio(cpu_s - explained, cpu_s));
}

/// The separate traced pass: the first instances once each with
/// RuntimeOptions::trace on, plus their generation and MPI solve, all under
/// benchmark spans.
Traced traced_pass(const Args& a, Measurement& m, Spans& spans) {
  Traced tr;
  Spans::Scope root(&spans, "traced_pass " + a.workload);
  for (int k = 0; k < kTracedInstances; ++k) {
    Spans::Scope inst(&spans, "instance " + std::to_string(k));
    Workload& w = *m.inst[static_cast<size_t>(k)].w;
    {
      Spans::Scope gen(&spans, "apps::generate");
      w.generate(instance_seed(a.seed, k));
    }
    const PpmSolve p = run_ppm(w, kSimThreads, true, &spans);
    m.tally.add(p.error);
    if (p.error.empty()) {
      tr.overhead_x.push_back(
          ratio(p.host_s(), median(m.inst[static_cast<size_t>(k)].ppm_host)));
      tr.summaries.push_back(p.result.trace_summary);
    }
    m.tally.add(run_mpi(w, kSimThreads, &spans).error);
  }
  return tr;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-28s %22.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string result_json(bool correct, const Tally& t,
                        const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(t.attempted);
  s += ", \"failed\": " + std::to_string(t.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}}";
}

int run_benchmark(const Args& a) {
  const std::string prov = provenance_json(a);
  std::printf("provenance %s\n", prov.c_str());
  Measurement m = measure(a);
  const int nodes = m.inst[0].w->nodes();

  const std::vector<Metric> e2e = end_to_end(m);
  const Tail tail = tail_of(m.ppm_host);
  std::printf("end-to-end (%s, %zu PPM / %zu MPI timed solves):\n",
              a.workload.c_str(), m.ppm_host.size(), m.mpi_host.size());
  print_metrics(e2e);
  std::printf("  host_s_tail is the p%.1f of %zu samples (10 above it)\n",
              tail.percentile, tail.samples);
  std::printf("  PPM solve process CPU time: median %.6f s\n",
              median(m.ppm_cpu));
  std::printf("  by instance: vtime_ms / mpi_vtime_ms / host_s median:");
  for (const Instance& in : m.inst) {
    if (!in.ppm || !in.mpi) continue;
    std::printf(" %.4f/%.4f/%.4f", in.ppm->result.duration_ns * 1e-6,
                in.mpi->vtime_ns * 1e-6, median(in.ppm_host));
  }
  std::printf("\n");

  std::vector<Metric> out = e2e;
  if (a.trace == 1) {
    const Probes pr = run_probes(nodes, kSimThreads);
    Spans spans;
    const Traced tr = traced_pass(a, m, spans);
    out = per_layer(m, pr, tr, nodes);
    std::printf("per-layer (%s):\n", a.workload.c_str());
    print_metrics(out);
    std::printf("  core.prefetch_hit_ratio base: %.0f prefetches issued\n",
                ppm_mean(m, &ppm::RunResult::prefetch_issued));
    print_attribution(out, median(m.ppm_host), median(m.ppm_cpu));
    std::error_code ec;  // a failed write is reported just below
    std::filesystem::create_directories(a.out_dir, ec);
    const std::string path = a.out_dir + "/" + a.workload + "-seed" +
                             std::to_string(a.seed) + "-spans.json";
    std::printf("spans of the traced pass:\n");
    spans.print_self_times();
    if (spans.write_chrome_json(path, prov)) {
      std::printf("spans: %zu written to %s\n", spans.spans().size(),
                  path.c_str());
    } else {
      std::printf("spans: could not write %s\n", path.c_str());
    }
  }
  std::printf("solves_failed %llu of %llu solves\n",
              static_cast<unsigned long long>(m.tally.failed),
              static_cast<unsigned long long>(m.tally.attempted));
  if (!m.tally.first_error.empty()) {
    std::printf("first failure: %s\n", m.tally.first_error.c_str());
  }
  std::printf("%s\n",
              result_json(m.tally.failed == 0, m.tally, out).c_str());
  return 0;
}

// ---- self-test ----

/// vtime and every count repeat across two runs and across sim_threads 1
/// and 2; a planted wrong answer is counted as a failed solve.
bool selftest_workload(const std::string& name, uint64_t seed) {
  auto w = make_workload(name);
  w->generate(instance_seed(seed, 0));
  w->serial_reference();
  bool ok = true;
  auto expect = [&](bool cond, const char* what) {
    std::printf("  %-4s %s: %s\n", cond ? "ok" : "FAIL", name.c_str(), what);
    ok = ok && cond;
  };

  const PpmSolve p2a = run_ppm(*w, 2, false, nullptr);
  const PpmSolve p2b = run_ppm(*w, 2, false, nullptr);
  const PpmSolve p1 = run_ppm(*w, 1, false, nullptr);
  expect(p2a.error.empty() && p2b.error.empty() && p1.error.empty(),
         "PPM solves pass the output check");
  expect(fingerprint(p2a) == fingerprint(p2b),
         "PPM vtime and counts repeat across runs");
  expect(fingerprint(p2a) == fingerprint(p1),
         "PPM vtime and counts agree at sim_threads 1 and 2");

  const MpiSolve m2a = run_mpi(*w, 2, nullptr);
  const MpiSolve m2b = run_mpi(*w, 2, nullptr);
  const MpiSolve m1 = run_mpi(*w, 1, nullptr);
  expect(m2a.error.empty() && m2b.error.empty() && m1.error.empty(),
         "MPI solves pass the output check");
  expect(fingerprint(m2a) == fingerprint(m2b),
         "MPI vtime and counts repeat across runs");
  expect(fingerprint(m2a) == fingerprint(m1),
         "MPI vtime and counts agree at sim_threads 1 and 2");

  Tally t;
  std::optional<PpmSolve> first;
  t.add(repeatable(first, run_ppm(*w, 2, false, nullptr, true)));
  expect(t.attempted == 1 && t.failed == 1,
         "a planted wrong answer counts in solves_failed");
  return ok;
}

int run_selftest(const Args& a) {
  bool ok = true;
  for (const char* const* n = workload_names(); *n != nullptr; ++n) {
    if (!a.workload.empty() && a.workload != *n) continue;
    ok = selftest_workload(*n, a.seed) && ok;
  }
  std::printf("selftest %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: ppm_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] "
               "[--git-commit SHA]\n"
               "       ppm_perfbench --selftest [--workload NAME] [--seed N]\n"
               "workloads:");
  for (const char* const* n = workload_names(); *n != nullptr; ++n) {
    std::fprintf(stderr, " %s", *n);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v);
      else if (flag == "--out-dir") a.out_dir = v;
      else if (flag == "--git-commit") a.git_commit = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!a.workload.empty() && !make_workload(a.workload)) return usage();
  if (a.selftest) return run_selftest(a);
  if (a.workload.empty() || (a.trace != 0 && a.trace != 1) ||
      !(a.seconds > 0)) {
    return usage();
  }
  return run_benchmark(a);
}
