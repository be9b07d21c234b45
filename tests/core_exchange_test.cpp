// The k-ary dissemination exchange (docs/MODEL.md, "Global commit"): the
// radix rule, byte-exact allgather at any node count, the exact token
// count per exchange, and results that do not depend on the engine, the
// host-thread count or fault jitter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/ppm.hpp"
#include "net/dissemination.hpp"

namespace ppm {
namespace {

/// Per-message costs of the machine perfbench models (6 us, 600 + 600 ns).
constexpr net::LinkParams kBenchLink{.latency_ns = 6'000,
                                     .bytes_per_ns = 2.0,
                                     .send_overhead_ns = 600,
                                     .recv_overhead_ns = 600};

TEST(ExchangePlan, RadixRuleOnTheBenchmarkMachine) {
  struct Row {
    int nodes, radix, rounds, tokens;
  };
  for (const Row& row : {Row{1, 2, 0, 0}, Row{2, 2, 1, 1}, Row{5, 5, 1, 4},
                         Row{8, 8, 1, 7}, Row{16, 4, 2, 6},
                         Row{64, 4, 3, 9}, Row{128, 6, 3, 13}}) {
    const net::DisseminationPlan p =
        net::choose_dissemination(row.nodes, kBenchLink);
    EXPECT_EQ(p.radix, row.radix) << "N=" << row.nodes;
    EXPECT_EQ(p.rounds, row.rounds) << "N=" << row.nodes;
    EXPECT_EQ(p.tokens, row.tokens) << "N=" << row.nodes;
  }
  // 64 nodes: radix 4 and 8 both cost 28.8 us; the tie takes 4.
  EXPECT_EQ(net::dissemination_plan(64, 4, kBenchLink).cost_ns, 28'800.0);
  EXPECT_EQ(net::dissemination_plan(64, 8, kBenchLink).cost_ns, 28'800.0);
  // Radix 2 is the old ceil(log2 N) exchange.
  EXPECT_EQ(net::dissemination_plan(64, 2, kBenchLink).cost_ns, 43'200.0);
}

TEST(ExchangePlan, ChoiceMinimizesTheCostOverEveryRadix) {
  for (const net::LinkParams link :
       {kBenchLink, net::LinkParams{},
        net::LinkParams{.latency_ns = 500, .send_overhead_ns = 1'000,
                        .recv_overhead_ns = 1'000},
        net::LinkParams{.latency_ns = 50'000}}) {
    for (int n = 1; n <= 200; ++n) {
      const net::DisseminationPlan best = net::choose_dissemination(n, link);
      for (int k = 2; k <= std::max(2, n); ++k) {
        const net::DisseminationPlan p = net::dissemination_plan(n, k, link);
        EXPECT_TRUE(best.cost_ns < p.cost_ns ||
                    (best.cost_ns == p.cost_ns && best.radix <= k))
            << "N=" << n << " k=" << k;
      }
    }
  }
}

/// Node n's blob: node min(1, N-1) sends a bit over 1 MB, every third
/// node an empty one, the rest a few bytes that differ per node.
Bytes blob_of(int node, int nodes) {
  size_t size = 17 * static_cast<size_t>(node) + 5;
  if (node == std::min(1, nodes - 1)) {
    size = (size_t{1} << 20) + 3;
  } else if (node % 3 == 2) {
    size = 0;
  }
  Bytes b(size);
  for (size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::byte>((static_cast<size_t>(node) * 131 + i * 7) &
                                  0xff);
  }
  return b;
}

uint64_t fnv1a(uint64_t h, const Bytes& b) {
  for (const std::byte c : b) {
    h = (h ^ static_cast<uint64_t>(c)) * 1099511628211ull;
  }
  return h;
}

struct GatherRun {
  RunResult result;
  std::vector<int> wrong;         // per node: blobs not byte-exact
  std::vector<uint64_t> digest;   // per node: hash of the gathered blobs
};

GatherRun gather(int nodes, int sim_threads, uint64_t jitter_seed = 0) {
  PpmConfig c;
  c.machine.nodes = nodes;
  c.machine.cores_per_node = 1;
  c.machine.sim_threads = sim_threads;
  if (jitter_seed != 0) {
    c.machine.faults.delay_jitter = true;
    c.machine.faults.seed = jitter_seed;
    c.machine.faults.delay_probability = 0.5;
    c.machine.faults.max_extra_delay_ns = 200'000;
  }
  GatherRun g;
  g.wrong.assign(static_cast<size_t>(nodes), 0);
  g.digest.assign(static_cast<size_t>(nodes), 0);
  g.result = run(c, [&](Env& env) {
    const int me = env.node_id();
    const std::vector<Bytes> all =
        env.runtime().allgather_bytes(blob_of(me, nodes));
    uint64_t h = 14695981039346656037ull;
    for (int n = 0; n < nodes; ++n) {
      const Bytes& got = all[static_cast<size_t>(n)];
      if (got != blob_of(n, nodes)) ++g.wrong[static_cast<size_t>(me)];
      h = fnv1a(h, got);
    }
    g.digest[static_cast<size_t>(me)] = h;
  });
  return g;
}

class KaryAllgather : public ::testing::TestWithParam<int> {};

TEST_P(KaryAllgather, EveryNodeGetsEveryBlobByteExact) {
  const int nodes = GetParam();
  const net::DisseminationPlan plan =
      net::choose_dissemination(nodes, cluster::MachineConfig{}.network);
  const GatherRun g = gather(nodes, /*sim_threads=*/0);
  for (int n = 0; n < nodes; ++n) {
    EXPECT_EQ(g.wrong[static_cast<size_t>(n)], 0) << "node " << n;
  }
  EXPECT_EQ(g.result.exchange_radix, plan.radix);
  EXPECT_EQ(g.result.exchange_rounds, plan.rounds);
  // Two exchanges (the allgather and finish()'s quiesce), each exactly
  // plan.tokens tokens per node, and nothing else on the wire.
  EXPECT_EQ(g.result.wire.token.messages,
            2u * static_cast<uint64_t>(nodes) *
                static_cast<uint64_t>(plan.tokens));
  EXPECT_EQ(g.result.network_messages, g.result.wire.token.messages);
}

INSTANTIATE_TEST_SUITE_P(Nodes, KaryAllgather,
                         ::testing::Values(1, 2, 3, 5, 8, 9, 16, 17, 64));

TEST(KaryAllgather, SameBytesOnEveryEngineAndUnderJitter) {
  for (const int nodes : {9, 17}) {
    const GatherRun ref = gather(nodes, 0);
    const GatherRun one = gather(nodes, 1);
    const GatherRun two = gather(nodes, 2);
    const GatherRun jit0 = gather(nodes, 0, /*jitter_seed=*/7);
    const GatherRun jit1 = gather(nodes, 1, /*jitter_seed=*/7);
    const GatherRun jit2 = gather(nodes, 2, /*jitter_seed=*/7);
    for (const GatherRun* g : {&ref, &one, &two, &jit0, &jit1, &jit2}) {
      EXPECT_EQ(g->digest, ref.digest) << "N=" << nodes;
      EXPECT_EQ(g->digest, std::vector<uint64_t>(
                               static_cast<size_t>(nodes), ref.digest[0]))
          << "N=" << nodes;
      EXPECT_EQ(g->result.wire.token.messages,
                ref.result.wire.token.messages);
      EXPECT_EQ(g->result.network_bytes, ref.result.network_bytes);
    }
    // The windowed engine replays itself at any host-thread count.
    EXPECT_EQ(one.result.duration_ns, two.result.duration_ns);
    EXPECT_EQ(jit1.result.duration_ns, jit2.result.duration_ns);
  }
}

/// Token messages of one run of `body` on `nodes` x 1 core.
uint64_t tokens_of(int nodes, const std::function<void(Env&)>& body) {
  PpmConfig c;
  c.machine.nodes = nodes;
  c.machine.cores_per_node = 1;
  return run(c, body).wire.token.messages;
}

TEST(KaryAllgather, BarrierAndCollectivesCostOnePlanExchange) {
  constexpr int kNodes = 17;
  const uint64_t per_exchange =
      kNodes * static_cast<uint64_t>(
                   net::choose_dissemination(
                       kNodes, cluster::MachineConfig{}.network)
                       .tokens);
  const uint64_t base = tokens_of(kNodes, [](Env&) {});
  EXPECT_EQ(base, per_exchange);  // finish()'s quiesce
  EXPECT_EQ(tokens_of(kNodes, [](Env& env) { env.barrier(); }) - base,
            per_exchange);
  std::vector<double> sums(kNodes), scans(kNodes);
  EXPECT_EQ(tokens_of(kNodes,
                      [&](Env& env) {
                        const double v = env.node_id() + 1.0;
                        const auto me = static_cast<size_t>(env.node_id());
                        sums[me] = env.allreduce(
                            v, [](double a, double b) { return a + b; });
                        scans[me] = env.scan_inclusive(
                            v, [](double a, double b) { return a + b; });
                      }) -
                base,
            2 * per_exchange);
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(sums[static_cast<size_t>(n)], kNodes * (kNodes + 1) / 2.0);
    EXPECT_EQ(scans[static_cast<size_t>(n)], (n + 1) * (n + 2) / 2.0);
  }
  // Env::broadcast stays radix 2: one copy leaves each holder per round.
  std::vector<std::vector<int>> got(kNodes);
  EXPECT_EQ(tokens_of(kNodes,
                      [&](Env& env) {
                        std::vector<int> data;
                        if (env.node_id() == 5) data = {1, 2, 3};
                        env.broadcast(data, 5);
                        got[static_cast<size_t>(env.node_id())] = data;
                      }) -
                base,
            kNodes * static_cast<uint64_t>(
                         net::dissemination_plan(
                             kNodes, 2, cluster::MachineConfig{}.network)
                             .tokens));
  for (const auto& g : got) EXPECT_EQ(g, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace ppm
