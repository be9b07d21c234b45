// Global-commit protocol (docs/MODEL.md, "Global commit"): last fragments
// go only to written peers, completion is counted from one dissemination
// exchange, reductions ride that exchange (or a second one when fragments
// moved), and between-phase reads are fenced by the reader's epoch.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/ppm.hpp"

namespace ppm {
namespace {

PpmConfig cfg(int nodes, int cores, int sim_threads = 0) {
  PpmConfig c;
  c.machine.nodes = nodes;
  c.machine.cores_per_node = cores;
  c.machine.sim_threads = sim_threads;
  return c;
}

void jitter(PpmConfig& c, uint64_t seed) {
  c.machine.faults.delay_jitter = true;
  c.machine.faults.seed = seed;
  c.machine.faults.delay_probability = 0.5;
  c.machine.faults.max_extra_delay_ns = 200'000;
}

uint64_t total_messages(const WireTraffic& w) {
  uint64_t sum = 0;
  for (const auto& [name, kind] : WireTraffic::kinds()) {
    sum += (w.*kind).messages;
  }
  return sum;
}

TEST(GlobalCommit, OwnerComputesPhaseSendsNoBundles) {
  const RunResult r = run(cfg(8, 2), [](Env& env) {
    auto a = env.global_array<int64_t>(8 * 16);
    auto vps = env.ppm_do(16);
    for (int p = 0; p < 3; ++p) {
      vps.global_phase([&](Vp& vp) { a.set(vp.global_rank(), p); });
    }
  });
  EXPECT_EQ(r.bundles_sent, 0u);
  EXPECT_EQ(r.wire.bundle.messages, 0u);
  EXPECT_EQ(r.wire.accum.messages, 0u);
  // Every runtime message is counted under exactly one wire kind.
  EXPECT_EQ(total_messages(r.wire), r.network_messages);
}

TEST(GlobalCommit, LastFragmentsGoOnlyToWrittenPeers) {
  // eager_flush off: exactly one fragment per written (src, dst) pair.
  PpmConfig c = cfg(8, 1);
  c.runtime.eager_flush = false;
  std::vector<int64_t> got;
  const RunResult r = run(c, [&](Env& env) {
    auto a = env.global_array<int64_t>(8 * 4);
    auto vps = env.ppm_do(1);
    vps.global_phase([&](Vp&) {
      // Each node writes one element of its right-hand neighbour.
      const uint64_t next = static_cast<uint64_t>((env.node_id() + 1) % 8);
      a.set(next * 4, env.node_id() + 1);
    });
    if (env.node_id() == 0) {
      for (uint64_t i = 0; i < a.size(); i += 4) got.push_back(a.get(i));
    }
  });
  EXPECT_EQ(r.bundles_sent, 8u);
  EXPECT_EQ(r.wire.bundle.messages, 8u);
  EXPECT_EQ(got, (std::vector<int64_t>{8, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(GlobalCommit, EagerFragmentAloneStillGetsALastFragment) {
  // The threshold is hit by exactly the phase's last write, so the peer's
  // buffer is empty at commit: it still needs a (header-only) last
  // fragment, or it would apply without the delayed eager one.
  constexpr uint64_t kWrites = 16;
  constexpr uint32_t kEntryBytes = 25 + sizeof(int64_t);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    PpmConfig c = cfg(2, 1);
    c.runtime.flush_threshold_bytes = kWrites * kEntryBytes;
    jitter(c, seed);
    std::vector<int64_t> got;
    const RunResult r = run(c, [&](Env& env) {
      auto a = env.global_array<int64_t>(2 * kWrites);
      auto vps = env.ppm_do(1);
      vps.global_phase([&](Vp&) {
        if (env.node_id() != 0) return;
        for (uint64_t j = 0; j < kWrites; ++j) {
          a.set(kWrites + j, static_cast<int64_t>(j * 3));
        }
      });
      vps.global_phase([&](Vp&) {
        if (env.node_id() != 1) return;
        for (uint64_t j = 0; j < kWrites; ++j) got.push_back(a.get(kWrites + j));
      });
    });
    EXPECT_EQ(r.bundles_sent, 2u) << "seed " << seed;
    ASSERT_EQ(got.size(), kWrites);
    for (uint64_t j = 0; j < kWrites; ++j) {
      EXPECT_EQ(got[j], static_cast<int64_t>(j * 3)) << "seed " << seed;
    }
  }
}

class OutsidePhaseRead : public ::testing::TestWithParam<int> {};

TEST_P(OutsidePhaseRead, SeesTheCommitOfAnOwnerStillWaiting) {
  // Round r: owner o = r % 16 has its chunk written by w = o + 1, a node
  // whose tokens never reach o directly in a 16-node radix-4 exchange (o
  // hears from o - 1, o - 2, o - 3, o - 4, o - 8 and o - 12). With w's
  // fragment jittered, o can finish the commit exchange long before the
  // fragment lands, while the other nodes are already out of their
  // commits and reading o's chunk. Those reads carry the readers' new
  // epoch and must wait for o's apply.
  constexpr int kNodes = 16;
  constexpr uint64_t kPer = 8;
  constexpr int kRounds = 32;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    PpmConfig c = cfg(kNodes, 1, GetParam());
    jitter(c, seed);
    std::vector<int> stale(kNodes, 0);
    std::vector<int> reads(kNodes, 0);
    const RunResult r = run(c, [&](Env& env) {
      auto a = env.global_array<int64_t>(kNodes * kPer);
      auto vps = env.ppm_do(1);
      const int me = env.node_id();
      for (int round = 0; round < kRounds; ++round) {
        const int owner = round % kNodes;
        const int writer = (owner + 1) % kNodes;
        vps.global_phase([&](Vp&) {
          if (me != writer) return;
          for (uint64_t k = 0; k < kPer; ++k) {
            a.set(static_cast<uint64_t>(owner) * kPer + k, round + 1);
          }
        });
        if (me == owner) continue;
        for (uint64_t k = 0; k < kPer; ++k) {
          ++reads[static_cast<size_t>(me)];
          if (a.get(static_cast<uint64_t>(owner) * kPer + k) != round + 1) {
            ++stale[static_cast<size_t>(me)];
          }
        }
      }
    });
    ASSERT_EQ(r.exchange_radix, 4);
    for (int n = 0; n < kNodes; ++n) {
      EXPECT_EQ(reads[static_cast<size_t>(n)],
                kRounds / kNodes * (kNodes - 1) * kPer)
          << "node " << n;
      EXPECT_EQ(stale[static_cast<size_t>(n)], 0)
          << "node " << n << " read pre-commit values (seed " << seed << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SimThreads, OutsidePhaseRead,
                         ::testing::Values(0, 1, 2));

/// Reductions over a phase whose writes are remote (or, with
/// remote=false, all owner-local), on 4 nodes x 8 doubles.
struct ReduceRun {
  RunResult result;
  std::vector<double> dots;
  std::vector<double> maxes;
};

ReduceRun reduce_program(bool remote) {
  constexpr int kNodes = 4;
  constexpr uint64_t kPer = 8;
  constexpr uint64_t kN = kNodes * kPer;
  ReduceRun out;
  out.result = run(cfg(kNodes, 2), [&](Env& env) {
    auto a = env.global_array<double>(kN);
    auto vps = env.ppm_do(kPer);
    for (int round = 0; round < 3; ++round) {
      auto dot = env.reduce_dot(a, a);
      auto max = env.reduce(a, ReduceOp::kMax);
      vps.global_phase([&](Vp& vp) {
        const uint64_t g = vp.global_rank();
        // A permutation of the elements: each written exactly once.
        const uint64_t target = remote ? (g + kPer * (1 + round % 3)) % kN : g;
        a.set(target, 0.1 * static_cast<double>(g + 1) + round);
      });
      if (env.node_id() == 0) {
        out.dots.push_back(dot.value());
        out.maxes.push_back(max.value());
      }
    }
  });
  return out;
}

/// The bit-exact reference: per-owner ascending-index fold, then the
/// ascending-node combine (the order reduce/reduce_dot promise).
void golden_reduce(bool remote, std::vector<double>* dots,
                   std::vector<double>* maxes) {
  constexpr uint64_t kNodes = 4, kPer = 8, kN = kNodes * kPer;
  std::vector<double> a(kN, 0.0);
  for (int round = 0; round < 3; ++round) {
    for (uint64_t g = 0; g < kN; ++g) {
      const uint64_t target = remote ? (g + kPer * (1 + round % 3)) % kN : g;
      a[target] = 0.1 * static_cast<double>(g + 1) + round;
    }
    double dot = 0.0, mx = 0.0;
    for (uint64_t n = 0; n < kNodes; ++n) {
      double part = 0.0, part_max = 0.0;
      for (uint64_t i = n * kPer; i < (n + 1) * kPer; ++i) {
        part = i == n * kPer ? a[i] * a[i] : part + a[i] * a[i];
        part_max = i == n * kPer ? a[i] : std::max(part_max, a[i]);
      }
      dot = n == 0 ? part : dot + part;
      mx = n == 0 ? part_max : std::max(mx, part_max);
    }
    dots->push_back(dot);
    maxes->push_back(mx);
  }
}

TEST(GlobalCommit, ReduceOverRemoteWritesTakesTheSecondExchange) {
  const ReduceRun local = reduce_program(/*remote=*/false);
  const ReduceRun remote = reduce_program(/*remote=*/true);
  for (const bool is_remote : {false, true}) {
    std::vector<double> dots, maxes;
    golden_reduce(is_remote, &dots, &maxes);
    const ReduceRun& got = is_remote ? remote : local;
    ASSERT_EQ(got.dots.size(), dots.size());
    for (size_t k = 0; k < dots.size(); ++k) {
      // Bit for bit, not approximately.
      EXPECT_EQ(got.dots[k], dots[k]) << "round " << k;
      EXPECT_EQ(got.maxes[k], maxes[k]) << "round " << k;
    }
  }
  // Owner-local writes resolve on the commit exchange itself; remote ones
  // need one more exchange per commit: 3 commits x 4 nodes x the plan's
  // tokens per node (radix 4 on 4 nodes: 3 tokens in one round).
  const uint64_t tokens = static_cast<uint64_t>(
      net::choose_dissemination(4, cluster::MachineConfig{}.network).tokens);
  EXPECT_EQ(tokens, 3u);
  EXPECT_EQ(local.result.bundles_sent, 0u);
  EXPECT_GT(remote.result.bundles_sent, 0u);
  EXPECT_EQ(remote.result.wire.token.messages,
            local.result.wire.token.messages + 3u * 4u * tokens);
}

}  // namespace
}  // namespace ppm
