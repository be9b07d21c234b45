// SharedArray::accumulate / accumulate_n and Env::reduce / reduce_dot —
// the phase-semantics-safe owner-side operations (docs/MODEL.md).
//
// The contract under test: for exactly commutative/associative ops
// (integer add/min/max/mul, a registered XOR), owner-side delivery through
// the compact kAccumList/kAccumBlock fragments commits bit-identical
// state to the plain fetch-free deferred-write path (add()/min_update()/
// max_update()/add_n(), and every op at one node where all elements are
// local), under every distribution, with same-VP runs folded by write
// combining, across a migration epoch — while never adding a fetch
// round-trip. Non-commutative user ops on conflicting elements are a
// reportable ppm::check violation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/ppm.hpp"

namespace ppm {
namespace {

constexpr uint64_t kN = 96;
constexpr uint64_t kVpsPerNode = 8;
/// VPs of run_mixed, spread over the nodes, so the one-node reference
/// runs the same VP ranks as the three-node runs.
constexpr uint64_t kMixedVps = 24;

PpmConfig cfg(int nodes, int cores = 2) {
  PpmConfig c;
  c.machine.nodes = nodes;
  c.machine.cores_per_node = cores;
  return c;
}

/// Which handle calls run_mixed uses for add/min/max.
enum class Path {
  kAccumulate,  // accumulate()/accumulate_n(): owner-side fragments
  kPlain,       // add()/min_update()/max_update()/add_n(): plain entries
};

/// One accumulate-heavy program over a single array of the given
/// distribution: seed, then three rounds mixing every accumulate flavor
/// (scalar add/min/max/mul/xor plus a bulk add run), with scattered
/// mostly-remote targets. Each VP repeats its add and max, so write
/// combining folds same-VP runs. Mul and xor have no plain handle call
/// and go through accumulate() on either path. Returns final contents
/// (read on node 0) and the run statistics.
std::vector<uint64_t> run_mixed(const PpmConfig& c, Distribution dist,
                                Path path = Path::kAccumulate,
                                bool rebalance_mid = false,
                                RunResult* stats = nullptr) {
  std::vector<uint64_t> out;
  const bool plain = path == Path::kPlain;
  const RunResult res = run(c, [&](Env& env) {
    auto a = env.global_array<uint64_t>(kN, dist);
    env.register_accum_op<uint64_t>(
        a, 0, +[](uint64_t& x, const uint64_t& v) { x ^= v; });
    const uint64_t k_total = kMixedVps;
    auto vps = env.ppm_do(k_total / static_cast<uint64_t>(env.node_count()));
    vps.global_phase([&](Vp& vp) {
      for (uint64_t i = vp.global_rank(); i < kN; i += k_total) {
        a.set(i, i * 5 + 2);
      }
    });
    for (uint64_t round = 0; round < 3; ++round) {
      if (rebalance_mid && round == 1) a.rebalance();
      // Each op class owns a disjoint 16-element region (the bulk-add
      // runs own [80, 96)): only ops that commute with THEMSELVES may
      // collide on an element — the model's determinism contract.
      vps.global_phase([&](Vp& vp) {
        const uint64_t r = vp.global_rank();
        const uint64_t add_i = (r * 13 + round) % 16;
        const uint64_t min_i = 16 + (r * 29 + 1) % 16;
        const uint64_t max_i = 32 + (r * 17 + 5) % 16;
        for (int rep = 0; rep < 2; ++rep) {
          if (plain) {
            a.add(add_i, r + 1);
            a.max_update(max_i, r * 40 + static_cast<uint64_t>(rep));
          } else {
            a.accumulate(add_i, ReduceOp::kAdd, r + 1);
            a.accumulate(max_i, ReduceOp::kMax,
                         r * 40 + static_cast<uint64_t>(rep));
          }
        }
        if (plain) {
          a.min_update(min_i, r * 3 + round);
        } else {
          a.accumulate(min_i, ReduceOp::kMin, r * 3 + round);
        }
        a.accumulate(48 + (r * 11 + 7) % 16, ReduceOp::kMul, 1 + round % 2);
        a.accumulate(64 + (r * 7 + 3) % 16, ReduceOp::kUser0,
                     r * 0x9e3779b97f4a7c15ULL);
        // Bulk add runs: overlapping 3-element windows inside [80, 96).
        const uint64_t vals[3] = {round + 1, round + 2, round + 3};
        if (plain) {
          a.add_n(80 + (r % 5) * 3, 3, vals);
        } else {
          a.accumulate_n(80 + (r % 5) * 3, 3, ReduceOp::kAdd, vals);
        }
      });
    }
    vps.global_phase([&](Vp& vp) {
      if (vp.global_rank() == 0) {
        for (uint64_t i = 0; i < kN; ++i) out.push_back(a.get(i));
      }
    });
  });
  if (stats != nullptr) *stats = res;
  return out;
}

TEST(CoreAccumulate, OwnerSideMatchesPlainPathEveryDistribution) {
  // The differential contract on a hand-sized program: owner-side
  // fragment delivery, the plain deferred-write path, and a one-node
  // one-core run (every element local, every op on the plain path)
  // commit the same bits under kBlock, kCyclic, and kAdaptive.
  const auto ref = run_mixed(cfg(1, 1), Distribution::kBlock);
  ASSERT_EQ(ref.size(), kN);
  for (const Distribution dist :
       {Distribution::kBlock, Distribution::kCyclic,
        Distribution::kAdaptive}) {
    EXPECT_EQ(run_mixed(cfg(3), dist), ref)
        << "distribution " << static_cast<int>(dist);
    EXPECT_EQ(run_mixed(cfg(3), dist, Path::kPlain), ref)
        << "distribution " << static_cast<int>(dist);
  }
}

TEST(CoreAccumulate, DistributionsAgreeWithEachOther) {
  // The program never reads mid-round, so its committed state is layout-
  // free: all three distributions must agree element-for-element.
  const auto block = run_mixed(cfg(3), Distribution::kBlock);
  const auto cyclic = run_mixed(cfg(3), Distribution::kCyclic);
  const auto adaptive = run_mixed(cfg(3), Distribution::kAdaptive);
  EXPECT_EQ(block, cyclic);
  EXPECT_EQ(block, adaptive);
}

TEST(CoreAccumulate, BitIdenticalAcrossMigrationEpoch) {
  // rebalance() mid-program forces a migration planning round at a commit
  // that also carries staged accumulate fragments: block handoff must not
  // lose, duplicate, or reorder them.
  RunResult stats;
  const auto on = run_mixed(cfg(3), Distribution::kAdaptive,
                            Path::kAccumulate, /*rebalance_mid=*/true,
                            &stats);
  const auto plain = run_mixed(cfg(3), Distribution::kAdaptive, Path::kPlain,
                               /*rebalance_mid=*/true);
  EXPECT_EQ(on, plain);
  // And against the never-migrating layouts.
  EXPECT_EQ(on, run_mixed(cfg(3), Distribution::kBlock));
  EXPECT_GT(stats.accums_executed, 0u);
}

TEST(CoreAccumulate, CombineWritesInterplay) {
  // Sender-side folding of same-VP same-op runs must not change committed
  // bits on either delivery path: both fold entries at three nodes, and
  // both match the one-node run, where every write is local and nothing
  // is folded.
  RunResult ref_stats, accum_stats, plain_stats;
  const auto ref = run_mixed(cfg(1, 1), Distribution::kBlock,
                             Path::kAccumulate, false, &ref_stats);
  EXPECT_EQ(ref_stats.entries_combined, 0u);
  EXPECT_EQ(run_mixed(cfg(3), Distribution::kBlock, Path::kAccumulate, false,
                      &accum_stats),
            ref);
  EXPECT_EQ(run_mixed(cfg(3), Distribution::kBlock, Path::kPlain, false,
                      &plain_stats),
            ref);
  EXPECT_GT(accum_stats.entries_combined, 0u);
  EXPECT_GT(plain_stats.entries_combined, 0u);
}

TEST(CoreAccumulate, SameVpRunsAreCombined) {
  // A VP repeatedly accumulating the same element with one op is a
  // foldable run: the combiner must shrink shipped entries while leaving
  // the committed sum exact. The same writes spread one per VP cannot be
  // folded, so they ship every entry. Both delivery paths fold.
  constexpr uint64_t kRun = 8;
  auto program = [&](Path path, bool spread) {
    uint64_t got = 0;
    RunResult r = run(cfg(2), [&](Env& env) {
      auto a = env.global_array<uint64_t>(16);
      auto vps = env.ppm_do(spread ? 2 * kRun : 2);
      // Writer w = 0..3 adds w + 1, kRun times, to element 12 (node 1).
      auto write = [&](uint64_t w) {
        if (path == Path::kPlain) {
          a.add(12, w + 1);
        } else {
          a.accumulate(12, ReduceOp::kAdd, w + 1);
        }
      };
      vps.global_phase([&](Vp& vp) {
        if (spread) {
          write(vp.global_rank() / kRun);
        } else {
          for (uint64_t k = 0; k < kRun; ++k) write(vp.global_rank());
        }
      });
      vps.global_phase([&](Vp&) {
        if (env.node_id() == 0) got = a.get(12);
      });
    });
    EXPECT_EQ(got, kRun * (1 + 2 + 3 + 4));
    return r;
  };
  for (const Path path : {Path::kAccumulate, Path::kPlain}) {
    const RunResult combined = program(path, /*spread=*/false);
    const RunResult spread = program(path, /*spread=*/true);
    EXPECT_GT(combined.entries_combined, 0u);
    EXPECT_EQ(spread.entries_combined, 0u);
    EXPECT_LT(combined.network_bytes, spread.network_bytes);
  }
}

TEST(CoreAccumulate, NoFetchRoundTripsAndFewerWireBytes) {
  // accumulate() is write-only at the caller: a program of pure remote
  // accumulates (no reads anywhere) must never enter the cold read path
  // or fetch a single block — the owner applies fragments in place — and
  // the compact fragments must beat the plain bundle encoding on wire
  // bytes (12 bytes per entry, counted in reduction_bytes_saved).
  // The plain twin issues the same writes through add()/max_update()/
  // add_n().
  auto program = [](Path path) {
    const bool plain = path == Path::kPlain;
    return run(cfg(3), [&](Env& env) {
      auto a = env.global_array<uint64_t>(kN);
      auto vps = env.ppm_do(kVpsPerNode);
      for (uint64_t round = 0; round < 3; ++round) {
        vps.global_phase([&](Vp& vp) {
          const uint64_t r = vp.global_rank();
          const uint64_t vals[3] = {round + 1, round + 2, round + 3};
          if (plain) {
            a.add((r * 13 + round) % 32, r + 1);
            a.max_update(32 + (r * 17 + 5) % 32, r * 40);
            a.add_n(64 + (r % 10) * 3, 3, vals);
          } else {
            a.accumulate((r * 13 + round) % 32, ReduceOp::kAdd, r + 1);
            a.accumulate(32 + (r * 17 + 5) % 32, ReduceOp::kMax, r * 40);
            a.accumulate_n(64 + (r % 10) * 3, 3, ReduceOp::kAdd, vals);
          }
        });
      }
    });
  };
  const RunResult on_stats = program(Path::kAccumulate);
  const RunResult off_stats = program(Path::kPlain);
  EXPECT_EQ(on_stats.slow_path_reads, 0u);
  EXPECT_EQ(off_stats.slow_path_reads, 0u);
  EXPECT_EQ(on_stats.remote_blocks_fetched, 0u);
  EXPECT_GT(on_stats.accums_executed, 0u);
  EXPECT_EQ(off_stats.accums_executed, 0u);
  EXPECT_GT(on_stats.reduction_bytes_saved, 0u);
  EXPECT_LT(on_stats.network_bytes, off_stats.network_bytes);
}

TEST(CoreAccumulate, ReduceAllOpsCorrectAndNodeAgreeing) {
  // reduce() over a seeded array for every built-in op plus the
  // registered XOR: every node must see the same scalar, equal to the
  // straight-line fold.
  constexpr int kNodes = 3;
  std::vector<uint64_t> want(kN);
  for (uint64_t i = 0; i < kN; ++i) want[i] = (i * 31 + 7) % 101 + 1;
  uint64_t sum = 0, mn = UINT64_MAX, mx = 0, xr = 0;
  for (const uint64_t v : want) {
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    xr ^= v;
  }
  std::vector<std::vector<uint64_t>> per_node(kNodes);
  run(cfg(kNodes), [&](Env& env) {
    auto a = env.global_array<uint64_t>(kN);
    env.register_accum_op<uint64_t>(
        a, 0, +[](uint64_t& x, const uint64_t& v) { x ^= v; });
    auto vps = env.ppm_do(kVpsPerNode);
    const uint64_t k_total =
        kVpsPerNode * static_cast<uint64_t>(env.node_count());
    vps.global_phase([&](Vp& vp) {
      for (uint64_t i = vp.global_rank(); i < kN; i += k_total) {
        a.set(i, (i * 31 + 7) % 101 + 1);
      }
    });
    auto h_sum = env.reduce(a, ReduceOp::kAdd);
    auto h_min = env.reduce(a, ReduceOp::kMin);
    auto h_max = env.reduce(a, ReduceOp::kMax);
    auto h_xor = env.reduce(a, ReduceOp::kUser0);
    vps.global_phase([&](Vp&) {});
    auto& mine = per_node[static_cast<size_t>(env.node_id())];
    mine = {h_sum.value(), h_min.value(), h_max.value(), h_xor.value()};
  });
  const std::vector<uint64_t> want_scalars = {sum, mn, mx, xr};
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(per_node[static_cast<size_t>(n)], want_scalars)
        << "node " << n;
  }
}

TEST(CoreAccumulate, ReduceDotMatchesLocalFold) {
  constexpr int kNodes = 4;
  double want = 0;
  for (uint64_t i = 0; i < kN; ++i) {
    want += (static_cast<double>(i) + 0.5) * (2.0 - static_cast<double>(i % 3));
  }
  double got = 0;
  RunResult stats = run(cfg(kNodes), [&](Env& env) {
    auto a = env.global_array<double>(kN);
    auto b = env.global_array<double>(kN);
    auto vps = env.ppm_do(kVpsPerNode);
    const uint64_t k_total =
        kVpsPerNode * static_cast<uint64_t>(env.node_count());
    vps.global_phase([&](Vp& vp) {
      for (uint64_t i = vp.global_rank(); i < kN; i += k_total) {
        a.set(i, static_cast<double>(i) + 0.5);
        b.set(i, 2.0 - static_cast<double>(i % 3));
      }
    });
    auto h = env.reduce_dot(a, b);
    vps.global_phase([&](Vp&) {});
    if (env.node_id() == 0) got = h.value();
  });
  EXPECT_EQ(got, want);  // bit-exact: same ascending fold order
  // The partials rode the commit barrier: the root-gather bytes a
  // standalone allreduce would have cost are recorded as saved.
  EXPECT_GT(stats.reduction_bytes_saved, 0u);
}

TEST(CoreAccumulate, ReduceDotMismatchedLayoutsRejected) {
  // The dot partial pairs the two arrays' owner-packed spans
  // positionally: a block/cyclic mismatch would silently multiply
  // unrelated elements, so registration must reject it loudly.
  EXPECT_THROW(run(cfg(2),
                   [](Env& env) {
                     auto a = env.global_array<double>(kN);
                     auto b = env.global_array<double>(
                         kN, Distribution::kCyclic);
                     (void)env.reduce_dot(a, b);
                   }),
               Error);
}

TEST(CoreAccumulate, NonCommutativeUserOpConflictFlagged) {
  // x = 2x + v does not commute with itself. Registering it as
  // non-commutative and firing two VPs at one element must produce a
  // kNonCommutativeAccum finding at the owner.
  PpmConfig c = cfg(2);
  c.runtime.validate_phases = true;
  const RunResult r = run(c, [](Env& env) {
    auto a = env.global_array<uint64_t>(16);
    env.register_accum_op<uint64_t>(
        a, 0, +[](uint64_t& x, const uint64_t& v) { x = 2 * x + v; },
        /*commutative=*/false);
    auto vps = env.ppm_do(2);
    vps.global_phase([&](Vp& vp) {
      a.accumulate(12, ReduceOp::kUser0, vp.global_rank() + 1);
    });
  });
  EXPECT_FALSE(r.check_report.clean());
  EXPECT_GE(r.check_report.non_commutative_accums, 1u);
  ASSERT_FALSE(r.check_report.violations.empty());
  const check::Violation& v = r.check_report.violations.front();
  EXPECT_EQ(v.kind, check::ViolationKind::kNonCommutativeAccum);
  EXPECT_EQ(v.array_id, 0u);
  EXPECT_EQ(v.element, 12u);
}

TEST(CoreAccumulate, NonCommutativeSingleWriterIsClean) {
  // One entry per element is deterministic no matter the op: the checker
  // must not cry wolf, and the owner-side result at two nodes matches the
  // one-node run, where the element is local (plain path).
  auto program = [](int nodes) {
    PpmConfig c = cfg(nodes);
    c.runtime.validate_phases = true;
    uint64_t got = 0;
    const RunResult r = run(c, [&](Env& env) {
      auto a = env.global_array<uint64_t>(16);
      env.register_accum_op<uint64_t>(
          a, 0, +[](uint64_t& x, const uint64_t& v) { x = 2 * x + v; },
          /*commutative=*/false);
      auto vps = env.ppm_do(4 / static_cast<uint64_t>(env.node_count()));
      vps.global_phase([&](Vp& vp) {
        a.set(vp.global_rank() + 8, 3);
      });
      vps.global_phase([&](Vp& vp) {
        a.accumulate(vp.global_rank() + 8, ReduceOp::kUser0,
                     vp.global_rank());
      });
      vps.global_phase([&](Vp&) {
        if (env.node_id() == 0) got = a.get(8);
      });
    });
    EXPECT_TRUE(r.check_report.clean()) << r.check_report.to_string();
    return got;
  };
  const uint64_t on = program(2);
  EXPECT_EQ(on, 6u);  // 2*3 + rank 0
  EXPECT_EQ(on, program(1));
}

TEST(CoreAccumulate, CommutativeConflictsStayClean) {
  // Many VPs accumulating one element with a single commutative op is the
  // model's histogram idiom — never a violation, either delivery path.
  for (const Path path : {Path::kAccumulate, Path::kPlain}) {
    PpmConfig c = cfg(2);
    c.runtime.validate_phases = true;
    uint64_t got = 0;
    const RunResult r = run(c, [&](Env& env) {
      auto a = env.global_array<uint64_t>(16);
      auto vps = env.ppm_do(4);
      vps.global_phase([&](Vp& vp) {
        if (path == Path::kPlain) {
          a.add(12, vp.global_rank() + 1);
        } else {
          a.accumulate(12, ReduceOp::kAdd, vp.global_rank() + 1);
        }
      });
      vps.global_phase([&](Vp&) {
        if (env.node_id() == 0) got = a.get(12);
      });
    });
    EXPECT_TRUE(r.check_report.clean()) << r.check_report.to_string();
    EXPECT_EQ(got, 36u);  // sum of 1..8
  }
}

TEST(CoreAccumulate, OutsidePhaseAccumulateIsImmediateLocal) {
  // Outside phases accumulate() degrades to the plain immediate write
  // path (local-only, like set outside phases).
  PpmConfig c = cfg(1);
  uint64_t got = 0;
  run(c, [&](Env& env) {
    auto a = env.global_array<uint64_t>(8);
    a.set(3, 10);
    a.accumulate(3, ReduceOp::kAdd, 5);
    got = a.get(3);
  });
  EXPECT_EQ(got, 15u);
}

}  // namespace
}  // namespace ppm
