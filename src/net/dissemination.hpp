// k-port dissemination exchange plan (Bruck et al., IEEE TPDS 1997).
//
// In round r of a radix-k exchange over N nodes, node i sends the k^r
// blocks it holds to i + j·k^r for j = 1..k-1 and receives from
// i - j·k^r, so every node holds every block after ⌈log_k N⌉ rounds; the
// last round skips the peers whose blocks are already held. Each round
// costs one latency hop plus k-1 software overheads on each side, so the
// radix trades hops against per-message cost. The PPM runtime's commit
// exchange and node collectives run the plan chosen here, and ppm::model
// charges its cost as the barrier term.
#pragma once

#include <algorithm>
#include <cstdint>

#include "net/fabric.hpp"

namespace ppm::net {

struct DisseminationPlan {
  int radix = 2;
  /// ⌈log_k N⌉ (0 for a single node).
  int rounds = 0;
  /// Tokens each node sends, and receives, in one exchange: k-1 per round,
  /// fewer in a trimmed last round.
  int tokens = 0;
  /// LogP cost of one exchange: rounds · (L + (k-1)·(o_s + o_r)).
  double cost_ns = 0.0;
};

/// Rounds, tokens and cost of a radix-`radix` exchange over `nodes` nodes.
inline DisseminationPlan dissemination_plan(int nodes, int radix,
                                            const LinkParams& link) {
  DisseminationPlan p;
  p.radix = radix;
  for (int64_t have = 1; have < nodes; have *= radix) {
    ++p.rounds;
    // Peers j = 1..k-1 with j·have < N.
    p.tokens += static_cast<int>(
        std::min<int64_t>(radix - 1, (nodes - 1) / have));
  }
  p.cost_ns = p.rounds * (static_cast<double>(link.latency_ns) +
                          (radix - 1) * static_cast<double>(
                              link.send_overhead_ns + link.recv_overhead_ns));
  return p;
}

/// The radix in [2, max(2, N)] with the cheapest exchange; a tie takes the
/// smaller radix (fewer messages for the same modeled time).
inline DisseminationPlan choose_dissemination(int nodes,
                                              const LinkParams& link) {
  DisseminationPlan best = dissemination_plan(nodes, 2, link);
  for (int k = 3; k <= nodes; ++k) {
    const DisseminationPlan p = dissemination_plan(nodes, k, link);
    if (p.cost_ns < best.cost_ns) best = p;
  }
  return best;
}

}  // namespace ppm::net
