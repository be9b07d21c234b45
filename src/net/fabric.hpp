// Simulated cluster interconnect.
//
// The fabric connects (node, port) endpoints. Port assignment is owned by
// the layers above: the message-passing library uses one port per simulated
// core (one "rank" per core, as on the paper's Cray XT4), and the PPM
// runtime uses one dedicated service port per node.
//
// Timing follows a LogGP-style model:
//   * per-message sender software overhead (charged to the sending fiber's
//     CPU via sim::advance),
//   * egress serialization — a node's NIC transmits one message at a time,
//     occupying the link for bytes/bandwidth. This is what makes many cores
//     of one node *contend* for the network, an effect the paper's runtime
//     explicitly schedules around;
//   * wire latency;
//   * ingress serialization at the destination NIC, booked when the
//     message's first byte arrives (so a later-sent message that arrives
//     first is absorbed first);
//   * per-message receiver software overhead.
// Messages between endpoints of the same node travel a separate intra-node
// fabric (lower latency, higher bandwidth, no NIC occupancy) modeling
// shared-memory transports of MPI implementations — still paying a
// per-message software cost, which the paper calls out (its SmartMap
// footnote).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/byte_buffer.hpp"
#include "util/stats.hpp"

namespace ppm::trace {
class Recorder;
}

namespace ppm::net {

struct LinkParams {
  int64_t latency_ns = 5'000;        // wire latency per message
  double bytes_per_ns = 2.0;          // bandwidth (2 bytes/ns = 2 GB/s)
  int64_t send_overhead_ns = 500;     // sender-side software cost
  int64_t recv_overhead_ns = 500;     // receiver-side software cost
};

/// Deterministic message-level fault injection (used by ppm::stress).
///
/// With delay_jitter on, every message is enqueued at its (possibly
/// jittered) delivery time instead of at send time, so endpoints observe
/// arrivals in delivery-time order: messages from different sources — and
/// different ports of one source — reorder freely against each other.
/// Delivery between one (src node, dst node, dst port) pair stays FIFO
/// (jittered times are clamped to the pair's previous delivery), matching
/// the in-order-per-pair contract real transports give and the runtime's
/// bundle fragment protocol assumes. A message's jitter is a pure hash of
/// (seed, src, dst, dst port, per-pair seq), so a faulty schedule replays
/// exactly and is the same for either engine and any host-thread count.
struct FaultConfig {
  bool delay_jitter = false;
  uint64_t seed = 0;
  double delay_probability = 0.25;      // chance a message is delayed
  int64_t max_extra_delay_ns = 100'000; // uniform extra delay in [0, max]
  /// Test-only, windowed engine only: the exchange step shifts every
  /// inter-node arrival by this many ns (may be negative). A negative warp
  /// can push an arrival below the conservative horizon; the exchange then
  /// re-windows it (clamps the arrival up to the completed horizon,
  /// counting FabricStats::rewindowed) instead of ever delivering into an
  /// engine's past. Exercised by tests/sim_parallel_test.cpp; leave at 0
  /// otherwise. The classic engine ignores it.
  int64_t test_arrival_warp_ns = 0;
};

struct FabricConfig {
  int num_nodes = 1;
  int ports_per_node = 1;
  LinkParams network{};  // inter-node path (through the NICs)
  LinkParams intranode{.latency_ns = 400,
                       .bytes_per_ns = 6.0,
                       .send_overhead_ns = 150,
                       .recv_overhead_ns = 150};
  FaultConfig faults{};
  /// Shared-backbone bandwidth (bytes/ns) every inter-node message must
  /// serialize through after leaving its egress NIC, before the wire
  /// latency. 0 disables the stage entirely (the default — timing is then
  /// bit-identical to the pre-backbone model). With it on, traffic between
  /// disjoint node sets contends: co-scheduled jobs slow each other down
  /// measurably, which is what ppm::jobs quantifies via FabricStats::
  /// per_node backbone_wait_ns. Classic engine only: the backbone is a
  /// machine-global serialization point, which the windowed constructor
  /// rejects.
  double backbone_bytes_per_ns = 0.0;
};

struct Message {
  int32_t src_node = 0;
  int32_t src_port = 0;
  int32_t dst_node = 0;
  int32_t dst_port = 0;
  uint64_t kind = 0;  // multiplexing tag interpreted by the layer above
  Bytes payload;
};

/// Aggregate traffic accounting, queryable by benches and tests.
struct FabricStats {
  Counter inter_messages;
  Counter inter_bytes;
  Counter intra_messages;
  Counter intra_bytes;

  /// Per-source-node inter-node traffic, indexed by src node id. Sized by
  /// the Fabric constructor. backbone_wait_ns accumulates the time this
  /// node's messages queued behind other traffic at the shared backbone
  /// (always 0 when FabricConfig::backbone_bytes_per_ns == 0). ppm::jobs
  /// attributes fabric traffic to co-scheduled jobs by taking deltas of
  /// these rows over each job's node allocation and run window.
  struct NodeTraffic {
    uint64_t tx_messages = 0;
    uint64_t tx_bytes = 0;
    uint64_t backbone_wait_ns = 0;
  };
  std::vector<NodeTraffic> per_node;

  /// Windowed mode only: cross-engine arrivals whose (fault-warped) time
  /// fell below the completed window horizon and were clamped up to it by
  /// the exchange step ("re-windowed"). Always 0 in the classic engine and
  /// whenever FaultConfig::test_arrival_warp_ns >= 0.
  uint64_t rewindowed = 0;

  void reset() {
    inter_messages.reset();
    inter_bytes.reset();
    intra_messages.reset();
    intra_bytes.reset();
    rewindowed = 0;
    for (auto& n : per_node) n = NodeTraffic{};
  }
};

/// Receiving side of a (node, port) address: a FIFO of delivered messages.
class Endpoint {
 public:
  Endpoint(sim::Engine& engine, int node, int port)
      : node_(node), port_(port), inbox_(engine) {}

  /// Blocking receive (fiber only).
  Message recv() { return inbox_.pop(); }

  /// Non-blocking receive.
  bool try_recv(Message* out) { return inbox_.try_pop(out); }

  bool has_pending() const { return !inbox_.empty(); }
  int node() const { return node_; }
  int port() const { return port_; }

 private:
  friend class Fabric;
  int node_;
  int port_;
  sim::Channel<Message> inbox_;
};

/// Both engines run the same timing pipeline in send(): sender overhead,
/// egress serialization, the optional backbone, wire latency and fault
/// jitter, then ingress at arrival. Only the hand-off differs: the classic
/// engine schedules the ingress stage on its one event queue directly; the
/// windowed engine parks the message in the source's outbox until the
/// window barrier's exchange_cross_traffic() schedules it on the
/// destination's engine.
class Fabric {
 public:
  /// Classic construction: every node's endpoints live on one engine.
  Fabric(sim::Engine& engine, FabricConfig config);

  /// Windowed construction (docs/SIM.md): one engine per node; node i's
  /// endpoints block on engine engines[i], and inter-node sends queue into
  /// per-source outboxes that exchange_cross_traffic() drains at window
  /// boundaries. Requires engines.size() == num_nodes, a positive network
  /// latency (it is the driver's lookahead) and no shared backbone (the
  /// backbone is a machine-global serialization point, incompatible with
  /// source-partitioned timing).
  Fabric(const std::vector<sim::Engine*>& engines, FabricConfig config);

  /// Send from a fiber of the source node's engine. Charges sender
  /// software overhead to the calling fiber, then schedules delivery into
  /// the destination endpoint.
  void send(Message msg);

  Endpoint& endpoint(int node, int port);

  const FabricConfig& config() const { return config_; }
  const FabricStats& stats() const { return stats_; }
  FabricStats& mutable_stats() { return stats_; }

  /// Virtual time at which a `bytes`-sized inter-node message completes,
  /// ignoring contention — useful for tests and analytic baselines.
  int64_t uncontended_network_time_ns(size_t bytes) const;

  /// Minimum timing distance between a cross-node send and its earliest
  /// possible arrival at the destination NIC: the windowed driver's
  /// lookahead. Fault jitter only ever delays messages, so the wire
  /// latency is the floor even for faulted runs.
  int64_t min_cross_latency_ns() const { return config_.network.latency_ns; }

  /// Windowed mode: move every outbox message into its destination
  /// engine's event queue, in one globally sorted deterministic order
  /// ((arrival, src, src port, dst, dst port, per-src seq)). Arrivals
  /// below `horizon_ns` — possible only with a negative test warp — are
  /// clamped up to it (counted in FabricStats::rewindowed), never
  /// reordered. Single-threaded: call only between windows. Returns the
  /// number of messages injected.
  uint64_t exchange_cross_traffic(int64_t horizon_ns);

  /// Tracing: per-node recorders, indexed by node id. Every message then
  /// records a kMsgSend span (send time -> delivery time, with kind/bytes/
  /// addressing and fault-delay attribution) on the track of the node
  /// whose engine computes the final delivery time — the source for
  /// intra-node traffic, the DESTINATION for cross-node traffic (the
  /// ingress stage resolves there; recording anywhere else would race in
  /// windowed mode). Pass an empty vector to detach. Detached by default:
  /// the hook is one never-taken branch per message.
  void set_node_trace_recorders(std::vector<trace::Recorder*> recorders);

 private:
  /// One inter-node message on its way to the destination's ingress
  /// stage.
  struct CrossMsg {
    int64_t arrival_ns;  // first byte at the destination NIC
    int64_t send_ns;     // trace attribution
    int64_t stretch_ns;  // fault-added delay (trace attribution)
    uint64_t seq;        // per-source sequence, breaks remaining ties
    Message msg;
  };
  /// Per (src node, dst node, dst port) fault-jitter state.
  struct PairState {
    uint64_t seq = 0;    // messages sent on the pair so far
    int64_t floor = 0;   // previous (jittered) time: keeps the pair FIFO
  };

  Fabric(std::vector<sim::Engine*> engines, FabricConfig config,
         bool windowed);
  /// Fault jitter plus the pairwise FIFO floor, applied to `t_ns` (the
  /// arrival of an inter-node message, the delivery of an intra-node one).
  int64_t jittered_ns(const Message& msg, int64_t t_ns);
  /// Ingress NIC serialization, receive overhead, the trace span and the
  /// push into the destination endpoint, run on the destination's engine
  /// at cm.arrival_ns.
  void schedule_ingress(CrossMsg cm);
  void record_msg_span(trace::Recorder* rec, const Message& msg, bool intra,
                       int64_t t_send, size_t bytes, int64_t deliver_ns,
                       int64_t stretch_ns);

  FabricConfig config_;
  bool windowed_;
  // Per node: the engine hosting it (all the same engine in classic mode).
  std::vector<sim::Engine*> node_engines_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;  // node-major
  // Timing state. Each entry is owned by one node's engine: egress, the
  // outbox, cross_seq_ and pairs_ by the source, ingress by the
  // destination; the backbone exists in classic mode only.
  std::vector<int64_t> egress_free_ns_;   // per node
  std::vector<int64_t> ingress_free_ns_;  // per node
  int64_t backbone_free_ns_ = 0;          // shared backbone (see config)
  std::vector<uint64_t> cross_seq_;       // per src node
  // Per src node: (dst node, dst port) -> jitter state.
  std::vector<std::unordered_map<uint64_t, PairState>> pairs_;
  std::vector<trace::Recorder*> node_tracers_;  // per node (or empty)
  FabricStats stats_;

  // Windowed mode: parked cross-engine messages (per src node) and the
  // exchange's merge scratch, touched only at window barriers.
  std::vector<std::vector<CrossMsg>> outbox_;
  std::vector<CrossMsg> exchange_scratch_;
};

}  // namespace ppm::net
