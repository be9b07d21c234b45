#include "net/fabric.hpp"

#include <algorithm>
#include <cmath>

#include "trace/recorder.hpp"
#include "util/rng.hpp"
#include "util/error.hpp"

namespace ppm::net {

namespace {
int64_t transmission_ns(size_t bytes, const LinkParams& link) {
  return static_cast<int64_t>(
      std::llround(static_cast<double>(bytes) / link.bytes_per_ns));
}
}  // namespace

Fabric::Fabric(sim::Engine& engine, FabricConfig config)
    : Fabric(std::vector<sim::Engine*>(
                 static_cast<size_t>(std::max(config.num_nodes, 0)), &engine),
             config, /*windowed=*/false) {}

Fabric::Fabric(const std::vector<sim::Engine*>& engines, FabricConfig config)
    : Fabric(engines, config, /*windowed=*/true) {}

Fabric::Fabric(std::vector<sim::Engine*> engines, FabricConfig config,
               bool windowed)
    : config_(config), windowed_(windowed),
      node_engines_(std::move(engines)) {
  PPM_CHECK(config_.num_nodes > 0, "fabric needs at least one node");
  PPM_CHECK(static_cast<int>(node_engines_.size()) == config_.num_nodes,
            "fabric needs one engine per node (%zu vs %d)",
            node_engines_.size(), config_.num_nodes);
  PPM_CHECK(config_.ports_per_node > 0, "fabric needs at least one port");
  PPM_CHECK(config_.network.bytes_per_ns > 0 &&
                config_.intranode.bytes_per_ns > 0,
            "link bandwidth must be positive");
  if (windowed_) {
    PPM_CHECK(config_.network.latency_ns > 0,
              "windowed fabric needs positive network latency (lookahead)");
    PPM_CHECK(config_.backbone_bytes_per_ns == 0.0,
              "windowed fabric cannot model the shared backbone");
  }
  const auto nodes = static_cast<size_t>(config_.num_nodes);
  endpoints_.reserve(nodes * static_cast<size_t>(config_.ports_per_node));
  for (int n = 0; n < config_.num_nodes; ++n) {
    for (int p = 0; p < config_.ports_per_node; ++p) {
      endpoints_.push_back(std::make_unique<Endpoint>(
          *node_engines_[static_cast<size_t>(n)], n, p));
    }
  }
  egress_free_ns_.assign(nodes, 0);
  ingress_free_ns_.assign(nodes, 0);
  cross_seq_.assign(nodes, 0);
  pairs_.resize(nodes);
  stats_.per_node.assign(nodes, {});
  if (windowed_) outbox_.resize(nodes);
}

void Fabric::set_node_trace_recorders(
    std::vector<trace::Recorder*> recorders) {
  PPM_CHECK(recorders.empty() ||
                static_cast<int>(recorders.size()) == config_.num_nodes,
            "need one trace recorder per node");
  node_tracers_ = std::move(recorders);
}

Endpoint& Fabric::endpoint(int node, int port) {
  PPM_CHECK(node >= 0 && node < config_.num_nodes, "bad node %d", node);
  PPM_CHECK(port >= 0 && port < config_.ports_per_node, "bad port %d", port);
  return *endpoints_[static_cast<size_t>(node * config_.ports_per_node +
                                         port)];
}

void Fabric::record_msg_span(trace::Recorder* rec, const Message& msg,
                             bool intra, int64_t t_send, size_t bytes,
                             int64_t deliver_ns, int64_t stretch_ns) {
  // One span per message: send time -> (possibly fault-stretched)
  // delivery, with the stretch attributed separately in aux. The kind's
  // top byte is the layer-above's message class (RtMsg for the PPM
  // runtime; the mp library tags differently).
  trace::Event e;
  e.t_ns = t_send;
  e.kind = trace::EventKind::kMsgSend;
  e.flags = intra ? trace::kFlagBit0 : 0;
  e.core = static_cast<uint16_t>(msg.src_node);
  e.a = (static_cast<uint64_t>(static_cast<uint16_t>(msg.src_node)) << 48) |
        (static_cast<uint64_t>(static_cast<uint16_t>(msg.src_port)) << 32) |
        (static_cast<uint64_t>(static_cast<uint16_t>(msg.dst_node)) << 16) |
        static_cast<uint64_t>(static_cast<uint16_t>(msg.dst_port));
  e.b = ((msg.kind >> 56) << 56) |
        (static_cast<uint64_t>(bytes) & ((uint64_t{1} << 56) - 1));
  e.c = static_cast<uint64_t>(deliver_ns);
  e.aux =
      static_cast<uint32_t>(std::min<int64_t>(stretch_ns, UINT32_MAX));
  rec->record(e);
}

int64_t Fabric::jittered_ns(const Message& msg, int64_t t_ns) {
  const FaultConfig& faults = config_.faults;
  const uint64_t pair_key = (static_cast<uint64_t>(msg.src_node) << 40) |
                            (static_cast<uint64_t>(msg.dst_node) << 20) |
                            static_cast<uint64_t>(msg.dst_port);
  PairState& pair = pairs_[static_cast<size_t>(msg.src_node)][pair_key];
  const uint64_t pair_seq = pair.seq++;
  if (faults.max_extra_delay_ns > 0) {
    // Two independent hash draws: one decides, one sizes. Keyed so every
    // (pair, seq) gets a fresh value whatever the global send interleaving.
    const uint64_t key =
        mix64(faults.seed ^ 0xfab51c0ffee5eedULL) ^
        mix64((static_cast<uint64_t>(msg.src_node) << 42) ^
              (static_cast<uint64_t>(msg.dst_node) << 21) ^
              (static_cast<uint64_t>(msg.dst_port) << 1)) ^
        mix64(pair_seq);
    // A uniform double in [0, 1) against delay_probability.
    const double u =
        static_cast<double>(mix64(key) >> 11) * (1.0 / 9007199254740992.0);
    if (u < faults.delay_probability) {
      t_ns += static_cast<int64_t>(
          mix64(key ^ 0x9e3779b97f4a7c15ULL) %
          (static_cast<uint64_t>(faults.max_extra_delay_ns) + 1));
    }
  }
  pair.floor = std::max(t_ns, pair.floor);
  return pair.floor;
}

void Fabric::send(Message msg) {
  const auto src = static_cast<size_t>(msg.src_node);
  sim::Engine* eng = sim::current_engine();
  PPM_CHECK(msg.src_node >= 0 && msg.src_node < config_.num_nodes &&
                eng == node_engines_[src] && eng->on_fiber(),
            "Fabric::send must run on a fiber of the source node's engine "
            "(src %d)",
            msg.src_node);
  Endpoint& dst = endpoint(msg.dst_node, msg.dst_port);  // validates address
  const size_t bytes = msg.payload.size();
  const bool intra = (msg.src_node == msg.dst_node);
  const LinkParams& link = intra ? config_.intranode : config_.network;
  const bool jitter = config_.faults.delay_jitter;

  // Sender software overhead is CPU time of the sending core.
  eng->advance_ns(link.send_overhead_ns);
  const int64_t t_send = eng->now_ns();

  if (intra) {
    // Shared-memory transport: per-message cost + copy time, no NIC.
    const int64_t modeled_deliver_ns = t_send + link.latency_ns +
                                       transmission_ns(bytes, link) +
                                       link.recv_overhead_ns;
    const int64_t deliver_ns =
        jitter ? jittered_ns(msg, modeled_deliver_ns) : modeled_deliver_ns;
    stats_.intra_messages.add();
    stats_.intra_bytes.add(bytes);
    if (!node_tracers_.empty()) [[unlikely]] {
      record_msg_span(node_tracers_[src], msg, /*intra=*/true, t_send, bytes,
                      deliver_ns, deliver_ns - modeled_deliver_ns);
    }
    if (!jitter) {
      dst.inbox_.push_at(deliver_ns, std::move(msg));
      return;
    }
    // Enqueue AT the jittered delivery time, so the inbox (which pops in
    // push order) sees arrivals in delivery-time order.
    eng->at(deliver_ns, [&dst, deliver_ns, m = std::move(msg)]() mutable {
      dst.inbox_.push_at(deliver_ns, std::move(m));
    });
    return;
  }

  // Egress NIC serializes this node's outbound traffic.
  const int64_t tx_start = std::max(t_send, egress_free_ns_[src]);
  egress_free_ns_[src] = tx_start + transmission_ns(bytes, link);
  FabricStats::NodeTraffic& nt = stats_.per_node[src];
  int64_t wire_enter_ns = tx_start;
  if (config_.backbone_bytes_per_ns > 0.0) {
    // Shared backbone: all inter-node traffic — including between disjoint
    // node sets — serializes through one machine-wide stage after egress,
    // so co-scheduled tenants contend.
    const int64_t bb_tx = static_cast<int64_t>(std::llround(
        static_cast<double>(bytes) / config_.backbone_bytes_per_ns));
    const int64_t bb_start = std::max(tx_start, backbone_free_ns_);
    backbone_free_ns_ = bb_start + bb_tx;
    nt.backbone_wait_ns += static_cast<uint64_t>(bb_start - tx_start);
    wire_enter_ns = bb_start + bb_tx;
  }
  const int64_t modeled_arrival_ns = wire_enter_ns + link.latency_ns;
  const int64_t arrival_ns =
      jitter ? jittered_ns(msg, modeled_arrival_ns) : modeled_arrival_ns;
  stats_.inter_messages.add();
  stats_.inter_bytes.add(bytes);
  ++nt.tx_messages;
  nt.tx_bytes += bytes;
  CrossMsg cm{arrival_ns, t_send, arrival_ns - modeled_arrival_ns,
              cross_seq_[src]++, std::move(msg)};
  if (windowed_) {
    // The destination's engine runs the ingress stage once the window
    // barrier has merged this message into its queue.
    outbox_[src].push_back(std::move(cm));
    return;
  }
  schedule_ingress(std::move(cm));
}

void Fabric::schedule_ingress(CrossMsg cm) {
  const auto dstn = static_cast<size_t>(cm.msg.dst_node);
  const int64_t arrival_ns = cm.arrival_ns;
  Endpoint& ep = endpoint(cm.msg.dst_node, cm.msg.dst_port);
  const int64_t tx = transmission_ns(cm.msg.payload.size(), config_.network);
  trace::Recorder* dst_tracer =
      node_tracers_.empty() ? nullptr : node_tracers_[dstn];
  sim::Engine& eng = *node_engines_[dstn];
  eng.at(arrival_ns, [this, &ep, dstn, arrival_ns, tx, dst_tracer,
                      recv_overhead = config_.network.recv_overhead_ns,
                      send_ns = cm.send_ns, stretch = cm.stretch_ns,
                      m = std::move(cm.msg)]() mutable {
    // The ingress NIC absorbs messages one at a time, in arrival order.
    const int64_t rx_start = std::max(arrival_ns, ingress_free_ns_[dstn]);
    const int64_t rx_end = rx_start + tx;
    ingress_free_ns_[dstn] = rx_end;
    const int64_t deliver_ns = rx_end + recv_overhead;
    if (dst_tracer != nullptr) [[unlikely]] {
      record_msg_span(dst_tracer, m, /*intra=*/false, send_ns,
                      m.payload.size(), deliver_ns, stretch);
    }
    ep.inbox_.push_at(deliver_ns, std::move(m));
  });
}

uint64_t Fabric::exchange_cross_traffic(int64_t horizon_ns) {
  exchange_scratch_.clear();
  for (auto& box : outbox_) {
    for (CrossMsg& cm : box) exchange_scratch_.push_back(std::move(cm));
    box.clear();
  }
  if (exchange_scratch_.empty()) return 0;
  // Deterministic merge order: time first, then full source/destination
  // addressing, then the per-source sequence number. Injection order fixes
  // each destination engine's event sequence numbering, so any host-thread
  // count replays the same simulation.
  std::sort(exchange_scratch_.begin(), exchange_scratch_.end(),
            [](const CrossMsg& a, const CrossMsg& b) {
              if (a.arrival_ns != b.arrival_ns)
                return a.arrival_ns < b.arrival_ns;
              if (a.msg.src_node != b.msg.src_node)
                return a.msg.src_node < b.msg.src_node;
              if (a.msg.src_port != b.msg.src_port)
                return a.msg.src_port < b.msg.src_port;
              if (a.msg.dst_node != b.msg.dst_node)
                return a.msg.dst_node < b.msg.dst_node;
              if (a.msg.dst_port != b.msg.dst_port)
                return a.msg.dst_port < b.msg.dst_port;
              return a.seq < b.seq;
            });
  const uint64_t injected = exchange_scratch_.size();
  for (CrossMsg& cm : exchange_scratch_) {
    // The test warp shifts every arrival equally and the clamp below is
    // monotone, so both keep the merge order and pairwise FIFO.
    cm.arrival_ns += config_.faults.test_arrival_warp_ns;
    if (cm.arrival_ns < horizon_ns) {
      // Only a negative test warp can get here (lookahead == the wire
      // latency floor otherwise): re-window instead of delivering into
      // the destination's past.
      cm.arrival_ns = horizon_ns;
      ++stats_.rewindowed;
    }
    schedule_ingress(std::move(cm));
  }
  exchange_scratch_.clear();
  return injected;
}

int64_t Fabric::uncontended_network_time_ns(size_t bytes) const {
  const LinkParams& link = config_.network;
  return link.send_overhead_ns + link.latency_ns +
         transmission_ns(bytes, link) + link.recv_overhead_ns;
}

}  // namespace ppm::net
