// Deterministic network model for fleet simulations.
//
// Nodes are event loops (M machine loops + the front-end loop); a message is
// a callback that runs on the destination loop after a per-link delay of
// queueing + transmit (bytes / bandwidth, serialized per directed link) +
// propagation latency.
//
// Cross-loop delivery uses conservative-lookahead barriers (classic parallel
// discrete-event simulation): the cluster advances all loops in lockstep
// epochs no longer than the minimum link latency, so a message sent during
// an epoch always delivers strictly after the epoch's end barrier. During an
// epoch each node appends sends to its own outbox (no shared state between
// loops, so epochs can run on a thread pool); at the barrier the cluster
// calls FlushAtBarrier(), which sorts all pending messages by
// (deliver_time, dst, src, seq) and schedules them into the destination
// loops — one deterministic order, byte-identical for any job count.
//
// Partitions: SetNodeLinked(node, false) parks every subsequent message to
// or from the node (messages already on the wire still deliver). Healing
// re-sends parked messages in (src, seq) order from the heal time. Link
// state may only change at a barrier, so senders never race the flag.
#ifndef GHOST_SIM_SRC_FLEET_NETWORK_H_
#define GHOST_SIM_SRC_FLEET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/time.h"
#include "src/sim/event_loop.h"

namespace gs {
namespace fleet {

class NetworkModel {
 public:
  struct Options {
    Duration default_latency = Microseconds(50);
    // 10 Gbps = 1.25 bytes/ns.
    double default_bytes_per_ns = 1.25;
  };

  // `loops[i]` is node i's event loop; borrowed, must outlive the model.
  NetworkModel(std::vector<EventLoop*> loops, Options options);

  // Per-directed-link override; by default every link uses the defaults.
  void SetLink(int from, int to, Duration latency, double bytes_per_ns);

  // Queue `deliver` to run on node `dst`'s loop. Must be called from node
  // `src`'s loop (during an epoch) or at a barrier. If either endpoint is
  // unlinked the message is parked until both are linked again.
  void Send(int src, int dst, int64_t bytes, std::function<void()> deliver);

  // Barrier step: schedule every pending message into its destination loop
  // in the canonical order. Caller guarantees all loops are paused at a
  // common time >= every sender's send time.
  void FlushAtBarrier();

  // Partition / heal node `node` at barrier time `now`. Healing re-sends the
  // parked messages whose endpoints are now both linked.
  void SetNodeLinked(int node, bool linked, Time now);
  bool node_linked(int node) const { return linked_[node] != 0; }

  Duration min_latency() const { return min_latency_; }
  int64_t delivered() const { return delivered_; }
  // Cumulative count of messages that hit a down link and were parked
  // (whether or not they were later retransmitted).
  int64_t parked() const;
  // Messages parked right now, awaiting a heal.
  int64_t parked_now() const;

 private:
  struct Link {
    Duration latency;
    double bytes_per_ns;
  };
  struct Pending {
    Time deliver;
    int src;
    int dst;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct Parked {
    int dst;
    int64_t bytes;
    uint64_t seq;
    std::function<void()> fn;
  };

  int num_nodes() const { return static_cast<int>(loops_.size()); }
  Link& link(int from, int to) { return links_[from * num_nodes() + to]; }
  // Serialization point of the directed link: when its last transmit ends.
  Time& busy_until(int from, int to) { return busy_[from * num_nodes() + to]; }
  void Enqueue(int src, int dst, int64_t bytes, Time send_time,
               std::function<void()> fn);

  std::vector<EventLoop*> loops_;
  std::vector<Link> links_;
  std::vector<Time> busy_;
  Duration min_latency_;
  // One outbox, parked list, seq counter and parked count per source node:
  // epochs touch disjoint state.
  std::vector<std::vector<Pending>> outbox_;
  std::vector<std::vector<Parked>> parked_;
  std::vector<uint64_t> seq_;
  std::vector<int64_t> parked_total_;
  std::vector<char> linked_;
  // FlushAtBarrier's merge of the outboxes; kept so that a barrier reuses
  // its capacity instead of allocating.
  std::vector<Pending> flush_;
  int64_t delivered_ = 0;
};

}  // namespace fleet
}  // namespace gs

#endif  // GHOST_SIM_SRC_FLEET_NETWORK_H_
