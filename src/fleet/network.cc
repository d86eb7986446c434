#include "src/fleet/network.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/base/logging.h"

namespace gs {
namespace fleet {

NetworkModel::NetworkModel(std::vector<EventLoop*> loops, Options options)
    : loops_(std::move(loops)) {
  CHECK_GE(loops_.size(), 2u) << "a network needs at least two nodes";
  CHECK_GT(options.default_latency, 0) << "zero latency breaks the lookahead barrier";
  CHECK_GT(options.default_bytes_per_ns, 0.0);
  const int n = num_nodes();
  links_.assign(static_cast<size_t>(n) * n,
                Link{options.default_latency, options.default_bytes_per_ns});
  busy_.assign(static_cast<size_t>(n) * n, 0);
  outbox_.resize(n);
  parked_.resize(n);
  seq_.assign(n, 0);
  parked_total_.assign(n, 0);
  linked_.assign(n, 1);
  min_latency_ = options.default_latency;
}

void NetworkModel::SetLink(int from, int to, Duration latency, double bytes_per_ns) {
  CHECK_GE(from, 0);
  CHECK_LT(from, num_nodes());
  CHECK_GE(to, 0);
  CHECK_LT(to, num_nodes());
  CHECK_NE(from, to);
  CHECK_GT(latency, 0) << "zero latency breaks the lookahead barrier";
  CHECK_GT(bytes_per_ns, 0.0);
  link(from, to) = Link{latency, bytes_per_ns};
  min_latency_ = std::min(min_latency_, latency);
}

namespace {

// `t + d` for d >= 0, stuck at kTimeNever instead of wrapping: a link whose
// backlog runs past the end of time delivers never, not in the past.
Time SaturatingAdd(Time t, Duration d) { return t > kTimeNever - d ? kTimeNever : t + d; }

}  // namespace

void NetworkModel::Enqueue(int src, int dst, int64_t bytes, Time send_time,
                           std::function<void()> fn) {
  const Link& l = link(src, dst);
  const Duration transmit =
      static_cast<Duration>(static_cast<double>(bytes) / l.bytes_per_ns);
  Time& busy = busy_until(src, dst);
  const Time depart = SaturatingAdd(std::max(send_time, busy), transmit);
  busy = depart;
  outbox_[src].push_back(
      Pending{SaturatingAdd(depart, l.latency), src, dst, seq_[src]++, std::move(fn)});
}

void NetworkModel::Send(int src, int dst, int64_t bytes, std::function<void()> deliver) {
  CHECK_NE(src, dst);
  if (!linked_[src] || !linked_[dst]) {
    ++parked_total_[src];
    parked_[src].push_back(Parked{dst, bytes, seq_[src]++, std::move(deliver)});
    return;
  }
  Enqueue(src, dst, bytes, loops_[src]->now(), std::move(deliver));
}

void NetworkModel::FlushAtBarrier() {
  std::vector<Pending> all;
  for (std::vector<Pending>& box : outbox_) {
    for (Pending& p : box) {
      all.push_back(std::move(p));
    }
    box.clear();
  }
  // The canonical delivery order: time, then destination, then source, then
  // per-source sequence. Total and independent of which thread advanced
  // which loop, so the schedule is byte-identical for any --jobs.
  std::sort(all.begin(), all.end(), [](const Pending& a, const Pending& b) {
    if (a.deliver != b.deliver) return a.deliver < b.deliver;
    if (a.dst != b.dst) return a.dst < b.dst;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  for (Pending& p : all) {
    ++delivered_;
    loops_[p.dst]->ScheduleAt(p.deliver, std::move(p.fn));
  }
}

void NetworkModel::SetNodeLinked(int node, bool linked, Time now) {
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  linked_[node] = linked ? 1 : 0;
  if (!linked) {
    return;
  }
  // Heal: retransmit parked messages whose endpoints are both up, oldest
  // first per source, sources in index order — deterministic by construction.
  for (int src = 0; src < num_nodes(); ++src) {
    std::vector<Parked> keep;
    for (Parked& p : parked_[src]) {
      if (linked_[src] && linked_[p.dst]) {
        Enqueue(src, p.dst, p.bytes, now, std::move(p.fn));
      } else {
        keep.push_back(std::move(p));
      }
    }
    parked_[src] = std::move(keep);
  }
}

int64_t NetworkModel::parked() const {
  return std::accumulate(parked_total_.begin(), parked_total_.end(), int64_t{0});
}

int64_t NetworkModel::parked_now() const {
  int64_t total = 0;
  for (const std::vector<Parked>& box : parked_) {
    total += static_cast<int64_t>(box.size());
  }
  return total;
}

}  // namespace fleet
}  // namespace gs
