#include "src/fleet/cluster.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <thread>
#include <utility>

#include "src/base/logging.h"

namespace gs {
namespace fleet {
namespace {

// Gbps -> bytes per simulated nanosecond.
double BytesPerNs(double gbps) { return gbps / 8.0; }

// Waits for `done()`: spins first, then yields the CPU between checks. An
// epoch holds tens of microseconds of work, less than a futex sleep and
// wake-up would add to it; the yields keep more workers than free CPUs from
// starving the ones with work left.
template <typename Done>
void SpinThenYield(Done done) {
  constexpr int kSpins = 4096;
  for (int spins = 0; !done(); ++spins) {
    if (spins >= kSpins) {
      std::this_thread::yield();
    }
  }
}

// The threads that advance a fleet's nodes, alive for one RunFleet. The
// calling thread is worker 0 and `workers` - 1 threads are started, none for
// one worker. Run() is one epoch: it publishes the epoch's end by bumping a
// generation counter, runs advance(0, until) and waits until every other
// worker has run advance(w, until) for the same epoch.
class EpochPool {
 public:
  EpochPool(int workers, std::function<void(int worker, Time until)> advance)
      : advance_(std::move(advance)), errors_(static_cast<size_t>(workers)) {
    threads_.reserve(static_cast<size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) {
      threads_.emplace_back([this, w] { Work(w); });
    }
  }
  ~EpochPool() {
    stop_ = true;
    generation_.fetch_add(1, std::memory_order_release);
    for (std::thread& thread : threads_) {
      thread.join();
    }
  }
  EpochPool(const EpochPool&) = delete;
  EpochPool& operator=(const EpochPool&) = delete;

  // Rethrows the exception of the lowest-numbered worker that raised one.
  void Run(Time until) {
    until_ = until;
    busy_.store(static_cast<int>(threads_.size()), std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    Advance(0);
    SpinThenYield([this] { return busy_.load(std::memory_order_acquire) == 0; });
    for (std::exception_ptr& error : errors_) {
      if (error) {
        std::rethrow_exception(std::exchange(error, nullptr));
      }
    }
  }

 private:
  void Work(int worker) {
    uint64_t seen = 0;
    for (;;) {
      uint64_t generation = seen;
      SpinThenYield([&] {
        generation = generation_.load(std::memory_order_acquire);
        return generation != seen;
      });
      seen = generation;
      if (stop_) {
        return;
      }
      Advance(worker);
      busy_.fetch_sub(1, std::memory_order_release);
    }
  }

  void Advance(int worker) {
    try {
      advance_(worker, until_);
    } catch (...) {
      errors_[static_cast<size_t>(worker)] = std::current_exception();
    }
  }

  const std::function<void(int, Time)> advance_;
  std::vector<std::exception_ptr> errors_;  // slot w: worker w's, this epoch
  // Written by worker 0 before it bumps generation_, read after it.
  Time until_ = 0;
  bool stop_ = false;
  std::atomic<uint64_t> generation_{0};
  std::atomic<int> busy_{0};  // started threads still in this epoch
  std::vector<std::thread> threads_;
};

}  // namespace

Cluster::Cluster(const scenario::ScenarioSpec& spec, StatsRegistry* stats, int jobs)
    : spec_(spec),
      stats_(stats),
      jobs_(jobs),
      fleet_mode_(spec.fleet.has_value()),
      session_rng_(spec.seed ^ 0x5e551017ULL),
      leaf_rng_(spec.seed ^ 0x9e3779b97f4a7c15ULL) {
  if (!fleet_mode_) {
    MachineSim::Options options;
    options.stats = stats_;
    machines_.push_back(std::make_unique<MachineSim>(spec_, options));
    return;
  }
  // The machines' registries are merged only into one that records.
  if (stats_ != nullptr && !stats_->enabled()) {
    stats_ = nullptr;
  }
  BuildFleet();
}

Cluster::~Cluster() = default;

void Cluster::BuildFleet() {
  const scenario::FleetSpec& fleet = *spec_.fleet;
  const int num_machines = fleet.machines;

  // ---- Per-machine specs: base + override sections + machine-scoped fault
  // events from the fleet plan, each with its own derived seed. -------------
  for (int m = 0; m < num_machines; ++m) {
    scenario::ScenarioSpec machine_spec = spec_;
    machine_spec.fleet.reset();
    machine_spec.seed = spec_.seed + 7919ULL * static_cast<uint64_t>(m + 1);
    for (const scenario::MachineOverrideSpec& o : fleet.overrides) {
      if (o.machine != m) {
        continue;
      }
      if (o.policy.has_value()) machine_spec.policy = *o.policy;
      if (o.enclave.has_value()) machine_spec.enclave = *o.enclave;
      if (o.workload.has_value()) machine_spec.workload = *o.workload;
      if (o.antagonist.has_value()) machine_spec.antagonist = *o.antagonist;
      if (o.faults.has_value()) machine_spec.faults = *o.faults;
    }
    for (const scenario::FleetEventSpec& event : fleet.plan) {
      if (event.machine != m || event.kind == "lb_drain" ||
          event.kind == "lb_undrain" || event.kind == "link_down" ||
          event.kind == "link_up") {
        continue;
      }
      scenario::FaultEventSpec fault;
      fault.at_ms = event.at_ms;
      fault.kind = event.kind;
      machine_spec.faults.plan.push_back(fault);
    }
    MachineSim::Options options;
    options.stats = nullptr;  // own a registry; merged at collect
    options.collect_stats = stats_ != nullptr;
    options.fleet_mode = true;
    machines_.push_back(std::make_unique<MachineSim>(machine_spec, options));
  }

  // ---- Front end + network -------------------------------------------------
  frontend_loop_ = std::make_unique<EventLoop>();
  const int frontend = num_machines;
  std::vector<EventLoop*> loops;
  for (const std::unique_ptr<MachineSim>& machine : machines_) {
    loops.push_back(&machine->loop());
  }
  loops.push_back(frontend_loop_.get());

  NetworkModel::Options net_options;
  net_options.default_latency = FromUs(fleet.network.latency_us);
  net_options.default_bytes_per_ns = BytesPerNs(fleet.network.bandwidth_gbps);
  network_ = std::make_unique<NetworkModel>(std::move(loops), net_options);
  for (const scenario::LinkSpec& link : fleet.network.links) {
    const int from = link.from < 0 ? frontend : link.from;
    const int to = link.to < 0 ? frontend : link.to;
    const Duration latency = link.latency_us >= 0 ? FromUs(link.latency_us)
                                                  : net_options.default_latency;
    const double bpn = link.bandwidth_gbps >= 0
                           ? BytesPerNs(link.bandwidth_gbps)
                           : net_options.default_bytes_per_ns;
    network_->SetLink(from, to, latency, bpn);
  }
  request_bytes_ = static_cast<int64_t>(fleet.network.request_bytes);
  response_bytes_ = static_cast<int64_t>(fleet.network.response_bytes);

  LoadBalancer::Options lb_options;
  lb_options.strategy = fleet.balancer.policy;
  lb_options.num_machines = num_machines;
  lb_options.shed_outstanding = fleet.balancer.shed_outstanding;
  lb_options.virtual_nodes = fleet.balancer.virtual_nodes;
  balancer_ = std::make_unique<LoadBalancer>(lb_options);

  // ---- Front-end load: the workload's phases drive arrivals, and its
  // service model also samples the leaf RPCs. --------------------------------
  load_ = std::make_unique<PhasedLoad>(spec_.workload.service);
  load_->Start(spec_.workload.phases, spec_.seed, frontend_loop_.get(),
               [this](Time, Duration service) { OnArrival(service); });

  // ---- Fleet plan: balancer events run on the front-end loop at their
  // exact times; link events become epoch cuts applied at barriers. ---------
  for (const scenario::FleetEventSpec& event : fleet.plan) {
    const Time when = FromMs(event.at_ms);
    const int machine = event.machine;
    if (event.kind == "lb_drain") {
      frontend_loop_->ScheduleAt(
          when, [this, machine] { balancer_->SetDraining(machine, true); });
    } else if (event.kind == "lb_undrain") {
      frontend_loop_->ScheduleAt(
          when, [this, machine] { balancer_->SetDraining(machine, false); });
    } else if (event.kind == "link_down" || event.kind == "link_up") {
      link_cuts_.push_back(when);
    }
  }
  std::sort(link_cuts_.begin(), link_cuts_.end());
  link_cuts_.erase(std::unique(link_cuts_.begin(), link_cuts_.end()),
                   link_cuts_.end());

  // ---- Warmup reset for the end-to-end metrics ----------------------------
  frontend_loop_->ScheduleAt(FromMs(spec_.warmup_ms), [this] {
    e2e_.Reset();
    completed_at_warmup_ = completed_;
  });
}

void Cluster::OnArrival(Duration root_service) {
  const uint64_t session =
      session_rng_.NextBounded(static_cast<uint64_t>(spec_.fleet->sessions));
  const int machine = balancer_->Route(session);
  if (machine < 0) {
    ++shed_;
    return;
  }
  balancer_->OnDispatch(machine);
  const Time arrival = frontend_loop_->now();
  // Leaf service times are sampled at the front end so there is exactly one
  // deterministic sampling stream no matter which machines serve the leaves.
  const int leaves = spec_.fleet->rpc_fanout - 1;
  auto leaf_services = std::make_shared<std::vector<Duration>>();
  for (int i = 0; i < leaves; ++i) {
    leaf_services->push_back(load_->service().Sample(leaf_rng_));
  }
  network_->Send(num_machines(), machine, request_bytes_,
                 [this, machine, arrival, root_service, leaf_services] {
                   OnMachineRequest(machine, arrival, root_service, leaf_services);
                 });
}

void Cluster::OnMachineRequest(int machine, Time arrival, Duration root_service,
                               std::shared_ptr<std::vector<Duration>> leaf_services) {
  // Runs on `machine`'s loop at request delivery time.
  MachineSim* root = machines_[machine].get();
  ++root->rpcs_received;
  root->SubmitRequest(
      root_service, [this, machine, arrival, leaf_services](Time, Duration) {
        if (leaf_services->empty()) {
          Respond(machine, arrival);
          return;
        }
        // Root service done: fan out to the next rpc_fanout-1 machines. The
        // join counter lives on the root machine's loop (leaf responses are
        // delivered there), so no cross-thread state.
        auto remaining = std::make_shared<int>(
            static_cast<int>(leaf_services->size()));
        for (size_t i = 0; i < leaf_services->size(); ++i) {
          const int leaf =
              (machine + 1 + static_cast<int>(i)) % num_machines();
          const Duration leaf_service = (*leaf_services)[i];
          network_->Send(
              machine, leaf, request_bytes_,
              [this, machine, arrival, leaf, leaf_service, remaining] {
                MachineSim* leaf_sim = machines_[leaf].get();
                ++leaf_sim->rpcs_received;
                leaf_sim->SubmitRequest(
                    leaf_service,
                    [this, machine, arrival, leaf, remaining](Time, Duration) {
                      network_->Send(leaf, machine, response_bytes_,
                                     [this, machine, arrival, remaining] {
                                       if (--*remaining == 0) {
                                         Respond(machine, arrival);
                                       }
                                     });
                    });
              });
        }
      });
}

void Cluster::Respond(int machine, Time arrival) {
  // Runs on the root machine's loop; the response crosses back to the front
  // end, where completion bookkeeping happens on the front-end loop.
  network_->Send(machine, num_machines(), response_bytes_,
                 [this, machine, arrival] {
                   balancer_->OnComplete(machine);
                   ++completed_;
                   e2e_.Add(frontend_loop_->now() - arrival);
                 });
}

void Cluster::RunFleet() {
  const scenario::FleetSpec& fleet = *spec_.fleet;
  const Time t_end =
      FromMs(spec_.warmup_ms) + FromMs(spec_.measure_ms) + FromMs(spec_.drain_ms);
  const Duration lookahead = network_->min_latency();
  CHECK_GT(lookahead, 0);

  // Link events at t=0 apply before anything runs.
  auto apply_link_events_at = [&](Time t) {
    for (const scenario::FleetEventSpec& event : fleet.plan) {
      if (FromMs(event.at_ms) != t) {
        continue;
      }
      if (event.kind == "link_down") {
        network_->SetNodeLinked(event.machine, false, t);
      } else if (event.kind == "link_up") {
        network_->SetNodeLinked(event.machine, true, t);
      }
    }
  };
  size_t next_cut = 0;
  while (next_cut < link_cuts_.size() && link_cuts_[next_cut] == 0) {
    apply_link_events_at(0);
    ++next_cut;
  }

  // Node k (machine k, the front end last) belongs to worker k mod J for
  // the whole run, so a machine never changes thread. Nodes share nothing
  // mid-epoch: the pool changes wall-clock time, never results.
  const int nodes = num_machines() + 1;
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = std::clamp(jobs_ == 0 ? hardware : jobs_, 1, nodes);
  {  // the pool's threads end with the last epoch
    EpochPool pool(workers, [this, nodes, workers](int worker, Time until) {
      for (int node = worker; node < nodes; node += workers) {
        if (node < num_machines()) {
          machines_[node]->AdvanceUntil(until);
        } else {
          frontend_loop_->RunUntil(until);
        }
      }
    });
    Time t = 0;
    while (t < t_end) {
      Time next = std::min(t + lookahead, t_end);
      if (next_cut < link_cuts_.size() && link_cuts_[next_cut] > t) {
        next = std::min(next, link_cuts_[next_cut]);
      }
      pool.Run(next);
      network_->FlushAtBarrier();
      if (next_cut < link_cuts_.size() && link_cuts_[next_cut] == next) {
        apply_link_events_at(next);
        ++next_cut;
      }
      t = next;
    }
  }
  for (const std::unique_ptr<MachineSim>& machine : machines_) {
    machine->FinishChecks();
  }
}

void Cluster::CollectFleet(scenario::ScenarioResult* result) {
  result->exact["generated"] = load_->generated();
  result->exact["completed"] = completed_;
  result->exact["shed"] = shed_;
  int64_t rpcs = 0;
  int64_t routed_total = 0;
  int64_t routed_max = 0;
  for (int m = 0; m < num_machines(); ++m) {
    rpcs += machines_[m]->rpcs_received;
    routed_total += balancer_->routed(m);
    routed_max = std::max(routed_max, balancer_->routed(m));
  }
  result->exact["rpcs"] = rpcs;
  result->exact["net_messages"] = network_->delivered();
  result->exact["net_parked"] = network_->parked();

  const Duration measure_window =
      FromMs(spec_.measure_ms) + FromMs(spec_.drain_ms);
  result->envelopes["achieved_kqps"] =
      static_cast<double>(completed_ - completed_at_warmup_) /
      ToSeconds(measure_window) / 1e3;
  result->envelopes["p50_us"] = e2e_.PercentileUs(50);
  result->envelopes["p99_us"] = e2e_.PercentileUs(99);
  result->envelopes["p999_us"] = e2e_.PercentileUs(99.9);
  if (routed_total > 0) {
    result->envelopes["lb_max_share"] =
        static_cast<double>(routed_max) / static_cast<double>(routed_total);
  }

  if (spec_.invariants.enabled) {
    result->exact["invariants_ok"] = 1;
    result->exact["invariant_violations"] = 0;
  }
  for (int m = 0; m < num_machines(); ++m) {
    machines_[m]->CollectFleet(result, m);
  }
  if (stats_ != nullptr) {
    for (const std::unique_ptr<MachineSim>& machine : machines_) {
      stats_->MergeFrom(machine->stats());
    }
  }
}

scenario::ScenarioResult Cluster::Run() {
  scenario::ScenarioResult result;
  result.name = spec_.name;
  result.seed = spec_.seed;
  if (!fleet_mode_) {
    machines_[0]->RunLocal();
    machines_[0]->CollectLocal(&result);
    return result;
  }
  RunFleet();
  CollectFleet(&result);
  return result;
}

}  // namespace fleet
}  // namespace gs
