#include "src/fleet/machine_sim.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/base/logging.h"
#include "src/policies/ab_test_policy.h"
#include "src/policies/factory.h"
#include "src/policies/predictive_shinjuku.h"

namespace gs {
namespace fleet {
namespace {

Topology MakeTopology(const scenario::TopologySpec& spec) {
  if (spec.preset == "e5_24") {
    return Topology::IntelE5_24();
  }
  if (spec.preset == "skylake112") {
    return Topology::IntelSkylake112();
  }
  if (spec.preset == "haswell72") {
    return Topology::IntelHaswell72();
  }
  if (spec.preset == "rome256") {
    return Topology::AmdRome256();
  }
  return Topology::Make("scenario", spec.sockets, spec.cores_per_socket, spec.smt,
                        spec.cores_per_ccx);
}

// Joint state for one fan-out group (tail-at-scale): the group completes when
// its slowest sub-request does.
struct FanoutGroup {
  int remaining = 0;
  Duration max_latency = 0;
};

}  // namespace

PhasedLoad::PhasedLoad(const scenario::ServiceSpec& spec) {
  if (spec.model == "fixed") {
    service_ = std::make_unique<FixedServiceModel>(FromUs(spec.fixed_us));
  } else if (spec.model == "exponential") {
    service_ = std::make_unique<ExponentialServiceModel>(FromUs(spec.mean_us));
  } else {
    service_ = std::make_unique<BimodalServiceModel>(FromUs(spec.short_us),
                                                     FromUs(spec.long_us), spec.p_long);
  }
}

void PhasedLoad::Start(const std::vector<scenario::LoadPhase>& phases, uint64_t seed,
                       EventLoop* loop, const std::function<void(Time, Duration)>& sink) {
  Time start = 0;
  for (size_t k = 0; k < phases.size(); ++k) {
    const Time end = start + FromMs(phases[k].duration_ms);
    if (phases[k].qps > 0) {
      gens_.push_back(std::make_unique<PoissonLoadGen>(loop, service_.get(), phases[k].qps,
                                                       seed + 1000003ULL * k, sink));
      PoissonLoadGen* gen = gens_.back().get();
      loop->ScheduleAt(start, [gen, end] { gen->Start(end); });
    }
    start = end;
  }
}

int64_t PhasedLoad::generated() const {
  int64_t total = 0;
  for (const std::unique_ptr<PoissonLoadGen>& gen : gens_) {
    total += gen->generated();
  }
  return total;
}

MachineSim::MachineSim(const scenario::ScenarioSpec& spec, const Options& machine_options)
    : spec_(spec),
      warmup_(FromMs(spec.warmup_ms)),
      measure_(FromMs(spec.measure_ms)),
      drain_(FromMs(spec.drain_ms)),
      fanout_rng_(spec.seed ^ 0x9e3779b97f4a7c15ULL) {
  SimulationContext::Options options;
  options.topology = MakeTopology(spec_.topology);
  options.with_core_sched = spec_.policy.kind == "vm_core_sched";
  options.seed = spec_.seed;
  options.enable_stats = machine_options.stats == nullptr && machine_options.collect_stats;
  options.stats = machine_options.stats;
  const bool want_faults = !spec_.faults.plan.empty() ||
                           spec_.faults.ipi_delay_probability > 0 ||
                           spec_.faults.ipi_drop_probability > 0 ||
                           spec_.faults.msg_drop_probability > 0 ||
                           spec_.faults.estale_probability > 0;
  if (want_faults) {
    FaultInjector::Config faults;
    faults.window_start = FromMs(spec_.faults.window_start_ms);
    faults.window_end = spec_.faults.window_end_ms < 0
                            ? kTimeNever
                            : FromMs(spec_.faults.window_end_ms);
    faults.ipi_delay_probability = spec_.faults.ipi_delay_probability;
    faults.ipi_drop_probability = spec_.faults.ipi_drop_probability;
    faults.msg_drop_probability = spec_.faults.msg_drop_probability;
    faults.estale_probability = spec_.faults.estale_probability;
    options.faults = faults;
  }
  ctx_ = std::make_unique<SimulationContext>(std::move(options));

  // ---- CPU plan -------------------------------------------------------------
  const int num_cpus = ctx_->topology().num_cpus();
  const int cpu_first = std::min(spec_.enclave.cpu_first, num_cpus - 1);
  cpu_count_ = spec_.enclave.cpu_count < 0
                   ? num_cpus - cpu_first
                   : std::min(spec_.enclave.cpu_count, num_cpus - cpu_first);
  CpuMask server_cpus;
  for (int cpu = cpu_first; cpu < cpu_first + cpu_count_; ++cpu) {
    server_cpus.Set(cpu);
  }
  CHECK_GE(cpu_count_, 1) << "scenario " << spec_.name << ": empty enclave CPU set";

  // ---- Workload threads (created before the policy so tid-based classifiers
  // can capture them) ---------------------------------------------------------
  is_vm_ = spec_.workload.kind == "vm";
  if (is_vm_) {
    VmWorkload::Options vm_options;
    vm_options.num_vms = spec_.workload.num_vms;
    vm_options.vcpus_per_vm = spec_.workload.vcpus_per_vm;
    vm_options.work_per_vcpu = FromMs(spec_.workload.work_per_vcpu_ms);
    vm_ = std::make_unique<VmWorkload>(&ctx_->kernel(), vm_options);
  } else {
    ThreadPoolServer::Options server_options;
    server_options.num_workers = spec_.workload.num_workers;
    server_ = std::make_unique<ThreadPoolServer>(&ctx_->kernel(), server_options);
  }

  antagonist_ = std::make_unique<BatchApp>(
      &ctx_->kernel(), BatchApp::Options{.num_threads = std::max(spec_.antagonist.threads, 1),
                                         .chunk = FromUs(spec_.antagonist.chunk_us)});
  with_antagonist_ = spec_.antagonist.threads > 0;
  const bool antagonist_in_enclave =
      with_antagonist_ && spec_.antagonist.placement == "enclave";
  antagonist_tids_ = std::make_shared<std::set<int64_t>>();
  if (antagonist_in_enclave) {
    for (Task* t : antagonist_->threads()) {
      antagonist_tids_->insert(t->tid());
    }
  }

  // ---- Policy + enclave -----------------------------------------------------
  use_ghost_ = spec_.policy.kind != "cfs";
  if (use_ghost_) {
    Enclave::Config config;
    config.watchdog_timeout = FromMs(spec_.enclave.watchdog_timeout_ms);
    config.watchdog_period = FromMs(spec_.enclave.watchdog_period_ms);
    enclave_ = ctx_->CreateEnclave(server_cpus, config);

    if (spec_.policy.kind == "vm_core_sched") {
      CHECK(is_vm_) << "scenario " << spec_.name
                    << ": vm_core_sched requires workload.kind == \"vm\"";
    }
    PolicyEnv env;
    env.default_global_cpu = cpu_first;
    std::shared_ptr<std::set<int64_t>> tids = antagonist_tids_;
    env.tier_of = [tids](int64_t tid) { return tids->count(tid) ? 1 : 0; };
    if (is_vm_) {
      VmWorkload* vm_ptr = vm_.get();
      env.cookie_of = [vm_ptr](int64_t tid) { return vm_ptr->CookieOf(tid); };
    }
    if (spec_.ab_test.has_value()) {
      env.ab_test = {.canary_percent = spec_.ab_test->canary.percent,
                     .canary_lifo = spec_.ab_test->canary.lifo};
    }
    process_ = ctx_->CreateAgentProcess(enclave_.get(), MakePolicy(spec_.policy, env));
    process_->Start();

    // ---- A/B promote / rollback plan (§3.4 hot-swap under load) -------------
    if (spec_.policy.kind == "ab_test" && spec_.ab_test.has_value()) {
      const bool lifo = spec_.ab_test->canary.lifo;
      const auto swap_to = [this, lifo](int canary_percent) {
        if (process_ == nullptr || !process_->alive()) {
          return;
        }
        AbTestPolicy::Options o;
        o.canary_percent = canary_percent;
        o.canary_lifo = lifo;
        retired_policies_.push_back(
            process_->SwapPolicy(std::make_unique<AbTestPolicy>(o)));
      };
      if (spec_.ab_test->promote_at_ms >= 0) {
        ctx_->loop().ScheduleAt(FromMs(spec_.ab_test->promote_at_ms),
                                [swap_to] { swap_to(100); });
      }
      if (spec_.ab_test->rollback_at_ms >= 0) {
        ctx_->loop().ScheduleAt(FromMs(spec_.ab_test->rollback_at_ms),
                                [swap_to] { swap_to(0); });
      }
    }
  }

  // ---- Thread placement -----------------------------------------------------
  const std::vector<Task*>& workload_threads =
      is_vm_ ? vm_->vcpus() : server_->workers();
  for (Task* t : workload_threads) {
    if (use_ghost_) {
      enclave_->AddTask(t);
    } else {
      ctx_->kernel().SetAffinity(t, server_cpus);
    }
  }
  if (with_antagonist_) {
    for (Task* t : antagonist_->threads()) {
      if (antagonist_in_enclave) {
        enclave_->AddTask(t);
      } else {
        ctx_->kernel().SetAffinity(t, server_cpus);
        ctx_->kernel().SetNice(t, spec_.antagonist.nice);
      }
    }
    antagonist_->Start();
  }

  // ---- Load -----------------------------------------------------------------
  if (is_vm_) {
    vm_->Start();
    vm_->StartSecuritySampler();
  } else if (!machine_options.fleet_mode) {
    load_ = std::make_unique<PhasedLoad>(spec_.workload.service);
    ServiceTimeModel* service = &load_->service();
    ThreadPoolServer* server_ptr = server_.get();
    std::function<void(Time, Duration)> sink;
    const int fanout = spec_.workload.fanout;
    if (fanout <= 1) {
      sink = [server_ptr](Time t, Duration s) { server_ptr->Submit(t, s); };
    } else {
      Rng* fanout_rng = &fanout_rng_;
      LatencyRecorder* group_latency = &group_latency_;
      sink = [server_ptr, service, fanout, fanout_rng, group_latency](Time t,
                                                                      Duration s) {
        auto group = std::make_shared<FanoutGroup>();
        group->remaining = fanout;
        for (int k = 0; k < fanout; ++k) {
          const Duration sub_service = k == 0 ? s : service->Sample(*fanout_rng);
          server_ptr->Submit(t, sub_service,
                             [group, group_latency](Time, Duration latency) {
                               group->max_latency =
                                   std::max(group->max_latency, latency);
                               if (--group->remaining == 0) {
                                 group_latency->Add(group->max_latency);
                               }
                             });
        }
      };
    }
    load_->Start(spec_.workload.phases, spec_.seed, &ctx_->loop(), sink);
  }

  // ---- Fault plan -----------------------------------------------------------
  if (!spec_.faults.plan.empty()) {
    FaultInjector* injector = ctx_->fault_injector();
    Enclave* enclave_ptr = enclave_.get();
    AgentProcess* process_ptr = process_.get();
    for (const scenario::FaultEventSpec& event : spec_.faults.plan) {
      const Time when = FromMs(event.at_ms);
      if (event.kind == "agent_crash" && process_ptr != nullptr) {
        injector->At(when, FaultKind::kAgentCrash,
                     [process_ptr] { process_ptr->Crash(); });
      } else if (event.kind == "agent_stall" && process_ptr != nullptr) {
        injector->At(when, FaultKind::kAgentStall,
                     [process_ptr] { process_ptr->SetStalled(true); });
      } else if (event.kind == "agent_recover" && process_ptr != nullptr) {
        injector->At(when, FaultKind::kAgentStall,
                     [process_ptr] { process_ptr->SetStalled(false); });
      } else if (event.kind == "enclave_destroy" && enclave_ptr != nullptr) {
        injector->At(when, FaultKind::kEnclaveDestroy, [enclave_ptr] {
          if (!enclave_ptr->destroyed()) {
            enclave_ptr->Destroy();
          }
        });
      }
    }
  }

  // ---- Invariant checking ---------------------------------------------------
  if (spec_.invariants.enabled) {
    InvariantChecker::Options inv;
    inv.period = FromUs(spec_.invariants.period_us);
    inv.ghost_starvation_bound = FromMs(spec_.invariants.ghost_starvation_bound_ms);
    checker_ = std::make_unique<InvariantChecker>(&ctx_->kernel(), inv);
    if (enclave_ != nullptr) {
      checker_->Watch(enclave_.get());
    }
    checker_->Start();
  }

  // ---- Warmup reset ---------------------------------------------------------
  ctx_->loop().ScheduleAt(warmup_, [this] {
    if (server_ != nullptr) {
      server_->latency().Reset();
      completed_at_warmup_ = server_->completed();
    }
    antagonist_->MarkWindow();
  });
}

void MachineSim::RunLocal() {
  ctx_->RunFor(warmup_ + measure_ + drain_);
  FinishChecks();
}

void MachineSim::SubmitRequest(Duration service, ThreadPoolServer::CompletionFn done) {
  CHECK(server_ != nullptr);
  server_->Submit(ctx_->loop().now(), service, std::move(done));
}

void MachineSim::FinishChecks() {
  if (checker_ != nullptr) {
    checker_->CheckNow();
    checker_->Stop();
  }
}

void MachineSim::CollectLocal(scenario::ScenarioResult* result) {
  if (!is_vm_) {
    result->exact["generated"] = load_ != nullptr ? load_->generated() : 0;
    result->exact["completed"] = server_->completed();
    result->exact["dropped"] = server_->dropped();
    const double measured =
        static_cast<double>(server_->completed() - completed_at_warmup_);
    result->envelopes["achieved_kqps"] =
        measured / ToSeconds(measure_ + drain_) / 1e3;
    LatencyRecorder& lat =
        spec_.workload.fanout > 1 ? group_latency_ : server_->latency();
    result->envelopes["p50_us"] = lat.PercentileUs(50);
    result->envelopes["p99_us"] = lat.PercentileUs(99);
    result->envelopes["p999_us"] = lat.PercentileUs(99.9);
  } else {
    result->exact["vm_vcpus"] = static_cast<int64_t>(vm_->vcpus().size());
    result->exact["vm_completed"] = vm_->completed();
    result->exact["vm_coresidency_violations"] =
        static_cast<int64_t>(vm_->coresidency_violations());
    result->envelopes["vcpu_completed_frac"] =
        static_cast<double>(vm_->completed()) /
        static_cast<double>(vm_->vcpus().size());
  }
  if (with_antagonist_) {
    result->envelopes["antagonist_share"] =
        antagonist_->CpuShare(warmup_, ctx_->now(), cpu_count_);
  }
  if (ctx_->fault_injector() != nullptr) {
    const FaultInjector* injector = ctx_->fault_injector();
    for (int k = 0; k < kNumFaultKinds; ++k) {
      const FaultKind kind = static_cast<FaultKind>(k);
      result->exact[std::string("faults_") + ToString(kind)] =
          static_cast<int64_t>(injector->injected(kind));
    }
  }
  if (spec_.policy.kind == "ab_test") {
    // Per-lane totals across every policy instance that served the enclave
    // (initial + each promote/rollback swap-in). Lane membership is a pure
    // tid hash, so base + canary partition the run's totals exactly.
    AbTestPolicy::LaneCounters base;
    AbTestPolicy::LaneCounters canary;
    const auto add = [&base, &canary](Policy* p) {
      if (auto* ab = dynamic_cast<AbTestPolicy*>(p)) {
        base.scheduled += ab->base_counters().scheduled;
        base.completed += ab->base_counters().completed;
        canary.scheduled += ab->canary_counters().scheduled;
        canary.completed += ab->canary_counters().completed;
      }
    };
    for (const std::unique_ptr<Policy>& p : retired_policies_) {
      add(p.get());
    }
    if (process_ != nullptr) {
      add(process_->policy());
    }
    result->exact["ab_base_scheduled"] = static_cast<int64_t>(base.scheduled);
    result->exact["ab_base_completed"] = static_cast<int64_t>(base.completed);
    result->exact["ab_canary_scheduled"] = static_cast<int64_t>(canary.scheduled);
    result->exact["ab_canary_completed"] = static_cast<int64_t>(canary.completed);
    result->exact["policy_swaps"] =
        process_ != nullptr ? static_cast<int64_t>(process_->policy_swaps()) : 0;
  }
  if (spec_.policy.kind == "predictive_shinjuku" && process_ != nullptr) {
    // Pin the predictor's routing and the backstop's work exactly: a
    // regression in classification or the demotion path shifts these
    // counters even when the latency envelopes still pass.
    if (auto* pred = dynamic_cast<PredictiveShinjukuPolicy*>(process_->policy())) {
      result->exact["predicted_short"] =
          static_cast<int64_t>(pred->predicted_short());
      result->exact["predicted_long"] =
          static_cast<int64_t>(pred->predicted_long());
      result->exact["backstop_demotions"] =
          static_cast<int64_t>(pred->backstop_demotions());
      result->exact["predictive_preemptions"] =
          static_cast<int64_t>(pred->preemptions());
    }
  }
  result->exact["enclave_destroyed"] =
      enclave_ != nullptr && enclave_->destroyed() ? 1 : 0;
  if (checker_ != nullptr) {
    result->exact["invariants_ok"] = checker_->ok() ? 1 : 0;
    result->exact["invariant_violations"] =
        static_cast<int64_t>(checker_->violations().size());
    result->violations = checker_->violations();
  }
}

void MachineSim::CollectFleet(scenario::ScenarioResult* result, int index) {
  const std::string prefix = "m" + std::to_string(index) + "_";
  result->exact[prefix + "completed"] = server_->completed();
  result->exact[prefix + "dropped"] = server_->dropped();
  result->exact[prefix + "enclave_destroyed"] =
      enclave_ != nullptr && enclave_->destroyed() ? 1 : 0;
  if (with_antagonist_) {
    result->envelopes[prefix + "antagonist_share"] =
        antagonist_->CpuShare(warmup_, ctx_->now(), cpu_count_);
  }
  if (ctx_->fault_injector() != nullptr) {
    const FaultInjector* injector = ctx_->fault_injector();
    for (int k = 0; k < kNumFaultKinds; ++k) {
      const FaultKind kind = static_cast<FaultKind>(k);
      result->exact[std::string("faults_") + ToString(kind)] +=
          static_cast<int64_t>(injector->injected(kind));
    }
  }
  if (checker_ != nullptr) {
    if (!checker_->ok()) {
      result->exact["invariants_ok"] = 0;
    }
    result->exact["invariant_violations"] +=
        static_cast<int64_t>(checker_->violations().size());
    for (const std::string& v : checker_->violations()) {
      result->violations.push_back(prefix.substr(0, prefix.size() - 1) + ": " + v);
    }
  }
}

}  // namespace fleet
}  // namespace gs
