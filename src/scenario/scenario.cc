#include "src/scenario/scenario.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>

namespace gs {
namespace scenario {
namespace {

// Strict object reader: every getter marks its key consumed; Finish() rejects
// anything left over, so typos surface as `unknown key "section.key"` instead
// of silently running a default configuration.
class ObjectReader {
 public:
  ObjectReader(const JsonValue& value, std::string path, std::string* error)
      : value_(value), path_(std::move(path)), error_(error) {
    if (!value_.is_object() && error_->empty()) {
      *error_ = Quote(path_) + " must be an object";
    }
  }

  bool ok() const { return error_->empty(); }
  bool Has(const char* key) const { return value_.object.count(key) > 0; }

  void String(const char* key, std::string* out) {
    const JsonValue* v = Take(key);
    if (v == nullptr) {
      return;
    }
    if (!v->is_string()) {
      Fail(Quote(Path(key)) + " must be a string");
      return;
    }
    *out = v->string;
  }

  void Double(const char* key, double* out) {
    const JsonValue* v = Take(key);
    if (v == nullptr) {
      return;
    }
    if (!v->is_number()) {
      Fail(Quote(Path(key)) + " must be a number");
      return;
    }
    *out = v->number;
  }

  void Int(const char* key, int* out) {
    double d = 0;
    const size_t before = consumed_.size();
    Double(key, &d);
    if (!ok() || consumed_.size() == before) {
      return;  // error or key absent
    }
    *out = static_cast<int>(d);
  }

  void UInt64(const char* key, uint64_t* out) {
    double d = 0;
    const size_t before = consumed_.size();
    Double(key, &d);
    if (!ok() || consumed_.size() == before) {
      return;
    }
    *out = static_cast<uint64_t>(d);
  }

  void Bool(const char* key, bool* out) {
    const JsonValue* v = Take(key);
    if (v == nullptr) {
      return;
    }
    if (v->type != JsonValue::Type::kBool) {
      Fail(Quote(Path(key)) + " must be a boolean");
      return;
    }
    *out = v->boolean;
  }

  // Nested object/array member; nullptr when absent (defaults apply).
  const JsonValue* Section(const char* key) { return Take(key); }

  std::string Path(const char* key) const {
    return path_.empty() ? key : path_ + "." + key;
  }

  void Require(const char* key) {
    if (ok() && !Has(key)) {
      Fail("missing required key " + Quote(Path(key)));
    }
  }

  // Unknown-key check; call after all getters.
  void Finish() {
    if (!ok()) {
      return;
    }
    for (const auto& [key, unused] : value_.object) {
      bool known = false;
      for (const std::string& c : consumed_) {
        if (c == key) {
          known = true;
          break;
        }
      }
      if (!known) {
        Fail("unknown key " + Quote(Path(key.c_str())));
        return;
      }
    }
  }

  void Fail(const std::string& message) {
    if (error_->empty()) {
      *error_ = message;
    }
  }

  static std::string Quote(const std::string& s) { return "\"" + s + "\""; }

 private:
  const JsonValue* Take(const char* key) {
    if (!ok()) {
      return nullptr;
    }
    const JsonValue* v = value_.Find(key);
    if (v != nullptr) {
      consumed_.push_back(key);
    }
    return v;
  }

  const JsonValue& value_;
  std::string path_;
  std::string* error_;
  std::vector<std::string> consumed_;
};

bool OneOf(const std::string& value, std::span<const char* const> allowed) {
  for (const char* a : allowed) {
    if (value == a) {
      return true;
    }
  }
  return false;
}

std::string BadEnum(const std::string& path, const std::string& value,
                    std::span<const char* const> allowed) {
  std::string msg = ObjectReader::Quote(path) + ": unknown value " +
                    ObjectReader::Quote(value) + " (expected one of";
  for (const char* a : allowed) {
    msg += " ";
    msg += a;
  }
  msg += ")";
  return msg;
}

void ParseTopology(const JsonValue& v, TopologySpec* out, std::string* error) {
  ObjectReader r(v, "topology", error);
  r.String("preset", &out->preset);
  static constexpr std::initializer_list<const char*> kPresets = {
      "custom", "e5_24", "skylake112", "haswell72", "rome256"};
  if (r.ok() && !OneOf(out->preset, kPresets)) {
    r.Fail(BadEnum("topology.preset", out->preset, kPresets));
  }
  if (r.ok() && out->preset != "custom") {
    for (const char* dim : {"sockets", "cores_per_socket", "smt", "cores_per_ccx"}) {
      if (r.Has(dim)) {
        r.Fail(ObjectReader::Quote(std::string("topology.") + dim) +
               " is only valid with preset \"custom\"");
      }
    }
  }
  r.Int("sockets", &out->sockets);
  r.Int("cores_per_socket", &out->cores_per_socket);
  r.Int("smt", &out->smt);
  r.Int("cores_per_ccx", &out->cores_per_ccx);
  if (r.ok() && out->preset == "custom" &&
      (out->sockets < 1 || out->cores_per_socket < 1 || out->smt < 1)) {
    r.Fail("\"topology\": sockets, cores_per_socket and smt must be >= 1");
  }
  r.Finish();
}

// Section parsers take the section's full path (e.g. "policy" or
// "fleet.overrides[2].policy") so error messages stay exact wherever the
// section appears.
void ParsePolicy(const JsonValue& v, const std::string& path, PolicySpec* out,
                 std::string* error) {
  ObjectReader r(v, path, error);
  r.String("kind", &out->kind);
  if (r.ok() && !OneOf(out->kind, kPolicyKinds)) {
    r.Fail(BadEnum(r.Path("kind"), out->kind, kPolicyKinds));
  }
  r.Int("global_cpu", &out->global_cpu);
  r.Double("timeslice_us", &out->timeslice_us);
  r.Double("probe_interval_us", &out->probe_interval_us);
  r.Double("long_threshold_us", &out->long_threshold_us);
  r.Int("backstop_multiplier", &out->backstop_multiplier);
  r.Int("num_priorities", &out->num_priorities);
  r.Double("base_timeslice_ms", &out->base_timeslice_ms);
  r.Double("min_timeslice_ms", &out->min_timeslice_ms);
  r.Int("worker_priority", &out->worker_priority);
  r.Int("antagonist_priority", &out->antagonist_priority);
  r.Double("vm_slice_ms", &out->vm_slice_ms);
  if (r.ok() && (out->num_priorities < 1 || out->num_priorities > 64)) {
    r.Fail(ObjectReader::Quote(r.Path("num_priorities")) + " must be in [1, 64]");
  }
  if (r.ok() && out->min_timeslice_ms > out->base_timeslice_ms) {
    r.Fail(ObjectReader::Quote(r.Path("min_timeslice_ms")) + " must be <= " +
           ObjectReader::Quote(r.Path("base_timeslice_ms")));
  }
  if (r.ok() && out->probe_interval_us < 0) {
    r.Fail(ObjectReader::Quote(r.Path("probe_interval_us")) + " must be >= 0");
  }
  if (r.ok() && out->long_threshold_us <= 0) {
    r.Fail(ObjectReader::Quote(r.Path("long_threshold_us")) + " must be > 0");
  }
  if (r.ok() && out->backstop_multiplier < 1) {
    r.Fail(ObjectReader::Quote(r.Path("backstop_multiplier")) + " must be >= 1");
  }
  r.Finish();
}

void ParseService(const JsonValue& v, const std::string& path, ServiceSpec* out,
                  std::string* error) {
  ObjectReader r(v, path, error);
  r.String("model", &out->model);
  static constexpr std::initializer_list<const char*> kModels = {"fixed", "bimodal",
                                                                 "exponential"};
  if (r.ok() && !OneOf(out->model, kModels)) {
    r.Fail(BadEnum(r.Path("model"), out->model, kModels));
  }
  r.Double("fixed_us", &out->fixed_us);
  r.Double("short_us", &out->short_us);
  r.Double("long_us", &out->long_us);
  r.Double("p_long", &out->p_long);
  r.Double("mean_us", &out->mean_us);
  if (r.ok() && (out->p_long < 0 || out->p_long > 1)) {
    r.Fail(ObjectReader::Quote(r.Path("p_long")) + " must be in [0, 1]");
  }
  r.Finish();
}

void ParsePhases(const JsonValue& v, const std::string& phases_path,
                 std::vector<LoadPhase>* out, std::string* error) {
  if (!v.is_array()) {
    if (error->empty()) {
      *error = ObjectReader::Quote(phases_path) + " must be an array";
    }
    return;
  }
  out->clear();
  for (size_t i = 0; i < v.array.size(); ++i) {
    const std::string path = phases_path + "[" + std::to_string(i) + "]";
    ObjectReader r(v.array[i], path, error);
    LoadPhase phase;
    r.Require("duration_ms");
    r.Double("duration_ms", &phase.duration_ms);
    r.Double("qps", &phase.qps);
    if (r.ok() && phase.duration_ms <= 0) {
      r.Fail(ObjectReader::Quote(path + ".duration_ms") + " must be > 0");
    }
    if (r.ok() && phase.qps < 0) {
      r.Fail(ObjectReader::Quote(path + ".qps") + " must be >= 0");
    }
    r.Finish();
    if (!error->empty()) {
      return;
    }
    out->push_back(phase);
  }
}

void ParseWorkload(const JsonValue& v, const std::string& path, WorkloadSpec* out,
                   std::string* error) {
  ObjectReader r(v, path, error);
  r.String("kind", &out->kind);
  static constexpr std::initializer_list<const char*> kKinds = {"request_service", "vm"};
  if (r.ok() && !OneOf(out->kind, kKinds)) {
    r.Fail(BadEnum(r.Path("kind"), out->kind, kKinds));
  }
  r.Int("num_workers", &out->num_workers);
  r.Int("fanout", &out->fanout);
  if (const JsonValue* service = r.Section("service")) {
    ParseService(*service, r.Path("service"), &out->service, error);
  }
  if (const JsonValue* phases = r.Section("phases")) {
    ParsePhases(*phases, r.Path("phases"), &out->phases, error);
  }
  r.Int("num_vms", &out->num_vms);
  r.Int("vcpus_per_vm", &out->vcpus_per_vm);
  r.Double("work_per_vcpu_ms", &out->work_per_vcpu_ms);
  if (r.ok() && out->num_workers < 1) {
    r.Fail(ObjectReader::Quote(r.Path("num_workers")) + " must be >= 1");
  }
  if (r.ok() && out->fanout < 1) {
    r.Fail(ObjectReader::Quote(r.Path("fanout")) + " must be >= 1");
  }
  if (r.ok() && out->kind == "vm" && (out->num_vms < 1 || out->vcpus_per_vm < 1)) {
    r.Fail(ObjectReader::Quote(path) + ": num_vms and vcpus_per_vm must be >= 1");
  }
  r.Finish();
}

void ParseAntagonist(const JsonValue& v, const std::string& path, AntagonistSpec* out,
                     std::string* error) {
  ObjectReader r(v, path, error);
  r.Int("threads", &out->threads);
  r.String("placement", &out->placement);
  static constexpr std::initializer_list<const char*> kPlacements = {"cfs", "enclave"};
  if (r.ok() && !OneOf(out->placement, kPlacements)) {
    r.Fail(BadEnum(r.Path("placement"), out->placement, kPlacements));
  }
  r.Int("nice", &out->nice);
  r.Double("chunk_us", &out->chunk_us);
  if (r.ok() && out->threads < 0) {
    r.Fail(ObjectReader::Quote(r.Path("threads")) + " must be >= 0");
  }
  if (r.ok() && (out->nice < -20 || out->nice > 19)) {
    r.Fail(ObjectReader::Quote(r.Path("nice")) + " must be in [-20, 19]");
  }
  r.Finish();
}

void ParseFaults(const JsonValue& v, const std::string& section_path, FaultsSpec* out,
                 std::string* error) {
  ObjectReader r(v, section_path, error);
  r.Double("window_start_ms", &out->window_start_ms);
  r.Double("window_end_ms", &out->window_end_ms);
  r.Double("ipi_delay_probability", &out->ipi_delay_probability);
  r.Double("ipi_drop_probability", &out->ipi_drop_probability);
  r.Double("msg_drop_probability", &out->msg_drop_probability);
  r.Double("estale_probability", &out->estale_probability);
  for (const char* p : {"ipi_delay_probability", "ipi_drop_probability",
                        "msg_drop_probability", "estale_probability"}) {
    const JsonValue* pv = v.Find(p);
    if (r.ok() && pv != nullptr && pv->is_number() &&
        (pv->number < 0 || pv->number > 1)) {
      r.Fail(ObjectReader::Quote(r.Path(p)) + " must be in [0, 1]");
    }
  }
  if (const JsonValue* plan = r.Section("plan")) {
    if (!plan->is_array()) {
      r.Fail(ObjectReader::Quote(r.Path("plan")) + " must be an array");
    } else {
      out->plan.clear();
      for (size_t i = 0; i < plan->array.size(); ++i) {
        const std::string path = r.Path("plan") + "[" + std::to_string(i) + "]";
        ObjectReader e(plan->array[i], path, error);
        FaultEventSpec event;
        e.Require("kind");
        e.String("kind", &event.kind);
        static constexpr std::initializer_list<const char*> kKinds = {
            "agent_crash", "agent_stall", "agent_recover", "enclave_destroy"};
        if (e.ok() && !OneOf(event.kind, kKinds)) {
          e.Fail(BadEnum(path + ".kind", event.kind, kKinds));
        }
        e.Double("at_ms", &event.at_ms);
        if (e.ok() && event.at_ms < 0) {
          e.Fail(ObjectReader::Quote(path + ".at_ms") + " must be >= 0");
        }
        e.Finish();
        if (!error->empty()) {
          return;
        }
        out->plan.push_back(event);
      }
    }
  }
  r.Finish();
}

void ParseEnclave(const JsonValue& v, const std::string& path, EnclaveSpec* out,
                  std::string* error) {
  ObjectReader r(v, path, error);
  r.Int("cpu_first", &out->cpu_first);
  r.Int("cpu_count", &out->cpu_count);
  r.Double("watchdog_timeout_ms", &out->watchdog_timeout_ms);
  r.Double("watchdog_period_ms", &out->watchdog_period_ms);
  if (r.ok() && out->cpu_first < 0) {
    r.Fail(ObjectReader::Quote(r.Path("cpu_first")) + " must be >= 0");
  }
  if (r.ok() && out->watchdog_timeout_ms < 0) {
    r.Fail(ObjectReader::Quote(r.Path("watchdog_timeout_ms")) + " must be >= 0");
  }
  r.Finish();
}

void ParseInvariants(const JsonValue& v, InvariantsSpec* out, std::string* error) {
  ObjectReader r(v, "invariants", error);
  r.Bool("enabled", &out->enabled);
  r.Double("period_us", &out->period_us);
  r.Double("ghost_starvation_bound_ms", &out->ghost_starvation_bound_ms);
  if (r.ok() && out->period_us <= 0) {
    r.Fail("\"invariants.period_us\" must be > 0");
  }
  r.Finish();
}

void ParseAbTest(const JsonValue& v, AbTestSpec* out, std::string* error) {
  ObjectReader r(v, "ab_test", error);
  if (const JsonValue* canary = r.Section("canary")) {
    ObjectReader c(*canary, r.Path("canary"), error);
    c.Int("percent", &out->canary.percent);
    c.Bool("lifo", &out->canary.lifo);
    if (c.ok() && (out->canary.percent < 0 || out->canary.percent > 100)) {
      c.Fail(ObjectReader::Quote(c.Path("percent")) + " must be in [0, 100]");
    }
    c.Finish();
  }
  r.Double("promote_at_ms", &out->promote_at_ms);
  r.Double("rollback_at_ms", &out->rollback_at_ms);
  if (r.ok() && out->promote_at_ms >= 0 && out->rollback_at_ms >= 0 &&
      out->rollback_at_ms <= out->promote_at_ms) {
    r.Fail(ObjectReader::Quote(r.Path("rollback_at_ms")) + " must be > " +
           ObjectReader::Quote(r.Path("promote_at_ms")) +
           " when both are scheduled");
  }
  r.Finish();
}

void ParseFuzz(const JsonValue& v, FuzzSpec* out, std::string* error) {
  ObjectReader r(v, "fuzz", error);
  r.Int("cases", &out->cases);
  r.UInt64("base_seed", &out->base_seed);
  r.Int("schedules_per_case", &out->schedules_per_case);
  if (r.ok() && out->cases < 1) {
    r.Fail(ObjectReader::Quote(r.Path("cases")) + " must be >= 1");
  }
  if (r.ok() && out->schedules_per_case < 1) {
    r.Fail(ObjectReader::Quote(r.Path("schedules_per_case")) + " must be >= 1");
  }
  r.Finish();
}

void ParseBalancer(const JsonValue& v, const std::string& path, BalancerSpec* out,
                   std::string* error) {
  ObjectReader r(v, path, error);
  r.String("policy", &out->policy);
  static constexpr std::initializer_list<const char*> kPolicies = {
      "round_robin", "least_loaded", "consistent_hash"};
  if (r.ok() && !OneOf(out->policy, kPolicies)) {
    r.Fail(BadEnum(r.Path("policy"), out->policy, kPolicies));
  }
  r.Int("shed_outstanding", &out->shed_outstanding);
  r.Int("virtual_nodes", &out->virtual_nodes);
  if (r.ok() && out->shed_outstanding < 0) {
    r.Fail(ObjectReader::Quote(r.Path("shed_outstanding")) + " must be >= 0");
  }
  if (r.ok() && (out->virtual_nodes < 1 || out->virtual_nodes > 512)) {
    r.Fail(ObjectReader::Quote(r.Path("virtual_nodes")) + " must be in [1, 512]");
  }
  r.Finish();
}

void ParseNetwork(const JsonValue& v, const std::string& section_path, int machines,
                  NetworkSpec* out, std::string* error) {
  ObjectReader r(v, section_path, error);
  r.Double("latency_us", &out->latency_us);
  r.Double("bandwidth_gbps", &out->bandwidth_gbps);
  r.Double("request_bytes", &out->request_bytes);
  r.Double("response_bytes", &out->response_bytes);
  if (r.ok() && out->latency_us <= 0) {
    r.Fail(ObjectReader::Quote(r.Path("latency_us")) + " must be > 0");
  }
  if (r.ok() && out->bandwidth_gbps <= 0) {
    r.Fail(ObjectReader::Quote(r.Path("bandwidth_gbps")) + " must be > 0");
  }
  if (r.ok() && (out->request_bytes < 0 || out->response_bytes < 0)) {
    r.Fail(ObjectReader::Quote(section_path) +
           ": request_bytes and response_bytes must be >= 0");
  }
  if (const JsonValue* links = r.Section("links")) {
    if (!links->is_array()) {
      r.Fail(ObjectReader::Quote(r.Path("links")) + " must be an array");
    } else {
      out->links.clear();
      for (size_t i = 0; i < links->array.size(); ++i) {
        const std::string path = r.Path("links") + "[" + std::to_string(i) + "]";
        ObjectReader l(links->array[i], path, error);
        LinkSpec link;
        l.Require("from");
        l.Require("to");
        l.Int("from", &link.from);
        l.Int("to", &link.to);
        const bool has_latency = l.Has("latency_us");
        const bool has_bandwidth = l.Has("bandwidth_gbps");
        l.Double("latency_us", &link.latency_us);
        l.Double("bandwidth_gbps", &link.bandwidth_gbps);
        const auto check_node = [&](const char* name, int node) {
          if (l.ok() && (node < -1 || node >= machines)) {
            l.Fail(ObjectReader::Quote(path + "." + name) +
                   " must be a machine index in [0, " + std::to_string(machines) +
                   ") or -1 for the front end");
          }
        };
        check_node("from", link.from);
        check_node("to", link.to);
        if (l.ok() && link.from == link.to) {
          l.Fail(ObjectReader::Quote(path) + ": from and to must differ");
        }
        if (l.ok() && has_latency && link.latency_us <= 0) {
          l.Fail(ObjectReader::Quote(path + ".latency_us") +
                 " must be > 0 (omit it to inherit the network default)");
        }
        if (l.ok() && has_bandwidth && link.bandwidth_gbps <= 0) {
          l.Fail(ObjectReader::Quote(path + ".bandwidth_gbps") +
                 " must be > 0 (omit it to inherit the network default)");
        }
        l.Finish();
        if (!error->empty()) {
          return;
        }
        out->links.push_back(link);
      }
    }
  }
  r.Finish();
}

// Fleet parsing happens after the base sections, so each override can start
// from a copy of the already-merged base section.
void ParseFleet(const JsonValue& v, const ScenarioSpec& base, FleetSpec* out,
                std::string* error) {
  ObjectReader r(v, "fleet", error);
  r.Int("machines", &out->machines);
  r.Int("sessions", &out->sessions);
  r.Int("rpc_fanout", &out->rpc_fanout);
  if (r.ok() && (out->machines < 1 || out->machines > 64)) {
    r.Fail(ObjectReader::Quote(r.Path("machines")) + " must be in [1, 64]");
  }
  if (r.ok() && out->sessions < 1) {
    r.Fail(ObjectReader::Quote(r.Path("sessions")) + " must be >= 1");
  }
  if (r.ok() && (out->rpc_fanout < 1 || out->rpc_fanout > out->machines)) {
    r.Fail(ObjectReader::Quote(r.Path("rpc_fanout")) +
           " must be in [1, fleet.machines]");
  }
  if (const JsonValue* balancer = r.Section("balancer")) {
    ParseBalancer(*balancer, r.Path("balancer"), &out->balancer, error);
  }
  if (const JsonValue* network = r.Section("network")) {
    ParseNetwork(*network, r.Path("network"), out->machines, &out->network, error);
  }
  if (const JsonValue* overrides = r.Section("overrides")) {
    if (!overrides->is_array()) {
      r.Fail(ObjectReader::Quote(r.Path("overrides")) + " must be an array");
    } else {
      out->overrides.clear();
      for (size_t i = 0; i < overrides->array.size(); ++i) {
        const std::string path = r.Path("overrides") + "[" + std::to_string(i) + "]";
        ObjectReader o(overrides->array[i], path, error);
        MachineOverrideSpec override_spec;
        o.Require("machine");
        o.Int("machine", &override_spec.machine);
        if (o.ok() &&
            (override_spec.machine < 0 || override_spec.machine >= out->machines)) {
          o.Fail(ObjectReader::Quote(path + ".machine") + " must be in [0, " +
                 std::to_string(out->machines) + ")");
        }
        if (const JsonValue* s = o.Section("policy")) {
          override_spec.policy = base.policy;
          ParsePolicy(*s, path + ".policy", &*override_spec.policy, error);
        }
        if (const JsonValue* s = o.Section("enclave")) {
          override_spec.enclave = base.enclave;
          ParseEnclave(*s, path + ".enclave", &*override_spec.enclave, error);
        }
        if (const JsonValue* s = o.Section("workload")) {
          override_spec.workload = base.workload;
          ParseWorkload(*s, path + ".workload", &*override_spec.workload, error);
        }
        if (const JsonValue* s = o.Section("antagonist")) {
          override_spec.antagonist = base.antagonist;
          ParseAntagonist(*s, path + ".antagonist", &*override_spec.antagonist, error);
        }
        if (const JsonValue* s = o.Section("faults")) {
          override_spec.faults = base.faults;
          ParseFaults(*s, path + ".faults", &*override_spec.faults, error);
        }
        o.Finish();
        if (!error->empty()) {
          return;
        }
        out->overrides.push_back(std::move(override_spec));
      }
    }
  }
  if (const JsonValue* plan = r.Section("plan")) {
    if (!plan->is_array()) {
      r.Fail(ObjectReader::Quote(r.Path("plan")) + " must be an array");
    } else {
      out->plan.clear();
      for (size_t i = 0; i < plan->array.size(); ++i) {
        const std::string path = r.Path("plan") + "[" + std::to_string(i) + "]";
        ObjectReader e(plan->array[i], path, error);
        FleetEventSpec event;
        e.Require("kind");
        e.String("kind", &event.kind);
        static constexpr std::initializer_list<const char*> kKinds = {
            "agent_crash", "agent_stall", "agent_recover", "enclave_destroy",
            "lb_drain",    "lb_undrain",  "link_down",     "link_up"};
        if (e.ok() && !OneOf(event.kind, kKinds)) {
          e.Fail(BadEnum(path + ".kind", event.kind, kKinds));
        }
        e.Double("at_ms", &event.at_ms);
        e.Int("machine", &event.machine);
        if (e.ok() && event.at_ms < 0) {
          e.Fail(ObjectReader::Quote(path + ".at_ms") + " must be >= 0");
        }
        if (e.ok() && (event.machine < 0 || event.machine >= out->machines)) {
          e.Fail(ObjectReader::Quote(path + ".machine") + " must be in [0, " +
                 std::to_string(out->machines) + ")");
        }
        e.Finish();
        if (!error->empty()) {
          return;
        }
        out->plan.push_back(event);
      }
    }
  }
  r.Finish();
}

}  // namespace

std::optional<ScenarioSpec> ScenarioSpec::Parse(std::string_view text,
                                                std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  error->clear();
  std::string json_error;
  std::optional<JsonValue> doc = JsonValue::Parse(text, &json_error);
  if (!doc.has_value()) {
    *error = json_error.empty() ? "invalid JSON" : json_error;
    return std::nullopt;
  }

  ScenarioSpec spec;
  ObjectReader r(*doc, "", error);
  r.Require("name");
  r.String("name", &spec.name);
  r.String("description", &spec.description);
  r.UInt64("seed", &spec.seed);
  r.Double("warmup_ms", &spec.warmup_ms);
  r.Double("measure_ms", &spec.measure_ms);
  r.Double("drain_ms", &spec.drain_ms);
  if (r.ok() && spec.name.empty()) {
    r.Fail("\"name\" must be a non-empty string");
  }
  if (r.ok() && (spec.warmup_ms < 0 || spec.measure_ms <= 0 || spec.drain_ms < 0)) {
    r.Fail("\"measure_ms\" must be > 0 and \"warmup_ms\"/\"drain_ms\" >= 0");
  }
  if (const JsonValue* v = r.Section("topology")) {
    ParseTopology(*v, &spec.topology, error);
  }
  if (const JsonValue* v = r.Section("policy")) {
    ParsePolicy(*v, "policy", &spec.policy, error);
  }
  if (const JsonValue* v = r.Section("enclave")) {
    ParseEnclave(*v, "enclave", &spec.enclave, error);
  }
  if (const JsonValue* v = r.Section("workload")) {
    ParseWorkload(*v, "workload", &spec.workload, error);
  }
  if (const JsonValue* v = r.Section("antagonist")) {
    ParseAntagonist(*v, "antagonist", &spec.antagonist, error);
  }
  if (const JsonValue* v = r.Section("faults")) {
    ParseFaults(*v, "faults", &spec.faults, error);
  }
  if (const JsonValue* v = r.Section("invariants")) {
    ParseInvariants(*v, &spec.invariants, error);
  }
  if (const JsonValue* v = r.Section("ab_test")) {
    spec.ab_test.emplace();
    ParseAbTest(*v, &*spec.ab_test, error);
    if (r.ok() && spec.policy.kind != "ab_test") {
      r.Fail("\"ab_test\" requires \"policy.kind\" == \"ab_test\"");
    }
  }
  if (const JsonValue* v = r.Section("fuzz")) {
    spec.fuzz.emplace();
    ParseFuzz(*v, &*spec.fuzz, error);
    if (r.ok() && spec.ab_test.has_value()) {
      r.Fail("\"fuzz\" cannot be combined with \"ab_test\"");
    }
  }
  // Fleet comes last: overrides merge over the fully-parsed base sections.
  if (const JsonValue* v = r.Section("fleet")) {
    spec.fleet.emplace();
    ParseFleet(*v, spec, &*spec.fleet, error);
    if (r.ok() && spec.workload.kind != "request_service") {
      r.Fail("\"fleet\" requires \"workload.kind\" == \"request_service\"");
    }
    if (r.ok() && spec.workload.fanout != 1) {
      r.Fail("\"fleet\" requires \"workload.fanout\" == 1 "
             "(use \"fleet.rpc_fanout\" for cross-machine fan-out)");
    }
    if (r.ok() && spec.policy.kind == "vm_core_sched") {
      r.Fail("\"fleet\" cannot be combined with \"policy.kind\" \"vm_core_sched\"");
    }
    if (r.ok() && (spec.ab_test.has_value() || spec.policy.kind == "ab_test")) {
      r.Fail("\"fleet\" cannot be combined with \"ab_test\"");
    }
    if (r.ok() && spec.fuzz.has_value()) {
      r.Fail("\"fleet\" cannot be combined with \"fuzz\"");
    }
    if (r.ok()) {
      for (size_t i = 0; i < spec.fleet->overrides.size(); ++i) {
        const MachineOverrideSpec& o = spec.fleet->overrides[i];
        const std::string path = "fleet.overrides[" + std::to_string(i) + "]";
        if (o.workload.has_value() && (o.workload->kind != "request_service" ||
                                       o.workload->fanout != 1)) {
          r.Fail(ObjectReader::Quote(path + ".workload") +
                 " must keep kind \"request_service\" and fanout 1 in a fleet");
          break;
        }
        if (o.policy.has_value() && o.policy->kind == "vm_core_sched") {
          r.Fail(ObjectReader::Quote(path + ".policy.kind") +
                 " cannot be \"vm_core_sched\" in a fleet");
          break;
        }
      }
    }
  }
  r.Finish();
  if (!error->empty()) {
    return std::nullopt;
  }
  return spec;
}

namespace {

// Section renderers shared between the top-level spec and fleet overrides;
// every parsed field is emitted, so parse -> render -> parse is a fixed point.
void RenderPolicy(JsonWriter& w, const PolicySpec& policy) {
  w.BeginObject();
  w.KV("kind", policy.kind);
  w.KV("global_cpu", policy.global_cpu);
  w.KV("timeslice_us", policy.timeslice_us);
  w.KV("probe_interval_us", policy.probe_interval_us);
  w.KV("long_threshold_us", policy.long_threshold_us);
  w.KV("backstop_multiplier", policy.backstop_multiplier);
  w.KV("num_priorities", policy.num_priorities);
  w.KV("base_timeslice_ms", policy.base_timeslice_ms);
  w.KV("min_timeslice_ms", policy.min_timeslice_ms);
  w.KV("worker_priority", policy.worker_priority);
  w.KV("antagonist_priority", policy.antagonist_priority);
  w.KV("vm_slice_ms", policy.vm_slice_ms);
  w.EndObject();
}

void RenderEnclave(JsonWriter& w, const EnclaveSpec& enclave) {
  w.BeginObject();
  w.KV("cpu_first", enclave.cpu_first);
  w.KV("cpu_count", enclave.cpu_count);
  w.KV("watchdog_timeout_ms", enclave.watchdog_timeout_ms);
  w.KV("watchdog_period_ms", enclave.watchdog_period_ms);
  w.EndObject();
}

void RenderWorkload(JsonWriter& w, const WorkloadSpec& workload) {
  w.BeginObject();
  w.KV("kind", workload.kind);
  w.KV("num_workers", workload.num_workers);
  w.KV("fanout", workload.fanout);
  w.Key("service");
  w.BeginObject();
  w.KV("model", workload.service.model);
  w.KV("fixed_us", workload.service.fixed_us);
  w.KV("short_us", workload.service.short_us);
  w.KV("long_us", workload.service.long_us);
  w.KV("p_long", workload.service.p_long);
  w.KV("mean_us", workload.service.mean_us);
  w.EndObject();
  w.Key("phases");
  w.BeginArray();
  for (const LoadPhase& phase : workload.phases) {
    w.BeginObject();
    w.KV("duration_ms", phase.duration_ms);
    w.KV("qps", phase.qps);
    w.EndObject();
  }
  w.EndArray();
  w.KV("num_vms", workload.num_vms);
  w.KV("vcpus_per_vm", workload.vcpus_per_vm);
  w.KV("work_per_vcpu_ms", workload.work_per_vcpu_ms);
  w.EndObject();
}

void RenderAntagonist(JsonWriter& w, const AntagonistSpec& antagonist) {
  w.BeginObject();
  w.KV("threads", antagonist.threads);
  w.KV("placement", antagonist.placement);
  w.KV("nice", antagonist.nice);
  w.KV("chunk_us", antagonist.chunk_us);
  w.EndObject();
}

void RenderFaults(JsonWriter& w, const FaultsSpec& faults) {
  w.BeginObject();
  w.KV("window_start_ms", faults.window_start_ms);
  w.KV("window_end_ms", faults.window_end_ms);
  w.KV("ipi_delay_probability", faults.ipi_delay_probability);
  w.KV("ipi_drop_probability", faults.ipi_drop_probability);
  w.KV("msg_drop_probability", faults.msg_drop_probability);
  w.KV("estale_probability", faults.estale_probability);
  w.Key("plan");
  w.BeginArray();
  for (const FaultEventSpec& event : faults.plan) {
    w.BeginObject();
    w.KV("at_ms", event.at_ms);
    w.KV("kind", event.kind);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

void RenderFleet(JsonWriter& w, const FleetSpec& fleet) {
  w.BeginObject();
  w.KV("machines", fleet.machines);
  w.KV("sessions", fleet.sessions);
  w.KV("rpc_fanout", fleet.rpc_fanout);
  w.Key("balancer");
  w.BeginObject();
  w.KV("policy", fleet.balancer.policy);
  w.KV("shed_outstanding", fleet.balancer.shed_outstanding);
  w.KV("virtual_nodes", fleet.balancer.virtual_nodes);
  w.EndObject();
  w.Key("network");
  w.BeginObject();
  w.KV("latency_us", fleet.network.latency_us);
  w.KV("bandwidth_gbps", fleet.network.bandwidth_gbps);
  w.KV("request_bytes", fleet.network.request_bytes);
  w.KV("response_bytes", fleet.network.response_bytes);
  w.Key("links");
  w.BeginArray();
  for (const LinkSpec& link : fleet.network.links) {
    w.BeginObject();
    w.KV("from", link.from);
    w.KV("to", link.to);
    // The sentinel -1 means "inherit"; only explicit overrides are rendered,
    // since the parser rejects non-positive explicit values.
    if (link.latency_us >= 0) {
      w.KV("latency_us", link.latency_us);
    }
    if (link.bandwidth_gbps >= 0) {
      w.KV("bandwidth_gbps", link.bandwidth_gbps);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.Key("overrides");
  w.BeginArray();
  for (const MachineOverrideSpec& o : fleet.overrides) {
    w.BeginObject();
    w.KV("machine", o.machine);
    if (o.policy.has_value()) {
      w.Key("policy");
      RenderPolicy(w, *o.policy);
    }
    if (o.enclave.has_value()) {
      w.Key("enclave");
      RenderEnclave(w, *o.enclave);
    }
    if (o.workload.has_value()) {
      w.Key("workload");
      RenderWorkload(w, *o.workload);
    }
    if (o.antagonist.has_value()) {
      w.Key("antagonist");
      RenderAntagonist(w, *o.antagonist);
    }
    if (o.faults.has_value()) {
      w.Key("faults");
      RenderFaults(w, *o.faults);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("plan");
  w.BeginArray();
  for (const FleetEventSpec& event : fleet.plan) {
    w.BeginObject();
    w.KV("at_ms", event.at_ms);
    w.KV("kind", event.kind);
    w.KV("machine", event.machine);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

}  // namespace

std::string ScenarioSpec::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", name);
  w.KV("description", description);
  w.KV("seed", seed);
  w.KV("warmup_ms", warmup_ms);
  w.KV("measure_ms", measure_ms);
  w.KV("drain_ms", drain_ms);

  w.Key("topology");
  w.BeginObject();
  w.KV("preset", topology.preset);
  if (topology.preset == "custom") {
    w.KV("sockets", topology.sockets);
    w.KV("cores_per_socket", topology.cores_per_socket);
    w.KV("smt", topology.smt);
    w.KV("cores_per_ccx", topology.cores_per_ccx);
  }
  w.EndObject();

  w.Key("policy");
  RenderPolicy(w, policy);
  w.Key("enclave");
  RenderEnclave(w, enclave);
  w.Key("workload");
  RenderWorkload(w, workload);
  w.Key("antagonist");
  RenderAntagonist(w, antagonist);
  w.Key("faults");
  RenderFaults(w, faults);

  w.Key("invariants");
  w.BeginObject();
  w.KV("enabled", invariants.enabled);
  w.KV("period_us", invariants.period_us);
  w.KV("ghost_starvation_bound_ms", invariants.ghost_starvation_bound_ms);
  w.EndObject();

  if (ab_test.has_value()) {
    w.Key("ab_test");
    w.BeginObject();
    w.Key("canary");
    w.BeginObject();
    w.KV("percent", ab_test->canary.percent);
    w.KV("lifo", ab_test->canary.lifo);
    w.EndObject();
    w.KV("promote_at_ms", ab_test->promote_at_ms);
    w.KV("rollback_at_ms", ab_test->rollback_at_ms);
    w.EndObject();
  }

  if (fuzz.has_value()) {
    w.Key("fuzz");
    w.BeginObject();
    w.KV("cases", fuzz->cases);
    w.KV("base_seed", fuzz->base_seed);
    w.KV("schedules_per_case", fuzz->schedules_per_case);
    w.EndObject();
  }

  if (fleet.has_value()) {
    w.Key("fleet");
    RenderFleet(w, *fleet);
  }

  w.EndObject();
  return w.str();
}

ScenarioSpec ScenarioSpec::ParseOrExit(std::string_view text) {
  std::string error;
  std::optional<ScenarioSpec> spec = Parse(text, &error);
  if (!spec.has_value()) {
    std::fprintf(stderr, "scenario: %s\n", error.c_str());
    std::exit(2);
  }
  return *std::move(spec);
}

ScenarioSpec ScenarioSpec::LoadFileOrExit(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "scenario: cannot open \"%s\"\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseOrExit(buffer.str());
}

}  // namespace scenario
}  // namespace gs
