#include "src/scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <type_traits>
#include <utility>

#include "src/base/logging.h"
#include "src/base/time.h"

namespace gs {
namespace scenario {
namespace {

// ---- Schema visitors --------------------------------------------------------
//
// Each section of the schema is one Visit() overload (further down): it lists
// the section's keys once, in render order, with the section's checks. Two
// visitors walk the same overloads — ObjectReader parses and validates,
// SchemaWriter renders ToJson — through these primitives:
//
//   Key(key, field)               an optional scalar
//   Required(key, field)          a scalar that must be present
//   Tag(key, field, allowed)      a required enum that says what its object is
//   Enum(key, field, allowed)     an optional enum
//   Maybe(key, field, set)        rendered only when `set`; true if present
//   Only(key, field, valid, why)  rendered only when `valid`, rejected otherwise
//   Object / Optional / Array     nested sections
//   Check(holds, [field,] what)   a validation; the writer skips it
//
// Every "_ms" and "_us" key also passes the reader's duration rule.

using Allowed = std::span<const char* const>;

// 2^63: the first nanosecond count a Duration cannot hold.
constexpr double kInt64Ns = 0x1p63;

std::string Quote(std::string_view s) { return "\"" + std::string(s) + "\""; }

// Sums "_ms" durations the way the run does (FromMs each, then int64
// addition) and records whether the sum overflowed. A value that breaks the
// duration rule on its own is skipped: that rule reports it by its key.
class NsSum {
 public:
  NsSum& Add(double ms) {
    if (std::abs(ms) * 1e6 < kInt64Ns) {
      overflow_ |= __builtin_add_overflow(sum_, FromMs(ms), &sum_);
    }
    return *this;
  }
  bool fits() const { return !overflow_; }

 private:
  Duration sum_ = 0;
  bool overflow_ = false;
};

// Strict reader of one JSON object: every key it reads is consumed, and
// Finish() rejects anything left over, so a typo surfaces as `unknown key
// "section.key"` instead of silently running a default configuration.
//
// Read() visits an object twice. The first (leading) pass only checks that
// its required keys are present and reads its tag, so those are the errors
// reported before any other key of the object is read; the second reads
// everything else in visit order. The first error wins and stops the parse.
class ObjectReader {
 public:
  template <typename S, typename... Extra>
  static void Read(const JsonValue& value, std::string path, std::string* error, S& out,
                   const Extra&... extra) {
    ObjectReader r(value, std::move(path), error);
    r.leading_ = true;
    Visit(r, out, extra...);
    r.leading_ = false;
    Visit(r, out, extra...);
    r.Finish();
  }

  template <typename T>
  void Key(const char* key, T& out) {
    if (leading_) {
      return;
    }
    fields_.emplace_back(&out, key);
    if (const JsonValue* v = Take(key)) {
      ReadValue(*v, key, out);
    }
  }

  template <typename T>
  void Required(const char* key, T& out) {
    if (leading_) {
      Require(key);
    } else {
      Key(key, out);
    }
  }

  void Tag(const char* key, std::string& out, Allowed allowed) {
    if (leading_) {
      Require(key);
      ReadEnum(key, out, allowed);
    }
  }

  void Enum(const char* key, std::string& out, Allowed allowed) {
    if (!leading_) {
      ReadEnum(key, out, allowed);
    }
  }

  template <typename T>
  bool Maybe(const char* key, T& out, bool /*set*/) {
    if (leading_ || !ok()) {
      return false;
    }
    const bool present = Has(key);
    Key(key, out);
    return present;
  }

  template <typename T>
  void Only(const char* key, T& out, bool valid, const char* why) {
    if (!leading_ && !valid && ok() && Has(key)) {
      Fail(Quote(Path(key)) + " " + why);
    }
    Key(key, out);
  }

  template <typename S, typename... Extra>
  void Object(const char* key, S& out, const Extra&... extra) {
    if (const JsonValue* v = leading_ ? nullptr : Take(key)) {
      Read(*v, Path(key), error_, out, extra...);
    }
  }

  // A section present only when written; it starts from `init`.
  template <typename S, typename... Extra>
  void Optional(const char* key, std::optional<S>& out, const S& init,
                const Extra&... extra) {
    if (const JsonValue* v = leading_ ? nullptr : Take(key)) {
      out = init;
      Read(*v, Path(key), error_, *out, extra...);
    }
  }

  // An array of objects; when present it replaces the whole vector.
  template <typename E, typename... Extra>
  void Array(const char* key, std::vector<E>& out, const Extra&... extra) {
    const JsonValue* v = leading_ ? nullptr : Take(key);
    if (v == nullptr) {
      return;
    }
    if (!v->is_array()) {
      Fail(Quote(Path(key)) + " must be an array");
      return;
    }
    out.clear();
    for (size_t i = 0; i < v->array.size() && ok(); ++i) {
      E item;
      Read(v->array[i], Path(key) + "[" + std::to_string(i) + "]", error_, item, extra...);
      out.push_back(std::move(item));
    }
  }

  // A section-wide check: `"section": what`, or `what` alone at the root.
  void Check(bool holds, std::string_view what) {
    if (!holds && !leading_ && ok()) {
      Fail(path_.empty() ? std::string(what) : Quote(path_) + ": " + std::string(what));
    }
  }

  // A check on one field, named by the key it was visited under.
  template <typename T>
  void Check(bool holds, const T& field, std::string_view what) {
    if (!holds && !leading_ && ok()) {
      Fail(Quote(PathOf(&field)) + " " + std::string(what));
    }
  }

  // A check relating two fields: `"a" what "b"tail`.
  template <typename T, typename U>
  void Check(bool holds, const T& field, std::string_view what, const U& other,
             std::string_view tail) {
    if (!holds && !leading_ && ok()) {
      Fail(Quote(PathOf(&field)) + " " + std::string(what) + " " + Quote(PathOf(&other)) +
           std::string(tail));
    }
  }

 private:
  ObjectReader(const JsonValue& value, std::string path, std::string* error)
      : value_(value), path_(std::move(path)), error_(error) {
    if (!value_.is_object()) {
      Fail(Quote(path_) + " must be an object");
    }
  }

  bool ok() const { return error_->empty(); }
  bool Has(const char* key) const { return value_.object.count(key) > 0; }

  std::string Path(std::string_view key) const {
    return path_.empty() ? std::string(key) : path_ + "." + std::string(key);
  }

  std::string PathOf(const void* field) const {
    const auto it = std::find_if(fields_.begin(), fields_.end(),
                                 [field](const auto& f) { return f.first == field; });
    CHECK(it != fields_.end()) << "check on a field " << path_ << " never visited";
    return Path(it->second);
  }

  void Fail(const std::string& message) {
    if (ok()) {
      *error_ = message;
    }
  }

  bool FailKey(const char* key, const std::string& what) {
    Fail(Quote(Path(key)) + " " + what);
    return false;
  }

  void Require(const char* key) {
    if (ok() && !Has(key)) {
      Fail("missing required key " + Quote(Path(key)));
    }
  }

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

  void ReadEnum(const char* key, std::string& out, Allowed allowed) {
    fields_.emplace_back(&out, key);
    const JsonValue* v = Take(key);
    if (v == nullptr || !ReadValue(*v, key, out) ||
        std::find(allowed.begin(), allowed.end(), out) != allowed.end()) {
      return;
    }
    std::string msg = Quote(Path(key)) + ": unknown value " + Quote(out) + " (expected one of";
    for (const char* a : allowed) {
      msg += " ";
      msg += a;
    }
    Fail(msg + ")");
  }

  bool ReadValue(const JsonValue& v, const char* key, std::string& out) {
    if (!v.is_string()) {
      return FailKey(key, "must be a string");
    }
    out = v.string;
    return true;
  }

  bool ReadValue(const JsonValue& v, const char* key, bool& out) {
    if (v.type != JsonValue::Type::kBool) {
      return FailKey(key, "must be a boolean");
    }
    out = v.boolean;
    return true;
  }

  bool ReadValue(const JsonValue& v, const char* key, double& out) {
    if (!v.is_number()) {
      return FailKey(key, "must be a number");
    }
    if (!std::isfinite(v.number)) {
      return FailKey(key, "must be a finite number");
    }
    out = v.number;
    return CheckDuration(key, out);
  }

  // The duration rule. A "_ms" or "_us" key is a time the run converts to
  // whole int64 nanoseconds (FromMs, FromUs), so it must fit in one, and a
  // nonzero time must not truncate to 0 ns: a time that must be > 0 is at
  // least 1 ns. Every duration key of every section, overrides included,
  // goes through here.
  bool CheckDuration(const char* key, double value) {
    const std::string_view k(key);
    const double unit_ns = k.ends_with("_ms") ? 1e6 : k.ends_with("_us") ? 1e3 : 0;
    const double ns = std::abs(value) * unit_ns;
    if (ns >= kInt64Ns) {
      return FailKey(key, "does not fit in int64 nanoseconds");
    }
    if (ns > 0 && ns < 1) {
      return FailKey(key, "would truncate to 0 ns");
    }
    return true;
  }

  // JSON numbers arrive as doubles. An integer field takes only a whole
  // number its type can hold; anything else is an error, never a cast.
  template <std::integral T>
  bool ReadValue(const JsonValue& v, const char* key, T& out) {
    if (!v.is_number()) {
      return FailKey(key, "must be a number");
    }
    using Limits = std::numeric_limits<T>;
    if (v.number != std::trunc(v.number) || v.number < static_cast<double>(Limits::min()) ||
        v.number >= std::ldexp(1.0, Limits::digits)) {
      return FailKey(key, "must be an integer in [" + std::to_string(Limits::min()) + ", " +
                              std::to_string(Limits::max()) + "]");
    }
    out = static_cast<T>(v.number);
    return true;
  }

  // Unknown-key check, after both passes.
  void Finish() {
    if (!ok()) {
      return;
    }
    for (const auto& [key, unused] : value_.object) {
      if (std::find(consumed_.begin(), consumed_.end(), key) == consumed_.end()) {
        Fail("unknown key " + Quote(Path(key)));
        return;
      }
    }
  }

  const JsonValue& value_;
  std::string path_;
  std::string* error_;
  bool leading_ = false;
  std::vector<std::string_view> consumed_;
  std::vector<std::pair<const void*, const char*>> fields_;  // field -> its key
};

// Renders through the same Visit() overloads: every key in visit order, the
// checks skipped.
class SchemaWriter {
 public:
  explicit SchemaWriter(JsonWriter& w) : w_(w) {}

  template <typename S, typename... Extra>
  void Write(const S& value, const Extra&... extra) {
    w_.BeginObject();
    Visit(*this, value, extra...);
    w_.EndObject();
  }

  template <typename T>
  void Key(const char* key, const T& value) {
    w_.KV(key, value);
  }
  template <typename T>
  void Required(const char* key, const T& value) {
    w_.KV(key, value);
  }
  void Tag(const char* key, const std::string& value, Allowed) { w_.KV(key, value); }
  void Enum(const char* key, const std::string& value, Allowed) { w_.KV(key, value); }

  template <typename T>
  bool Maybe(const char* key, const T& value, bool set) {
    if (set) {
      w_.KV(key, value);
    }
    return set;
  }

  template <typename T>
  void Only(const char* key, const T& value, bool valid, const char*) {
    if (valid) {
      w_.KV(key, value);
    }
  }

  template <typename S, typename... Extra>
  void Object(const char* key, const S& value, const Extra&... extra) {
    w_.Key(key);
    Write(value, extra...);
  }

  template <typename S, typename... Extra>
  void Optional(const char* key, const std::optional<S>& value, const S&,
                const Extra&... extra) {
    if (value.has_value()) {
      Object(key, *value, extra...);
    }
  }

  template <typename E, typename... Extra>
  void Array(const char* key, const std::vector<E>& items, const Extra&... extra) {
    w_.Key(key);
    w_.BeginArray();
    for (const E& item : items) {
      Write(item, extra...);
    }
    w_.EndArray();
  }

  template <typename... Args>
  void Check(bool, const Args&...) {}

 private:
  JsonWriter& w_;
};

// ---- The schema -------------------------------------------------------------
//
// One Visit() per section. Adding a key is a struct member plus one line
// here; its checks follow the section's keys, in the order they are run.

// A section spec, const (rendering) or not (parsing).
template <typename S, typename T>
concept Spec = std::same_as<std::remove_const_t<S>, T>;

constexpr const char* kTopologyPresets[] = {"custom", "e5_24", "skylake112", "haswell72",
                                            "rome256"};
constexpr const char* kServiceModels[] = {"fixed", "bimodal", "exponential"};
constexpr const char* kWorkloadKinds[] = {"request_service", "vm"};
constexpr const char* kPlacements[] = {"cfs", "enclave"};
constexpr const char* kFaultKinds[] = {"agent_crash", "agent_stall", "agent_recover",
                                       "enclave_destroy"};
constexpr const char* kFleetEventKinds[] = {"agent_crash", "agent_stall", "agent_recover",
                                            "enclave_destroy", "lb_drain", "lb_undrain",
                                            "link_down", "link_up"};
constexpr const char* kBalancerPolicies[] = {"round_robin", "least_loaded",
                                             "consistent_hash"};
constexpr const char* kSendTimeTooLong =
    "is too low: sending request_bytes or response_bytes takes 2^63 ns or more";

void Visit(auto& v, Spec<ScenarioSpec> auto& s) {
  v.Required("name", s.name);
  v.Key("description", s.description);
  v.Key("seed", s.seed);
  v.Key("warmup_ms", s.warmup_ms);
  v.Key("measure_ms", s.measure_ms);
  v.Key("drain_ms", s.drain_ms);
  v.Check(!s.name.empty(), s.name, "must be a non-empty string");
  v.Check(s.warmup_ms >= 0 && s.measure_ms > 0 && s.drain_ms >= 0, s.measure_ms,
          R"(must be > 0 and "warmup_ms"/"drain_ms" >= 0)");
  // The run's end time; every machine and the fleet run to it.
  v.Check(NsSum().Add(s.warmup_ms).Add(s.measure_ms).Add(s.drain_ms).fits(),
          R"("warmup_ms" + "measure_ms" + "drain_ms" does not fit in int64 nanoseconds)");
  v.Object("topology", s.topology);
  v.Object("policy", s.policy);
  v.Object("enclave", s.enclave);
  v.Object("workload", s.workload);
  v.Object("antagonist", s.antagonist);
  v.Object("faults", s.faults);
  v.Object("invariants", s.invariants);
  v.Optional("ab_test", s.ab_test, AbTestSpec{});
  v.Check(!s.ab_test || s.policy.kind == "ab_test",
          R"("ab_test" requires "policy.kind" == "ab_test")");
  v.Optional("fuzz", s.fuzz, FuzzSpec{});
  v.Check(!s.fuzz || !s.ab_test, R"("fuzz" cannot be combined with "ab_test")");
  // Fleet comes last: its overrides start from the fully parsed base sections.
  v.Optional("fleet", s.fleet, FleetSpec{}, s);
  if (!s.fleet) {
    v.Check(s.policy.kind != "vm_core_sched" || s.workload.kind == "vm",
            R"("policy.kind" "vm_core_sched" requires "workload.kind" == "vm")");
    return;
  }
  v.Check(s.workload.kind == "request_service",
          R"("fleet" requires "workload.kind" == "request_service")");
  v.Check(s.workload.fanout == 1, R"("fleet" requires "workload.fanout" == 1 )"
                                  R"((use "fleet.rpc_fanout" for cross-machine fan-out))");
  v.Check(s.policy.kind != "vm_core_sched",
          R"("fleet" cannot be combined with "policy.kind" "vm_core_sched")");
  v.Check(!s.ab_test && s.policy.kind != "ab_test",
          R"("fleet" cannot be combined with "ab_test")");
  v.Check(!s.fuzz, R"("fleet" cannot be combined with "fuzz")");
  for (size_t i = 0; i < s.fleet->overrides.size(); ++i) {
    const MachineOverrideSpec& o = s.fleet->overrides[i];
    const std::string path = "fleet.overrides[" + std::to_string(i) + "]";
    v.Check(!o.workload || (o.workload->kind == "request_service" && o.workload->fanout == 1),
            Quote(path + ".workload") +
                R"( must keep kind "request_service" and fanout 1 in a fleet)");
    v.Check(!o.policy || o.policy->kind != "vm_core_sched",
            Quote(path + ".policy.kind") + R"( cannot be "vm_core_sched" in a fleet)");
  }
}

void Visit(auto& v, Spec<TopologySpec> auto& t) {
  v.Enum("preset", t.preset, kTopologyPresets);
  const bool custom = t.preset == "custom";
  const char* const custom_only = R"(is only valid with preset "custom")";
  v.Only("sockets", t.sockets, custom, custom_only);
  v.Only("cores_per_socket", t.cores_per_socket, custom, custom_only);
  v.Only("smt", t.smt, custom, custom_only);
  v.Only("cores_per_ccx", t.cores_per_ccx, custom, custom_only);
  v.Check(!custom || (t.sockets >= 1 && t.cores_per_socket >= 1 && t.smt >= 1),
          "sockets, cores_per_socket and smt must be >= 1");
}

void Visit(auto& v, Spec<PolicySpec> auto& p) {
  v.Enum("kind", p.kind, kPolicyKinds);
  v.Key("global_cpu", p.global_cpu);
  v.Key("timeslice_us", p.timeslice_us);
  v.Key("long_threshold_us", p.long_threshold_us);
  v.Key("backstop_multiplier", p.backstop_multiplier);
  v.Key("num_priorities", p.num_priorities);
  v.Key("base_timeslice_ms", p.base_timeslice_ms);
  v.Key("min_timeslice_ms", p.min_timeslice_ms);
  v.Key("worker_priority", p.worker_priority);
  v.Key("antagonist_priority", p.antagonist_priority);
  v.Key("vm_slice_ms", p.vm_slice_ms);
  v.Check(p.num_priorities >= 1 && p.num_priorities <= 64, p.num_priorities,
          "must be in [1, 64]");
  v.Check(p.min_timeslice_ms <= p.base_timeslice_ms, p.min_timeslice_ms, "must be <=",
          p.base_timeslice_ms, "");
  v.Check(p.long_threshold_us > 0, p.long_threshold_us, "must be > 0");
  v.Check(p.backstop_multiplier >= 1, p.backstop_multiplier, "must be >= 1");
}

void Visit(auto& v, Spec<EnclaveSpec> auto& e) {
  v.Key("cpu_first", e.cpu_first);
  v.Key("cpu_count", e.cpu_count);
  v.Key("watchdog_timeout_ms", e.watchdog_timeout_ms);
  v.Key("watchdog_period_ms", e.watchdog_period_ms);
  v.Check(e.cpu_first >= 0, e.cpu_first, "must be >= 0");
  v.Check(e.cpu_count >= 1 || e.cpu_count == -1, e.cpu_count,
          "must be >= 1, or -1 for every CPU from cpu_first");
  v.Check(e.watchdog_timeout_ms >= 0, e.watchdog_timeout_ms, "must be >= 0");
  v.Check(e.watchdog_period_ms > 0, e.watchdog_period_ms, "must be > 0");
}

void Visit(auto& v, Spec<WorkloadSpec> auto& w) {
  v.Enum("kind", w.kind, kWorkloadKinds);
  v.Key("num_workers", w.num_workers);
  v.Key("fanout", w.fanout);
  v.Object("service", w.service);
  v.Array("phases", w.phases);
  v.Key("num_vms", w.num_vms);
  v.Key("vcpus_per_vm", w.vcpus_per_vm);
  v.Key("work_per_vcpu_ms", w.work_per_vcpu_ms);
  v.Check(w.num_workers >= 1, w.num_workers, "must be >= 1");
  v.Check(w.fanout >= 1, w.fanout, "must be >= 1");
  v.Check(w.kind != "vm" || (w.num_vms >= 1 && w.vcpus_per_vm >= 1),
          "num_vms and vcpus_per_vm must be >= 1");
  // The phases run back to back from time 0, so their sum is an end time.
  NsSum phases;
  for (const LoadPhase& p : w.phases) {
    phases.Add(p.duration_ms);
  }
  v.Check(phases.fits(), R"(the summed "phases[].duration_ms" does not fit in int64 nanoseconds)");
}

void Visit(auto& v, Spec<ServiceSpec> auto& s) {
  v.Enum("model", s.model, kServiceModels);
  v.Key("fixed_us", s.fixed_us);
  v.Key("short_us", s.short_us);
  v.Key("long_us", s.long_us);
  v.Key("p_long", s.p_long);
  v.Key("mean_us", s.mean_us);
  v.Check(s.p_long >= 0 && s.p_long <= 1, s.p_long, "must be in [0, 1]");
}

void Visit(auto& v, Spec<LoadPhase> auto& p) {
  v.Required("duration_ms", p.duration_ms);
  v.Key("qps", p.qps);
  v.Check(p.duration_ms > 0, p.duration_ms, "must be > 0");
  v.Check(p.qps >= 0, p.qps, "must be >= 0");
}

void Visit(auto& v, Spec<AntagonistSpec> auto& a) {
  v.Key("threads", a.threads);
  v.Enum("placement", a.placement, kPlacements);
  v.Key("nice", a.nice);
  v.Key("chunk_us", a.chunk_us);
  v.Check(a.threads >= 0, a.threads, "must be >= 0");
  v.Check(a.nice >= -20 && a.nice <= 19, a.nice, "must be in [-20, 19]");
  v.Check(a.chunk_us > 0, a.chunk_us, "must be > 0");
}

void Visit(auto& v, Spec<FaultsSpec> auto& f) {
  v.Key("window_start_ms", f.window_start_ms);
  v.Key("window_end_ms", f.window_end_ms);
  v.Key("ipi_delay_probability", f.ipi_delay_probability);
  v.Key("ipi_drop_probability", f.ipi_drop_probability);
  v.Key("msg_drop_probability", f.msg_drop_probability);
  v.Key("estale_probability", f.estale_probability);
  for (const double* p : {&f.ipi_delay_probability, &f.ipi_drop_probability,
                          &f.msg_drop_probability, &f.estale_probability}) {
    v.Check(*p >= 0 && *p <= 1, *p, "must be in [0, 1]");
  }
  v.Array("plan", f.plan);
}

// The kind is a tag: parsed first (a missing or unknown kind is the error to
// report), but rendered after at_ms so existing renderings keep their bytes.
void Visit(auto& v, Spec<FaultEventSpec> auto& e) {
  v.Key("at_ms", e.at_ms);
  v.Tag("kind", e.kind, kFaultKinds);
  v.Check(e.at_ms >= 0, e.at_ms, "must be >= 0");
}

void Visit(auto& v, Spec<InvariantsSpec> auto& i) {
  v.Key("enabled", i.enabled);
  v.Key("period_us", i.period_us);
  v.Key("ghost_starvation_bound_ms", i.ghost_starvation_bound_ms);
  v.Check(i.period_us > 0, i.period_us, "must be > 0");
}

void Visit(auto& v, Spec<AbTestSpec> auto& a) {
  v.Object("canary", a.canary);
  v.Key("promote_at_ms", a.promote_at_ms);
  v.Key("rollback_at_ms", a.rollback_at_ms);
  v.Check(a.promote_at_ms < 0 || a.rollback_at_ms < 0 || a.rollback_at_ms > a.promote_at_ms,
          a.rollback_at_ms, "must be >", a.promote_at_ms, " when both are scheduled");
}

void Visit(auto& v, Spec<AbCanarySpec> auto& c) {
  v.Key("percent", c.percent);
  v.Key("lifo", c.lifo);
  v.Check(c.percent >= 0 && c.percent <= 100, c.percent, "must be in [0, 100]");
}

void Visit(auto& v, Spec<FuzzSpec> auto& f) {
  v.Key("cases", f.cases);
  v.Key("base_seed", f.base_seed);
  v.Key("schedules_per_case", f.schedules_per_case);
  v.Check(f.cases >= 1, f.cases, "must be >= 1");
  v.Check(f.schedules_per_case >= 1, f.schedules_per_case, "must be >= 1");
}

void Visit(auto& v, Spec<FleetSpec> auto& f, const ScenarioSpec& base) {
  v.Key("machines", f.machines);
  v.Key("sessions", f.sessions);
  v.Key("rpc_fanout", f.rpc_fanout);
  v.Check(f.machines >= 1 && f.machines <= 256, f.machines, "must be in [1, 256]");
  v.Check(f.sessions >= 1, f.sessions, "must be >= 1");
  v.Check(f.rpc_fanout >= 1 && f.rpc_fanout <= f.machines, f.rpc_fanout,
          "must be in [1, fleet.machines]");
  v.Object("balancer", f.balancer);
  v.Object("network", f.network, f.machines);
  v.Array("overrides", f.overrides, base, f.machines);
  v.Array("plan", f.plan, f.machines);
}

void Visit(auto& v, Spec<BalancerSpec> auto& b) {
  v.Enum("policy", b.policy, kBalancerPolicies);
  v.Key("shed_outstanding", b.shed_outstanding);
  v.Key("virtual_nodes", b.virtual_nodes);
  v.Check(b.shed_outstanding >= 0, b.shed_outstanding, "must be >= 0");
  v.Check(b.virtual_nodes >= 1 && b.virtual_nodes <= 512, b.virtual_nodes,
          "must be in [1, 512]");
}

void Visit(auto& v, Spec<NetworkSpec> auto& n, int machines) {
  v.Key("latency_us", n.latency_us);
  v.Key("bandwidth_gbps", n.bandwidth_gbps);
  v.Key("request_bytes", n.request_bytes);
  v.Key("response_bytes", n.response_bytes);
  v.Check(n.latency_us > 0, n.latency_us, "must be > 0");
  v.Check(n.bandwidth_gbps > 0, n.bandwidth_gbps, "must be > 0");
  v.Check(n.request_bytes >= 0 && n.response_bytes >= 0,
          "request_bytes and response_bytes must be >= 0");
  // A bandwidth turns into a send time (bits / Gbps ns), which the duration
  // rule bounds like any other.
  const double message_bits = 8 * std::max(n.request_bytes, n.response_bytes);
  v.Check(message_bits / n.bandwidth_gbps < kInt64Ns, n.bandwidth_gbps, kSendTimeTooLong);
  v.Array("links", n.links, machines, message_bits);
}

// A link's latency and bandwidth of -1 inherit the network default and stay
// implicit: only explicit overrides are rendered, and those must be > 0.
void Visit(auto& v, Spec<LinkSpec> auto& l, int machines, double message_bits) {
  v.Required("from", l.from);
  v.Required("to", l.to);
  const bool has_latency = v.Maybe("latency_us", l.latency_us, l.latency_us >= 0);
  const bool has_bandwidth = v.Maybe("bandwidth_gbps", l.bandwidth_gbps, l.bandwidth_gbps >= 0);
  const std::string node = "must be a machine index in [0, " + std::to_string(machines) +
                           ") or -1 for the front end";
  v.Check(l.from >= -1 && l.from < machines, l.from, node);
  v.Check(l.to >= -1 && l.to < machines, l.to, node);
  v.Check(l.from != l.to, "from and to must differ");
  const char* const explicit_positive = "must be > 0 (omit it to inherit the network default)";
  v.Check(!has_latency || l.latency_us > 0, l.latency_us, explicit_positive);
  v.Check(!has_bandwidth || l.bandwidth_gbps > 0, l.bandwidth_gbps, explicit_positive);
  v.Check(!has_bandwidth || message_bits / l.bandwidth_gbps < kInt64Ns, l.bandwidth_gbps,
          kSendTimeTooLong);
}

// Each present section starts from a copy of the base scenario's.
void Visit(auto& v, Spec<MachineOverrideSpec> auto& o, const ScenarioSpec& base,
           int machines) {
  v.Required("machine", o.machine);
  v.Check(o.machine >= 0 && o.machine < machines, o.machine,
          "must be in [0, " + std::to_string(machines) + ")");
  v.Optional("policy", o.policy, base.policy);
  v.Optional("enclave", o.enclave, base.enclave);
  v.Optional("workload", o.workload, base.workload);
  v.Optional("antagonist", o.antagonist, base.antagonist);
  v.Optional("faults", o.faults, base.faults);
}

// The kind is a tag, as in a fault event.
void Visit(auto& v, Spec<FleetEventSpec> auto& e, int machines) {
  v.Key("at_ms", e.at_ms);
  v.Tag("kind", e.kind, kFleetEventKinds);
  v.Key("machine", e.machine);
  v.Check(e.at_ms >= 0, e.at_ms, "must be >= 0");
  v.Check(e.machine >= 0 && e.machine < machines, e.machine,
          "must be in [0, " + std::to_string(machines) + ")");
}

}  // namespace

std::optional<ScenarioSpec> ScenarioSpec::Parse(std::string_view text,
                                                std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  error->clear();
  std::optional<JsonValue> doc = JsonValue::Parse(text, error);
  if (!doc.has_value()) {
    if (error->empty()) {
      *error = "invalid JSON";
    }
    return std::nullopt;
  }
  ScenarioSpec spec;
  ObjectReader::Read(*doc, "", error, spec);
  if (!error->empty()) {
    return std::nullopt;
  }
  return spec;
}

std::string ScenarioSpec::ToJson() const {
  JsonWriter w;
  SchemaWriter(w).Write(*this);
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
