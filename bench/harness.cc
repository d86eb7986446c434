#include "bench/harness.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/base/logging.h"
#include "src/sim/batch_runner.h"
#include "src/sim/trace.h"

namespace gs {
namespace bench {

namespace {

std::string RenderInt(int64_t v) {
  JsonWriter w;
  w.Int(v);
  return w.str();
}

std::string RenderUInt(uint64_t v) {
  JsonWriter w;
  w.UInt(v);
  return w.str();
}

std::string RenderDouble(double v) {
  JsonWriter w;
  w.Double(v);
  return w.str();
}

std::string RenderString(const std::string& v) {
  JsonWriter w;
  w.String(v);
  return w.str();
}

std::string RenderBool(bool v) {
  JsonWriter w;
  w.Bool(v);
  return w.str();
}

// Value of "--flag=value" if `arg` matches, nullptr otherwise.
const char* FlagValue(const char* arg, const char* flag) {
  const size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) == 0 && arg[len] == '=') {
    return arg + len + 1;
  }
  return nullptr;
}

void PrintUsage(std::FILE* out, const std::string& name,
                const Harness::Options& options) {
  std::fprintf(out,
               "%s: harness flags:\n"
               "  --json=<path>       write machine-readable results\n"
               "  --seed=<N>          override the base RNG seed\n"
               "  --seeds=<N>         run N repetitions, seeds base..base+N-1\n"
               "  --jobs=<N>          worker threads for the repetitions\n"
               "                      (0 = one per hardware thread, default 1)\n"
               "  --scale=quick|paper sweep size (default: paper)\n"
               "  --trace-out=<path>  write a Chrome-trace/Perfetto JSON\n"
               "  --wall-clock        record wall_clock_s in the result file\n",
               name.c_str());
  for (const std::string& prefix : options.passthrough_prefixes) {
    std::fprintf(out, "  %s...        passed through to the benchmark\n",
                 prefix.c_str());
  }
}

[[noreturn]] void UsageError(const std::string& name,
                             const Harness::Options& options,
                             const std::string& detail) {
  std::fprintf(stderr, "%s: %s\n", name.c_str(), detail.c_str());
  PrintUsage(stderr, name, options);
  std::exit(2);
}

}  // namespace

Row& Row::Set(const std::string& key, int64_t v) {
  cells_.emplace_back(key, RenderInt(v));
  return *this;
}
Row& Row::Set(const std::string& key, uint64_t v) {
  cells_.emplace_back(key, RenderUInt(v));
  return *this;
}
Row& Row::Set(const std::string& key, double v) {
  cells_.emplace_back(key, RenderDouble(v));
  return *this;
}
Row& Row::Set(const std::string& key, const std::string& v) {
  cells_.emplace_back(key, RenderString(v));
  return *this;
}
Row& Row::Set(const std::string& key, bool v) {
  cells_.emplace_back(key, RenderBool(v));
  return *this;
}

Run::Run(Harness* harness, uint64_t seed, int index)
    : harness_(harness), seed_(seed), index_(index) {
  if (harness_->json_requested() || !harness_->trace_path_.empty()) {
    stats_.Enable();
  }
}

bool Run::quick() const { return harness_->quick(); }

Row& Run::AddRow() {
  rows_.emplace_back();
  return rows_.back();
}

void Run::Metric(const std::string& name, double v) {
  metrics_.emplace_back(name, RenderDouble(v));
}
void Run::Metric(const std::string& name, int64_t v) {
  metrics_.emplace_back(name, RenderInt(v));
}

void Run::HistogramJson(const std::string& name, std::string json) {
  histograms_.emplace_back(name, std::move(json));
}

bool Run::MaybeAttachTrace(Trace& trace) {
  return harness_->AttachTrace(*this, trace);
}

ChromeTraceExporter* Run::trace_exporter() {
  return index_ == 0 ? harness_->exporter_.get() : nullptr;
}

Harness::Harness(std::string benchmark_name, int& argc, char** argv)
    : Harness(std::move(benchmark_name), argc, argv, Options()) {}

Harness::Harness(std::string benchmark_name, int& argc, char** argv,
                 Options options)
    : name_(std::move(benchmark_name)), options_(std::move(options)) {
  auto parse_positive = [&](const char* v, const char* flag, int min) {
    char* end = nullptr;
    const long long n = std::strtoll(v, &end, 10);
    if (end == v || *end != '\0' || n < min || n > 1 << 20) {
      UsageError(name_, options_,
                 std::string("bad ") + flag + " value: " + v + " (want an integer >= " +
                     std::to_string(min) + ")");
    }
    return static_cast<int>(n);
  };

  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = FlagValue(arg, "--json")) {
      json_path_ = v;
    } else if (const char* v = FlagValue(arg, "--seed")) {
      char* end = nullptr;
      seed_override_ = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') {
        UsageError(name_, options_, "bad --seed value: " + std::string(v));
      }
      seed_overridden_ = true;
    } else if (const char* v = FlagValue(arg, "--seeds")) {
      num_seeds_ = parse_positive(v, "--seeds", 1);
    } else if (const char* v = FlagValue(arg, "--jobs")) {
      jobs_ = parse_positive(v, "--jobs", 0);
    } else if (const char* v = FlagValue(arg, "--scale")) {
      if (std::strcmp(v, "quick") == 0) {
        scale_ = Scale::kQuick;
      } else if (std::strcmp(v, "paper") == 0) {
        scale_ = Scale::kPaper;
      } else {
        UsageError(name_, options_, "bad --scale value: " + std::string(v) +
                                        " (want quick or paper)");
      }
    } else if (const char* v = FlagValue(arg, "--trace-out")) {
      trace_path_ = v;
    } else if (std::strcmp(arg, "--wall-clock") == 0) {
      record_wall_clock_ = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      PrintUsage(stdout, name_, options_);
      std::exit(0);
    } else if (std::strncmp(arg, "--", 2) == 0 && arg[2] != '\0') {
      // A "--" flag the harness does not know: either the benchmark declared
      // its prefix, or it is a typo — reject so a misspelled flag cannot
      // silently run the wrong configuration.
      bool passthrough = false;
      for (const std::string& prefix : options_.passthrough_prefixes) {
        if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
          passthrough = true;
          break;
        }
      }
      if (!passthrough) {
        UsageError(name_, options_, "unknown flag: " + std::string(arg));
      }
      argv[out++] = argv[i];
    } else {
      argv[out++] = argv[i];  // positional; leave for the benchmark
    }
  }
  argc = out;
  argv[argc] = nullptr;

  if (!options_.allow_parallel && (num_seeds_ != 1 || jobs_ != 1)) {
    UsageError(name_, options_,
               "--seeds/--jobs are not supported by this benchmark (it wraps "
               "a framework with process-global state)");
  }
  if (!trace_path_.empty()) {
    exporter_ = std::make_unique<ChromeTraceExporter>(name_);
  }
}

void Harness::Param(const std::string& key, int64_t v) {
  params_.emplace_back(key, RenderInt(v));
}
void Harness::Param(const std::string& key, double v) {
  params_.emplace_back(key, RenderDouble(v));
}
void Harness::Param(const std::string& key, const std::string& v) {
  params_.emplace_back(key, RenderString(v));
}
void Harness::Param(const std::string& key, bool v) {
  params_.emplace_back(key, RenderBool(v));
}

void Harness::RunAll(uint64_t fallback_seed,
                     const std::function<void(Run&)>& body) {
  CHECK(!ran_all_) << "Harness::RunAll called twice";
  ran_all_ = true;
  const uint64_t base = seed_overridden_ ? seed_override_ : fallback_seed;
  for (int i = 0; i < num_seeds_; ++i) {
    runs_.emplace_back(new Run(this, base + static_cast<uint64_t>(i), i));
  }
  const BatchRunner runner(num_seeds_ > 1 ? jobs_ : 1);
  const auto start = std::chrono::steady_clock::now();
  runner.Run(num_seeds_, [&](int i) { body(*runs_[i]); });
  wall_clock_s_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (num_seeds_ > 1) {
    std::fprintf(stderr, "ran %d seeds with %d job(s) in %.2fs\n", num_seeds_,
                 runner.jobs(), wall_clock_s_);
  }
}

bool Harness::AttachTrace(const Run& run, Trace& trace) {
  // Only run 0 traces (virtual time restarts at 0 every run; a second
  // attachment would interleave restarted timestamps), so `trace_attached_`
  // is only ever touched from the thread executing run 0.
  if (exporter_ == nullptr || run.index_ != 0 || trace_attached_) {
    return false;
  }
  trace.AddSink(exporter_.get());
  trace_attached_ = true;
  return true;
}

void Harness::AppendDocHeader(JsonWriter& w, uint64_t seed) const {
  w.KV("schema_version", 1);
  w.KV("benchmark", name_);
  w.Key("seed");
  w.UInt(seed);
  w.KV("scale", quick() ? "quick" : "paper");
}

void Harness::AppendParams(JsonWriter& w) const {
  w.Key("params");
  w.BeginObject();
  for (const auto& [key, json] : params_) {
    w.Key(key);
    w.Raw(json);
  }
  w.EndObject();
}

void Harness::AppendRunBlocks(JsonWriter& w, const Run& run,
                              double wall_clock_s) const {
  w.Key("series");
  w.BeginArray();
  for (const Row& row : run.rows_) {
    w.BeginObject();
    for (const auto& [key, json] : row.cells_) {
      w.Key(key);
      w.Raw(json);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("metrics");
  w.BeginObject();
  if (wall_clock_s >= 0) {
    w.Key("wall_clock_s");
    w.Double(wall_clock_s);
  }
  for (const auto& [key, json] : run.metrics_) {
    w.Key(key);
    w.Raw(json);
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& [key, json] : run.histograms_) {
    w.Key(key);
    w.Raw(json);
  }
  w.EndObject();
  w.Key("stats");
  run.stats_.AppendJson(w);
}

void Harness::AppendAggregateBlocks(JsonWriter& w) const {
  w.Key("series");
  w.BeginArray();
  for (const auto& run : runs_) {
    for (const Row& row : run->rows_) {
      w.BeginObject();
      w.Key("seed");
      w.UInt(run->seed_);
      for (const auto& [key, json] : row.cells_) {
        w.Key(key);
        w.Raw(json);
      }
      w.EndObject();
    }
  }
  w.EndArray();
  w.Key("metrics");
  w.BeginObject();
  w.Key("wall_clock_s");
  w.Double(wall_clock_s_);
  for (const auto& run : runs_) {
    const std::string suffix = "{seed=" + std::to_string(run->seed_) + "}";
    for (const auto& [key, json] : run->metrics_) {
      w.Key(key + suffix);
      w.Raw(json);
    }
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& run : runs_) {
    const std::string suffix = "{seed=" + std::to_string(run->seed_) + "}";
    for (const auto& [key, json] : run->histograms_) {
      w.Key(key + suffix);
      w.Raw(json);
    }
  }
  w.EndObject();
  w.Key("stats");
  StatsRegistry merged;
  for (const auto& run : runs_) {
    merged.MergeFrom(run->stats_);
  }
  merged.AppendJson(w);
}

int Harness::WriteJsonFile(const std::string& path,
                           const std::string& json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s\n", name_.c_str(), path.c_str());
    return 1;
  }
  int rc = 0;
  if (std::fwrite(json.data(), 1, json.size(), f) != json.size() ||
      std::fputc('\n', f) == EOF) {
    std::fprintf(stderr, "%s: short write to %s\n", name_.c_str(), path.c_str());
    rc = 1;
  }
  std::fclose(f);
  if (rc == 0) {
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
  return rc;
}

std::string Harness::SeedPath(uint64_t seed) const {
  const std::string insert = ".seed" + std::to_string(seed);
  const size_t dot = json_path_.rfind('.');
  const size_t slash = json_path_.find_last_of('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return json_path_ + insert;  // no extension: append
  }
  return json_path_.substr(0, dot) + insert + json_path_.substr(dot);
}

int Harness::Finish() {
  CHECK(!finished_) << "Harness::Finish called twice";
  CHECK(ran_all_) << "Harness::Finish before RunAll";
  finished_ = true;
  int rc = 0;

  if (!json_path_.empty()) {
    if (runs_.size() == 1) {
      JsonWriter w;
      w.BeginObject();
      AppendDocHeader(w, runs_.front()->seed_);
      AppendParams(w);
      AppendRunBlocks(w, *runs_.front(), record_wall_clock_ ? wall_clock_s_ : -1);
      w.EndObject();
      rc |= WriteJsonFile(json_path_, w.str());
    } else {
      // One standalone per-seed document each (byte-identical for any
      // --jobs), then the aggregate at the --json path itself.
      for (const auto& run : runs_) {
        JsonWriter w;
        w.BeginObject();
        AppendDocHeader(w, run->seed_);
        AppendParams(w);
        AppendRunBlocks(w, *run);
        w.EndObject();
        rc |= WriteJsonFile(SeedPath(run->seed_), w.str());
      }
      JsonWriter w;
      w.BeginObject();
      AppendDocHeader(w, runs_.front()->seed_);
      w.KV("seeds", static_cast<int64_t>(num_seeds_));
      w.KV("jobs", static_cast<int64_t>(jobs_));
      AppendParams(w);
      AppendAggregateBlocks(w);
      w.EndObject();
      rc |= WriteJsonFile(json_path_, w.str());
    }
  }

  if (exporter_ != nullptr) {
    if (!exporter_->WriteFile(trace_path_)) {
      rc = 1;
    } else {
      std::fprintf(stderr, "wrote %s (%zu events)\n", trace_path_.c_str(),
                   exporter_->num_events());
    }
  }
  return rc;
}

}  // namespace bench
}  // namespace gs
