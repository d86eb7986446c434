// perfbench_sim: one run of one benchmark workload, reported as one JSON
// line on stdout.
//
//   perfbench_sim --spec FILE --seed N [--jobs J] [--traced]
//
// Without --traced this is the timed run: the program's stats stay off. With
// --traced a StatsRegistry is enabled and the line gains its snapshot
// ("stats") and the recorded spans ("spans"). Exit status: 0 on a completed
// run, 2 on bad arguments or an unreadable or invalid spec.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/bench_run.h"

namespace {

// The line is written by hand rather than with the simulator's JsonWriter,
// so the benchmark uses no program interface beyond the scenario layer and
// StatsRegistry.

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr, "perfbench_sim: %s\nusage: perfbench_sim --spec FILE --seed N "
               "[--jobs J] [--traced]\n", message.c_str());
  std::exit(2);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Shortest text that reads back as the same double; non-finite as null.
std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) {
      break;
    }
  }
  return buf;
}

std::string Number(int64_t v) { return std::to_string(v); }

// Peak resident set of this process in KiB. VmHWM, not getrusage's
// ru_maxrss: ru_maxrss survives exec, so it would also count the memory of
// the process that forked this one.
int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
  return -1;
}

std::string ResultJson(const gs::scenario::ScenarioResult& result) {
  std::string out = "{\"exact\":{";
  const char* sep = "";
  for (const auto& [key, value] : result.exact) {
    out += sep + Quote(key) + ":" + Number(value);
    sep = ",";
  }
  out += "},\"envelopes\":{";
  sep = "";
  for (const auto& [key, value] : result.envelopes) {
    out += sep + Quote(key) + ":" + Number(value);
    sep = ",";
  }
  out += "},\"violations\":[";
  sep = "";
  for (const std::string& v : result.violations) {
    out += sep + Quote(v);
    sep = ",";
  }
  return out + "]}";
}

std::string SpansJson(const std::vector<perfbench::Span>& spans) {
  std::string out = "[";
  const char* sep = "";
  for (const perfbench::Span& span : spans) {
    out += sep;
    out += "{\"name\":" + Quote(span.name) + ",\"start_ns\":" + Number(span.start_ns) +
           ",\"end_ns\":" + Number(span.end_ns) +
           ",\"parent\":" + Number(static_cast<int64_t>(span.parent)) + "}";
    sep = ",";
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  uint64_t seed = 0;
  bool have_seed = false;
  int jobs = 1;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--spec") {
      spec_path = value();
    } else if (arg == "--seed") {
      const std::string text = value();
      char* end = nullptr;
      seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || *end != '\0' || text[0] == '-') {
        Usage("--seed must be a non-negative integer");
      }
      have_seed = true;
    } else if (arg == "--jobs") {
      jobs = std::atoi(value().c_str());
      if (jobs < 1) {
        Usage("--jobs must be at least 1");
      }
    } else if (arg == "--traced") {
      traced = true;
    } else {
      Usage("unknown argument " + arg);
    }
  }
  if (spec_path.empty() || !have_seed) {
    Usage("--spec and --seed are required");
  }
  std::ifstream in(spec_path);
  if (!in) {
    Usage("cannot read " + spec_path);
  }
  std::stringstream text;
  text << in.rdbuf();

  gs::StatsRegistry registry;
  perfbench::SpanRecorder spans;
  perfbench::RunOutput out;
  std::string error;
  if (!perfbench::RunWorkload(text.str(), seed, jobs, traced ? &registry : nullptr, &spans,
                              &out, &error)) {
    Usage(spec_path + ": " + error);
  }

  std::string line = "{\"sim_ms\":" + Number(out.sim_ms) +
                     ",\"setup_s\":" + Number(spans.Seconds("setup")) +
                     ",\"parse_s\":" + Number(spans.Seconds("scenario.parse")) +
                     ",\"build_s\":" + Number(spans.Seconds("fleet.build")) +
                     ",\"run_s\":" + Number(spans.Seconds("run")) +
                     ",\"run_user_s\":" + Number(out.run_user_s) +
                     ",\"run_sys_s\":" + Number(out.run_sys_s) +
                     ",\"events\":" + Number(out.events) +
                     ",\"peak_rss_kb\":" + Number(PeakRssKb()) +
                     ",\"result\":" + ResultJson(out.result);
  if (traced) {
    line += ",\"stats\":" + registry.ToJson() + ",\"spans\":" + SpansJson(spans.spans());
  }
  line += "}\n";
  std::fputs(line.c_str(), stdout);
  return 0;
}
