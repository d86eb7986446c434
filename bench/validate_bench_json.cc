// Schema validator for bench-harness result files (see bench/harness.h).
// Usage: validate_bench_json [--baseline=<BENCH.json>] <result.json>...
// With --baseline, each result must also equal the baseline at every key
// path but metrics.wall_clock_s (host time); a differing path prints as
// "path: old → new". Exits non-zero (listing the problems) if any file
// fails; CI runs this over the perf-smoke artifacts and, with --baseline,
// against each checked-in BENCH_*.json.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/json.h"

namespace {

using gs::JsonValue;

bool Check(bool ok, const std::string& file, const std::string& what,
           std::vector<std::string>& errors) {
  if (!ok) {
    errors.push_back(file + ": " + what);
  }
  return ok;
}

std::optional<JsonValue> Load(const std::string& file, std::vector<std::string>& errors) {
  std::ifstream in(file);
  if (!in) {
    errors.push_back(file + ": cannot open");
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::optional<JsonValue> doc = JsonValue::Parse(buf.str());
  Check(doc.has_value(), file, "does not parse as JSON", errors);
  return doc;
}

void Validate(const std::string& file, const JsonValue& doc,
              std::vector<std::string>& errors) {
  if (!Check(doc.is_object(), file, "top level is not an object", errors)) {
    return;
  }

  const JsonValue* version = doc.Find("schema_version");
  Check(version != nullptr && version->is_number() && version->number == 1, file,
        "schema_version missing or != 1", errors);

  const JsonValue* name = doc.Find("benchmark");
  Check(name != nullptr && name->is_string() && !name->string.empty(), file,
        "benchmark missing or empty", errors);

  const JsonValue* scale = doc.Find("scale");
  Check(scale != nullptr && scale->is_string() &&
            (scale->string == "quick" || scale->string == "paper"),
        file, "scale missing or not quick|paper", errors);

  const JsonValue* params = doc.Find("params");
  Check(params != nullptr && params->is_object(), file, "params missing or not an object",
        errors);

  const JsonValue* series = doc.Find("series");
  if (Check(series != nullptr && series->is_array(), file,
            "series missing or not an array", errors)) {
    for (size_t i = 0; i < series->array.size(); ++i) {
      Check(series->array[i].is_object(), file,
            "series[" + std::to_string(i) + "] is not an object", errors);
    }
  }

  const JsonValue* metrics = doc.Find("metrics");
  Check(metrics != nullptr && metrics->is_object(), file,
        "metrics missing or not an object", errors);

  const JsonValue* histograms = doc.Find("histograms");
  Check(histograms != nullptr && histograms->is_object(), file,
        "histograms missing or not an object", errors);

  const JsonValue* stats = doc.Find("stats");
  if (Check(stats != nullptr && stats->is_object(), file,
            "stats missing or not an object", errors)) {
    for (const char* block : {"counters", "gauges", "histograms"}) {
      const JsonValue* sub = stats->Find(block);
      Check(sub != nullptr && sub->is_object(), file,
            std::string("stats.") + block + " missing or not an object", errors);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "usage: %s [--baseline=<BENCH.json>] <result.json>...\n", argv[0]);
    return 2;
  }
  std::vector<std::string> errors;
  std::optional<JsonValue> baseline;
  if (!baseline_path.empty()) {
    baseline = Load(baseline_path, errors);
  }
  for (const std::string& file : files) {
    const std::optional<JsonValue> doc = Load(file, errors);
    if (!doc.has_value()) {
      continue;
    }
    Validate(file, *doc, errors);
    if (baseline.has_value()) {
      for (const std::string& line : gs::DiffJson(*baseline, *doc, {"metrics.wall_clock_s"})) {
        errors.push_back(file + ": " + line);
      }
    }
  }
  if (!errors.empty()) {
    for (const std::string& error : errors) {
      std::fprintf(stderr, "FAIL %s\n", error.c_str());
    }
    return 1;
  }
  std::printf("OK: %zu file(s) schema-valid%s\n", files.size(),
              baseline.has_value() ? " and equal to the baseline" : "");
  return 0;
}
