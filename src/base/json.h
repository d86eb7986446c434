// Minimal JSON support: a streaming writer, a small recursive-descent
// parser, and a key-path diff.
//
// The observability layer (stats snapshots, Chrome-trace export, bench
// harness result files) emits machine-readable JSON; the parser exists so
// tests and the bench-result validator can round-trip what we emit without
// an external dependency, and DiffJson is the one comparator for checked-in
// results (scenario goldens and BENCH_*.json files). This is not a
// general-purpose JSON library: the writer produces deterministic, compact
// output and the parser accepts strict RFC 8259 JSON (no comments, no
// trailing commas).
#ifndef GHOST_SIM_SRC_BASE_JSON_H_
#define GHOST_SIM_SRC_BASE_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gs {

// Streaming JSON writer with automatic comma/nesting management.
// Usage:
//   JsonWriter w;
//   w.BeginObject();
//   w.Key("name"); w.String("fig6");
//   w.Key("rows"); w.BeginArray(); w.Double(1.5); w.EndArray();
//   w.EndObject();
//   std::string out = w.str();
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  void Key(std::string_view key);

  void String(std::string_view value);
  void Int(int64_t value);
  void UInt(uint64_t value);
  // Non-finite doubles are emitted as null (JSON has no NaN/Inf).
  void Double(double value);
  void Bool(bool value);
  void Null();

  // Convenience key/value pairs.
  void KV(std::string_view key, std::string_view value) { Key(key); String(value); }
  void KV(std::string_view key, const char* value) { Key(key); String(value); }
  void KV(std::string_view key, int64_t value) { Key(key); Int(value); }
  void KV(std::string_view key, uint64_t value) { Key(key); UInt(value); }
  void KV(std::string_view key, int value) { Key(key); Int(value); }
  void KV(std::string_view key, double value) { Key(key); Double(value); }
  void KV(std::string_view key, bool value) { Key(key); Bool(value); }

  // Splices a pre-rendered JSON value (e.g. Histogram::ToJson()) in value
  // position. The caller guarantees `json` is valid JSON.
  void Raw(std::string_view json);

  const std::string& str() const { return out_; }

  static std::string Escape(std::string_view raw);

 private:
  void BeforeValue();

  std::string out_;
  // One entry per open container: true until the first element is written.
  std::vector<bool> first_;
  bool pending_key_ = false;
};

// Parsed JSON value. Object keys are kept in a std::map: iteration order is
// deterministic (sorted), which the tests rely on.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }

  // Object member lookup; nullptr if absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  // Parses a complete JSON document (surrounding whitespace allowed).
  // nullopt on any syntax error or trailing garbage.
  static std::optional<JsonValue> Parse(std::string_view text);

  // As above; on failure `*error` receives a one-line description with the
  // 1-based line:column of the first offending byte (e.g. "line 3:14:
  // expected ':' after object key"). The scenario loader surfaces these
  // verbatim, so they are written for humans editing config files.
  static std::optional<JsonValue> Parse(std::string_view text, std::string* error);
};

// Every difference between two documents, one line per key path, as
// "path: old → new" with `want` the old side. Objects are walked over the
// sorted union of their keys, arrays by index, and numbers compare with ==;
// a key or element on one side only reads "(absent)" on the other. Paths are
// dotted, with [i] for array elements ("series[3].p99_us"), and the top level
// is "(document)"; the values of a path listed in `skip` are not compared.
// Empty = equal documents.
std::vector<std::string> DiffJson(const JsonValue& want, const JsonValue& got,
                                  const std::vector<std::string>& skip = {});

}  // namespace gs

#endif  // GHOST_SIM_SRC_BASE_JSON_H_
