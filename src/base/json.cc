#include "src/base/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

namespace gs {

// ---- Writer ---------------------------------------------------------------------

std::string JsonWriter::Escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (first_.back()) {
      first_.back() = false;
    } else {
      out_ += ',';
    }
  }
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  first_.push_back(true);
}

void JsonWriter::EndObject() {
  first_.pop_back();
  out_ += '}';
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  first_.push_back(true);
}

void JsonWriter::EndArray() {
  first_.pop_back();
  out_ += ']';
}

void JsonWriter::Key(std::string_view key) {
  if (!first_.empty()) {
    if (first_.back()) {
      first_.back() = false;
    } else {
      out_ += ',';
    }
  }
  out_ += '"';
  out_ += Escape(key);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ += '"';
  out_ += Escape(value);
  out_ += '"';
}

void JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
}

void JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
}

void JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";
    return;
  }
  // Integral doubles print without a fraction; everything else with enough
  // digits to round-trip typical metric values deterministically. The
  // magnitude test comes first: casting a double beyond int64 is undefined.
  if (std::abs(value) < 1e15 &&
      value == static_cast<double>(static_cast<int64_t>(value))) {
    out_ += std::to_string(static_cast<int64_t>(value));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  out_ += buf;
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
}

void JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_ += json;
}

// ---- Parser ---------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> Run() {
    SkipSpace();
    JsonValue value;
    if (!ParseValue(&value)) {
      return std::nullopt;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      Fail("trailing garbage after document");
      return std::nullopt;
    }
    return value;
  }

  // First recorded failure, as "line L:C: reason". Empty if Run() succeeded.
  std::string error() const {
    if (error_reason_.empty()) {
      return "";
    }
    size_t line = 1, col = 1;
    for (size_t i = 0; i < error_pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return "line " + std::to_string(line) + ":" + std::to_string(col) + ": " +
           error_reason_;
  }

 private:
  // Records the first failure (inner-most parse frames fail first, and their
  // position is the interesting one).
  bool Fail(const char* reason) {
    if (error_reason_.empty()) {
      error_reason_ = reason;
      error_pos_ = pos_;
    }
    return false;
  }
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input, expected a value");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return Literal("true") || Fail("bad literal, expected \"true\"");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return Literal("false") || Fail("bad literal, expected \"false\"");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null") || Fail("bad literal, expected \"null\"");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    if (!Eat('{')) {
      return false;
    }
    SkipSpace();
    if (Eat('}')) {
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) {
        return Fail("expected a quoted object key");
      }
      SkipSpace();
      if (!Eat(':')) {
        return Fail("expected ':' after object key");
      }
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->object.emplace(std::move(key), std::move(value));
      SkipSpace();
      if (Eat('}')) {
        return true;
      }
      if (!Eat(',')) {
        return Fail("expected ',' or '}' in object");
      }
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    if (!Eat('[')) {
      return false;
    }
    SkipSpace();
    if (Eat(']')) {
      return true;
    }
    while (true) {
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->array.push_back(std::move(value));
      SkipSpace();
      if (Eat(']')) {
        return true;
      }
      if (!Eat(',')) {
        return Fail("expected ',' or ']' in array");
      }
    }
  }

  bool ParseString(std::string* out) {
    if (!Eat('"')) {
      return false;
    }
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= h - '0';
            } else if (h >= 'a' && h <= 'f') {
              code |= h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              code |= h - 'A' + 10;
            } else {
              return false;
            }
          }
          // Non-ASCII escapes are preserved as UTF-8 (2/3-byte forms).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xc0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            *out += static_cast<char>(0xe0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            *out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          return Fail("bad escape sequence in string");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      return Fail("malformed number");
    }
    out->type = JsonValue::Type::kNumber;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_reason_;
  size_t error_pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) {
    return nullptr;
  }
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::optional<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).Run();
}

std::optional<JsonValue> JsonValue::Parse(std::string_view text, std::string* error) {
  Parser parser(text);
  std::optional<JsonValue> value = parser.Run();
  if (!value.has_value() && error != nullptr) {
    *error = parser.error();
  }
  return value;
}

// ---- Diff -----------------------------------------------------------------------

namespace {

// One side of a diff line. Numbers print in their shortest round-trip form,
// so two unequal numbers never print alike; containers print as a marker.
std::string DiffSide(const JsonValue* v) {
  if (v == nullptr) {
    return "(absent)";
  }
  switch (v->type) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return v->boolean ? "true" : "false";
    case JsonValue::Type::kNumber: {
      char buf[32];
      return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v->number).ptr);
    }
    case JsonValue::Type::kString: {
      JsonWriter w;
      w.String(v->string);
      return w.str();
    }
    case JsonValue::Type::kArray:
      return v->array.empty() ? "[]" : "[…]";
    case JsonValue::Type::kObject:
      return v->object.empty() ? "{}" : "{…}";
  }
  return "";
}

void DiffAt(const JsonValue* want, const JsonValue* got, const std::string& path,
            const std::vector<std::string>& skip, std::vector<std::string>* out) {
  if (std::find(skip.begin(), skip.end(), path) != skip.end()) {
    return;
  }
  const bool same_type = want != nullptr && got != nullptr && want->type == got->type;
  if (same_type && want->is_object()) {
    std::set<std::string> keys;
    for (const JsonValue* side : {want, got}) {
      for (const auto& [key, value] : side->object) {
        keys.insert(key);
      }
    }
    for (const std::string& key : keys) {
      DiffAt(want->Find(key), got->Find(key), path.empty() ? key : path + "." + key, skip,
             out);
    }
  } else if (same_type && want->is_array()) {
    for (size_t i = 0; i < std::max(want->array.size(), got->array.size()); ++i) {
      DiffAt(i < want->array.size() ? &want->array[i] : nullptr,
             i < got->array.size() ? &got->array[i] : nullptr,
             path + "[" + std::to_string(i) + "]", skip, out);
    }
  } else if (!same_type || (want->is_number() ? want->number != got->number
                                               : DiffSide(want) != DiffSide(got))) {
    // Other scalars print exactly what they hold, so equal text is equality.
    out->push_back((path.empty() ? "(document)" : path) + ": " + DiffSide(want) + " → " +
                   DiffSide(got));
  }
}

}  // namespace

std::vector<std::string> DiffJson(const JsonValue& want, const JsonValue& got,
                                  const std::vector<std::string>& skip) {
  std::vector<std::string> out;
  DiffAt(&want, &got, "", skip, &out);
  return out;
}

}  // namespace gs
