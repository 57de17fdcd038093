// One machine-readable record per bench run, and the reader bench_gate
// compares two of them with (EXPERIMENTS.md, DESIGN.md §10):
//
//   BENCH_JSON {"bench":"<name>","config":{...},"det":{...},"wall":{...}}
//
// `config` holds the environment toggles that change `det`; the writer
// records the harness scale (TAS_SCALE) itself. `det` holds everything a
// run's seed fixes (simulated time, counts, structural state), so an
// unchanged tree reproduces it byte for byte and bench_gate requires exactly
// that. `wall` holds host time and memory; no gate reads it.
#ifndef BENCH_BENCH_RECORD_H_
#define BENCH_BENCH_RECORD_H_

#include <sys/resource.h>

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/harness/experiment.h"

namespace tas {
namespace bench {

inline long PeakRssKb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

class BenchRecord {
 public:
  explicit BenchRecord(std::string bench) : bench_(std::move(bench)) {
    Config("scale", FullScale() ? "full" : "reduced");
  }

  template <typename T>
  void Config(const std::string& key, const T& value) {
    Add(&config_, key, Scalar(value));
  }
  template <typename T>
  void Det(const std::string& key, const T& value) {
    Add(&det_, key, Scalar(value));
  }
  template <typename T>
  void Wall(const std::string& key, const T& value) {
    Add(&wall_, key, Scalar(value));
  }
  // `json` goes in verbatim: a nested report or an object the bench built.
  void DetJson(const std::string& key, const std::string& json) { Add(&det_, key, json); }
  void WallJson(const std::string& key, const std::string& json) { Add(&wall_, key, json); }

  // Prints the record line, with wall.peak_rss_kb read now.
  void Print() {
    Wall("peak_rss_kb", PeakRssKb());
    std::cout << "BENCH_JSON {\"bench\":\"" << bench_ << "\",\"config\":{" << config_
              << "},\"det\":{" << det_ << "},\"wall\":{" << wall_ << "}}" << std::endl;
  }

 private:
  // A number as std::ostream prints it by default, a bool as a JSON
  // literal, anything else as a string.
  template <typename T>
  static std::string Scalar(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      return value ? "true" : "false";
    } else if constexpr (std::is_arithmetic_v<T>) {
      std::ostringstream os;
      os << value;
      return os.str();
    } else {
      std::string quoted(1, '"');
      quoted.append(value).push_back('"');
      return quoted;
    }
  }

  static void Add(std::string* object, const std::string& key, const std::string& json) {
    *object += (object->empty() ? "\"" : ",\"") + key + "\":" + json;
  }

  std::string bench_;
  std::string config_;
  std::string det_;
  std::string wall_;
};

// --- Reader -----------------------------------------------------------------

// One parsed JSON value and its source text, verbatim.
struct JsonNode {
  std::string key;  // Member name within its parent object; "" elsewhere.
  std::string text;
  std::vector<JsonNode> members;  // Object members or array elements.

  bool is_object() const { return text[0] == '{'; }
  const JsonNode* Find(const std::string& name) const {
    for (const JsonNode& m : members) {
      if (m.key == name) {
        return &m;
      }
    }
    return nullptr;
  }
};

// A strict JSON parser with bounded nesting; string escapes are kept as
// written, not decoded.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  // Parses `text` as exactly one value, surrounded by whitespace at most.
  bool ParseAll(JsonNode* node) {
    if (!Value(node, 0)) {
      return false;
    }
    Space();
    return pos_ == text_.size();
  }

 private:
  static constexpr int kMaxDepth = 32;

  bool Value(JsonNode* node, int depth) {
    Space();
    if (depth > kMaxDepth || pos_ >= text_.size()) {
      return false;
    }
    const size_t start = pos_;
    const char c = text_[pos_];
    bool ok = false;
    if (c == '{' || c == '[') {
      ok = Members(node, c == '{', depth);
    } else if (c == '"') {
      ok = String(nullptr);
    } else {
      ok = Literal() || Number();
    }
    node->text = text_.substr(start, pos_ - start);
    return ok;
  }

  bool Members(JsonNode* node, bool object, int depth) {
    const char close = object ? '}' : ']';
    ++pos_;
    Space();
    if (pos_ < text_.size() && text_[pos_] == close) {
      ++pos_;
      return true;
    }
    while (true) {
      JsonNode member;
      if (object) {
        Space();
        if (!String(&member.key)) {
          return false;
        }
        Space();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return false;
        }
        ++pos_;
      }
      if (!Value(&member, depth + 1)) {
        return false;
      }
      node->members.push_back(std::move(member));
      Space();
      if (pos_ >= text_.size()) {
        return false;
      }
      const char c = text_[pos_++];
      if (c == close) {
        return true;
      }
      if (c != ',') {
        return false;
      }
    }
  }

  // A string; *out (if given) gets its contents between the quotes.
  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    const size_t start = ++pos_;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c < 0x20) {
        return false;
      }
      if (c == '"') {
        if (out != nullptr) {
          *out = text_.substr(start, pos_ - start);
        }
        ++pos_;
        return true;
      }
      pos_ += c == '\\' ? 2 : 1;
    }
    return false;
  }

  bool Literal() {
    for (const char* word : {"true", "false", "null"}) {
      const std::string w(word);
      if (text_.compare(pos_, w.size(), w) == 0) {
        pos_ += w.size();
        return true;
      }
    }
    return false;
  }

  // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  bool Number() {
    Accept('-');
    if (!Accept('0') && Digits() == 0) {
      return false;
    }
    if (Accept('.') && Digits() == 0) {
      return false;
    }
    if (Accept('e') || Accept('E')) {
      if (!Accept('+')) {
        Accept('-');
      }
      if (Digits() == 0) {
        return false;
      }
    }
    return true;
  }

  bool Accept(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  size_t Digits() {
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - start;
  }
  void Space() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Reads the bench record in `text`: a bench's stdout holding one BENCH_JSON
// line, or the record's JSON object alone (a baseline file). The record must
// carry a string `bench` and objects `config` and `det`; `wall`, when
// present, must be an object. On failure, *error says why.
inline bool ReadBenchRecord(const std::string& text, JsonNode* record, std::string* error) {
  const std::string prefix = "BENCH_JSON ";
  std::string json;
  for (size_t line = 0; line < text.size();) {
    const size_t end = std::min(text.find('\n', line), text.size());
    if (text.compare(line, prefix.size(), prefix) == 0) {
      if (!json.empty()) {
        *error = "more than one BENCH_JSON line";
        return false;
      }
      json = text.substr(line + prefix.size(), end - line - prefix.size());
    }
    line = end + 1;
  }
  if (json.empty()) {
    const size_t first = text.find_first_not_of(" \t\r\n");
    if (first == std::string::npos || text[first] != '{') {
      *error = "no BENCH_JSON line and not a record object";
      return false;
    }
    json = text;
  }
  *record = JsonNode{};
  if (!JsonReader(json).ParseAll(record) || !record->is_object()) {
    *error = "malformed record JSON";
    return false;
  }
  const JsonNode* bench = record->Find("bench");
  const JsonNode* config = record->Find("config");
  const JsonNode* det = record->Find("det");
  const JsonNode* wall = record->Find("wall");
  if (bench == nullptr || bench->text[0] != '"' || config == nullptr || !config->is_object() ||
      det == nullptr || !det->is_object() || (wall != nullptr && !wall->is_object())) {
    *error = "record lacks a string bench, a config object or a det object";
    return false;
  }
  return true;
}

// Appends every leaf under `node` as (path, source text). Array elements
// are labelled by their first member when that is a string (a stage, edge
// or request-class name), else by index. Empty objects and arrays are
// leaves.
inline void FlattenJson(const JsonNode& node, const std::string& path,
                        std::vector<std::pair<std::string, std::string>>* leaves) {
  if (node.members.empty()) {
    leaves->emplace_back(path, node.text);
    return;
  }
  for (size_t i = 0; i < node.members.size(); ++i) {
    const JsonNode& m = node.members[i];
    std::string label = std::to_string(i);
    if (m.is_object() && !m.members.empty() && m.members[0].text[0] == '"') {
      label = m.members[0].text.substr(1, m.members[0].text.size() - 2);
    }
    FlattenJson(m, node.is_object() ? path + "." + m.key : path + "[" + label + "]", leaves);
  }
}

}  // namespace bench
}  // namespace tas

#endif  // BENCH_BENCH_RECORD_H_
