// bench_gate: the CI gate for every checked-in bench baseline.
//
// Usage: bench_gate <baseline> <current>
//
// Each file holds one bench record (bench/bench_record.h): a baseline file
// holds the record's JSON object, and `current` may be a bench's whole
// stdout. The rule is one for every bench: the records must name the same
// bench and config, and their `det` objects must be byte-identical. `det`
// is simulated time, counts and structural state, which an unchanged tree
// reproduces exactly, so there is no tolerance. `wall` is never read.
//
// Exit status: 0 pass; 1 `det` differs, with every differing leaf printed
// next to its baseline and current value; 2 unreadable or malformed input,
// or records of a different bench or config. Re-record a baseline
// deliberately when a change moves a simulated value (EXPERIMENTS.md).
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_record.h"

namespace {

using tas::bench::JsonNode;
using Leaves = std::vector<std::pair<std::string, std::string>>;

bool ReadFile(const char* path, std::string* out) {
  std::ifstream is(path);
  if (!is) {
    return false;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  *out = ss.str();
  return true;
}

bool ReadRecord(const char* path, JsonNode* record) {
  std::string text;
  std::string error = "cannot read the file";
  if (ReadFile(path, &text) && tas::bench::ReadBenchRecord(text, record, &error)) {
    return true;
  }
  std::cerr << "bench_gate: " << path << ": " << error << "\n";
  return false;
}

// Prints every det leaf whose value differs or that only one side has, in
// baseline order and then current order; returns how many.
size_t PrintDifferences(const JsonNode& base, const JsonNode& cur) {
  Leaves base_leaves;
  Leaves cur_leaves;
  tas::bench::FlattenJson(base, "det", &base_leaves);
  tas::bench::FlattenJson(cur, "det", &cur_leaves);
  const std::map<std::string, std::string> base_map(base_leaves.begin(), base_leaves.end());
  const std::map<std::string, std::string> cur_map(cur_leaves.begin(), cur_leaves.end());
  size_t differing = 0;
  for (const auto& [path, value] : base_leaves) {
    const auto it = cur_map.find(path);
    const std::string current = it == cur_map.end() ? "(absent)" : it->second;
    if (current != value) {
      std::cout << "  " << path << ": baseline " << value << ", current " << current << "\n";
      ++differing;
    }
  }
  for (const auto& [path, value] : cur_leaves) {
    if (base_map.count(path) == 0) {
      std::cout << "  " << path << ": baseline (absent), current " << value << "\n";
      ++differing;
    }
  }
  return differing;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: bench_gate <baseline> <current>\n";
    return 2;
  }
  JsonNode base;
  JsonNode cur;
  if (!ReadRecord(argv[1], &base) || !ReadRecord(argv[2], &cur)) {
    return 2;
  }
  const std::string& quoted = base.Find("bench")->text;
  const std::string bench = quoted.substr(1, quoted.size() - 2);
  for (const char* part : {"bench", "config"}) {
    const std::string& want = base.Find(part)->text;
    const std::string& got = cur.Find(part)->text;
    if (want != got) {
      std::cerr << "bench_gate: the records differ in " << part << ": baseline " << want
                << ", current " << got << "\n";
      return 2;
    }
  }

  const JsonNode& base_det = *base.Find("det");
  const JsonNode& cur_det = *cur.Find("det");
  if (base_det.text == cur_det.text) {
    std::cout << "bench_gate: " << bench << " PASS (det matches the baseline byte for byte)\n";
    return 0;
  }
  std::cout << "bench_gate: " << bench << " det differs from the baseline:\n";
  if (PrintDifferences(base_det, cur_det) == 0) {
    std::cout << "  (the same leaves and values, in a different order or spacing)\n";
  }
  std::cout << "bench_gate: FAIL\n";
  return 1;
}
