// A small JSON reader for the service's response envelopes. The benchmark
// checks responses with its own parser rather than the program's codec, so
// a codec fault cannot hide from the checks.
#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  /// Member `key` of an object, or nullptr.
  const Json* Find(const std::string& key) const;
  /// Member `key` as a number / string / bool; `fallback` when absent or
  /// of another kind.
  double Num(const std::string& key, double fallback = 0) const;
  std::string Str(const std::string& key) const;
  bool Bool(const std::string& key) const;
};

/// Parses one JSON text; nullopt on any syntax error or trailing bytes.
std::optional<Json> ParseJson(std::string_view text);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
