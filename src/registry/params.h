// Shared vocabulary of the registry layer: string-keyed parameter maps
// (parsed from the command line) and tunable descriptors (self-describing
// metadata every registry entry publishes for `smq_run --list`).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace smq {

class ArgParser;

/// One configurable knob of a registry entry, for listings and docs.
struct Tunable {
  std::string name;           // CLI key, e.g. "steal-size"
  std::string default_value;  // printed, not enforced
  std::string description;
};

/// Flat string key-value configuration, the lingua franca between the CLI
/// and registry factories. Typed getters parse on demand; factories read
/// only the keys they know, so one map can configure scheduler, algorithm
/// and graph source at once.
class ParamMap {
 public:
  ParamMap() = default;

  void set(std::string key, std::string value) {
    kv_[std::move(key)] = std::move(value);
  }

  bool has(const std::string& key) const { return kv_.count(key) != 0; }

  std::string get(const std::string& key, std::string fallback = "") const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
  }

  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() || it->second.empty()
               ? fallback
               : std::strtoll(it->second.c_str(), nullptr, 10);
  }

  std::uint64_t get_uint(const std::string& key, std::uint64_t fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() || it->second.empty()
               ? fallback
               : std::strtoull(it->second.c_str(), nullptr, 10);
  }

  double get_double(const std::string& key, double fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() || it->second.empty()
               ? fallback
               : std::strtod(it->second.c_str(), nullptr);
  }

  /// Probabilities appear both as decimals ("0.125") and as the paper's
  /// fraction notation ("1/8").
  double get_probability(const std::string& key, double fallback) const {
    const auto it = kv_.find(key);
    if (it == kv_.end() || it->second.empty()) return fallback;
    const std::string& v = it->second;
    if (const auto slash = v.find('/'); slash != std::string::npos) {
      const double num = std::strtod(v.substr(0, slash).c_str(), nullptr);
      const double den = std::strtod(v.substr(slash + 1).c_str(), nullptr);
      return den == 0 ? fallback : num / den;
    }
    return std::strtod(v.c_str(), nullptr);
  }

  const std::map<std::string, std::string>& entries() const { return kv_; }

  /// Lift every "--key value" / "--key=value" option of an already-parsed
  /// command line into a ParamMap (defined in scheduler_registry.cpp to
  /// keep this header light).
  static ParamMap from_args(const ArgParser& args);

 private:
  std::map<std::string, std::string> kv_;
};

/// Literal ParamMap construction, for registration tables and suite
/// definitions: params_of({{"c", "4"}, {"seed", "1"}}).
inline ParamMap params_of(
    std::initializer_list<std::pair<const char*, std::string>> kvs) {
  ParamMap params;
  for (const auto& [key, value] : kvs) params.set(key, value);
  return params;
}

}  // namespace smq
