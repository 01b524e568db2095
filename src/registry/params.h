// Shared vocabulary of the registry layer: string-keyed parameter maps
// (parsed from the command line) and tunable descriptors (self-describing
// metadata every registry entry publishes for `smq_run --list`).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
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

  // The typed getters return `fallback` for an unset or empty key and
  // throw std::invalid_argument naming the key unless the whole value
  // parses: "16x" or "1e6" as an integer, "banana" or "1/0" as a
  // probability would otherwise run silently as a prefix or as 0.

  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    return get_number(key, fallback, "an integer");
  }

  std::uint64_t get_uint(const std::string& key, std::uint64_t fallback) const {
    return get_number(key, fallback, "a non-negative integer");
  }

  double get_double(const std::string& key, double fallback) const {
    return get_number(key, fallback, "a number");
  }

  /// Probabilities appear both as decimals ("0.125") and as the paper's
  /// fraction notation ("1/8"), and must lie in [0, 1].
  double get_probability(const std::string& key, double fallback) const {
    const std::string v = get(key);
    if (v.empty()) return fallback;
    const std::string_view text = v;
    const auto slash = text.find('/');
    double p = 0;
    double den = 1;
    const bool parsed =
        slash == std::string_view::npos
            ? parse_whole(text, p)
            : parse_whole(text.substr(0, slash), p) &&
                  parse_whole(text.substr(slash + 1), den) && den != 0;
    if (parsed) p /= den;
    if (!parsed || !(p >= 0 && p <= 1)) {
      throw_malformed(key, "a probability in [0, 1] (0.125 or 1/8)");
    }
    return p;
  }

  const std::map<std::string, std::string>& entries() const { return kv_; }

  /// Lift every "--key value" / "--key=value" option of an already-parsed
  /// command line into a ParamMap (defined in scheduler_registry.cpp to
  /// keep this header light).
  static ParamMap from_args(const ArgParser& args);

 private:
  /// Whether all of `text` is one finite number of type T.
  template <typename T>
  static bool parse_whole(std::string_view text, T& out) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    if constexpr (std::is_floating_point_v<T>) {
      if (ec == std::errc() && !std::isfinite(out)) return false;
    }
    return ec == std::errc() && ptr == end;
  }

  template <typename T>
  T get_number(const std::string& key, T fallback, const char* kind) const {
    const auto it = kv_.find(key);
    if (it == kv_.end() || it->second.empty()) return fallback;
    T value{};
    if (!parse_whole(it->second, value)) throw_malformed(key, kind);
    return value;
  }

  [[noreturn]] void throw_malformed(const std::string& key,
                                    const char* kind) const {
    throw std::invalid_argument(key + " takes " + kind + ", got '" + get(key) +
                                "'");
  }

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

/// The display name of a configuration: `scheduler` with each of
/// `params` appended as "/key=value" ("obim/chunk-size=64").
inline std::string config_label(std::string_view scheduler,
                                const ParamMap& params) {
  std::string label(scheduler);
  for (const auto& [key, value] : params.entries()) {
    label += "/" + key + "=" + value;
  }
  return label;
}

}  // namespace smq
