// Minimal command-line / environment parsing and table printing for the
// bench harness and examples. Deliberately dependency-free.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace smq {

/// Parses "--key value" and "--key=value" pairs plus bare "--flag"s.
class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  bool has_flag(std::string_view name) const;
  std::string get(std::string_view name, std::string fallback = "") const;
  std::int64_t get_int(std::string_view name, std::int64_t fallback) const;
  double get_double(std::string_view name, double fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Every parsed "--key value" pair, in command-line order (consumed by
  /// ParamMap::from_args so registry factories can read their tunables).
  const std::vector<std::pair<std::string, std::string>>& options() const {
    return options_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> options_;
  std::vector<std::string> positional_;
};

/// Split `text` on `sep`, dropping empty segments — the list syntax of
/// every CLI value here ("smq,mq", "1,4,8", "100,1000"). One
/// definition so the parsers' edge cases cannot drift apart.
std::vector<std::string> split_list(std::string_view text, char sep);

/// Parse a "--threads 1,4,8" sweep spec into thread counts. Throws
/// std::invalid_argument on an empty list or a non-positive /
/// non-numeric element ("--threads 0" is rejected here).
std::vector<unsigned> parse_thread_list(std::string_view spec);

/// Non-empty warning when any requested count oversubscribes the
/// machine (`hardware_threads` from std::thread::hardware_concurrency(),
/// passed in so the policy is unit-testable; 0 = unknown, never warns).
/// Oversubscription is legal — spin-heavy schedulers just measure
/// timeslice luck instead of contention — so this warns, not rejects.
std::string oversubscription_warning(const std::vector<unsigned>& threads,
                                     unsigned hardware_threads);

/// Levenshtein distance between two names (insert/delete/substitute,
/// unit costs); the "did you mean" metric for unknown CLI flags.
std::size_t edit_distance(std::string_view a, std::string_view b);

/// The closest entry of `known` to `unknown` within a sane typo budget
/// (distance <= 2, or <= len/3 for long names); "" when nothing close.
std::string nearest_name(std::string_view unknown,
                         const std::vector<std::string>& known);

/// "unknown option --X (did you mean --Y?)" — the suggestion clause is
/// dropped when no known name is near.
std::string unknown_flag_message(std::string_view flag,
                                 const std::vector<std::string>& known);

/// Fixed-width ASCII table, paper-style: header row, then data rows.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

  static std::string fmt(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace smq
