#include "support/cli.h"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace smq {

ArgParser::ArgParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (auto eq = arg.find('='); eq != std::string_view::npos) {
      options_.emplace_back(std::string(arg.substr(0, eq)),
                            std::string(arg.substr(eq + 1)));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      options_.emplace_back(std::string(arg), std::string(argv[++i]));
    } else {
      options_.emplace_back(std::string(arg), "");
    }
  }
}

bool ArgParser::has_flag(std::string_view name) const {
  return std::any_of(options_.begin(), options_.end(),
                     [&](const auto& kv) { return kv.first == name; });
}

std::string ArgParser::get(std::string_view name, std::string fallback) const {
  for (const auto& [key, value] : options_) {
    if (key == name) return value;
  }
  return fallback;
}

std::int64_t ArgParser::get_int(std::string_view name, std::int64_t fallback) const {
  const std::string v = get(name);
  return v.empty() ? fallback : std::strtoll(v.c_str(), nullptr, 10);
}

double ArgParser::get_double(std::string_view name, double fallback) const {
  const std::string v = get(name);
  return v.empty() ? fallback : std::strtod(v.c_str(), nullptr);
}

std::vector<std::string> split_list(std::string_view text, char sep) {
  std::vector<std::string> out;
  for (std::size_t pos = 0; pos <= text.size();) {
    std::size_t end = text.find(sep, pos);
    if (end == std::string_view::npos) end = text.size();
    if (end > pos) out.emplace_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

std::vector<unsigned> parse_thread_list(std::string_view spec) {
  // Far above any real machine, far below where the unsigned narrowing
  // could wrap: overflowing values must be rejected, not reinterpreted.
  constexpr long kMaxThreads = 1 << 20;
  std::vector<unsigned> counts;
  for (const std::string& part : split_list(spec, ',')) {
    char* end = nullptr;
    const long n = std::strtol(part.c_str(), &end, 10);
    if (n <= 0 || n > kMaxThreads || end == part.c_str() || *end != '\0') {
      throw std::invalid_argument("bad thread count: " + part);
    }
    counts.push_back(static_cast<unsigned>(n));
  }
  if (counts.empty()) {
    throw std::invalid_argument("empty thread list: " + std::string(spec));
  }
  return counts;
}

std::string oversubscription_warning(const std::vector<unsigned>& threads,
                                     unsigned hardware_threads) {
  if (hardware_threads == 0) return {};
  unsigned worst = 0;
  for (const unsigned n : threads) worst = std::max(worst, n);
  if (worst <= hardware_threads) return {};
  std::ostringstream ss;
  ss << "warning: --threads " << worst << " exceeds the "
     << hardware_threads << " hardware thread"
     << (hardware_threads == 1 ? "" : "s")
     << " of this machine; timings will measure oversubscription, not "
        "scheduler contention";
  return ss.str();
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  // One-row Levenshtein; names are short, so O(|a|*|b|) is nothing.
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitute = diagonal + (a[i - 1] != b[j - 1]);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
    }
  }
  return row[b.size()];
}

std::string nearest_name(std::string_view unknown,
                         const std::vector<std::string>& known) {
  std::string best;
  std::size_t best_distance = ~std::size_t{0};
  for (const std::string& candidate : known) {
    const std::size_t d = edit_distance(unknown, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  // A suggestion further than a plausible typo misleads more than it
  // helps: allow 2 edits, or a third of the name for long names.
  const std::size_t budget = std::max<std::size_t>(2, unknown.size() / 3);
  return best_distance <= budget ? best : std::string{};
}

std::string unknown_flag_message(std::string_view flag,
                                 const std::vector<std::string>& known) {
  std::string msg = "unknown option --" + std::string(flag);
  const std::string suggestion = nearest_name(flag, known);
  if (!suggestion.empty()) msg += " (did you mean --" + suggestion + "?)";
  return msg;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(width[c]))
         << cells[c];
    }
    os << " |\n";
  };
  line(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << (c == 0 ? "|" : "-|") << std::string(width[c] + 2, '-');
  }
  os << "-|\n";
  for (const auto& row : rows_) line(row);
}

std::string TablePrinter::fmt(double v, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << v;
  return ss.str();
}

}  // namespace smq
