// Minimal command-line argument parsing for the ivt tool.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ivt::cli {

/// Parses "--key value", "--key=value", bare "--flag" and positional
/// arguments. Keys keep their leading dashes stripped.
class Args {
 public:
  Args(int argc, const char* const* argv, int first = 1);

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Presence check for bare flags. Counts as a read: a flag the command
  /// consulted is not "unknown", even when absent from this invocation.
  [[nodiscard]] bool has(const std::string& key) const {
    if (!options_.contains(key)) return false;
    used_[key] = true;
    return true;
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;
  /// Throws std::invalid_argument with a usage-friendly message if absent.
  [[nodiscard]] std::string require(const std::string& key) const;

  /// Numeric values: the whole value must parse (no trailing garbage), or
  /// std::invalid_argument (a usage error) is thrown.
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  /// A non-negative integer no larger than `max` (sizes, counts, ports,
  /// durations); anything else is a usage error.
  [[nodiscard]] std::uint64_t get_count(
      const std::string& key, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::int64_t>::max()) const;

  /// Comma-separated list value; empty vector when absent.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& key) const;

  /// Options that were never read: unknown to the command, a usage error.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> options_;
  mutable std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
};

}  // namespace ivt::cli
