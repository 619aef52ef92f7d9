#include "cli/args.hpp"

#include <stdexcept>

namespace ivt::cli {

Args::Args(int argc, const char* const* argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--key value" unless the next token is another option or absent.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "";  // bare flag
    }
  }
}

std::optional<std::string> Args::get(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return std::nullopt;
  used_[key] = true;
  return it->second;
}

std::string Args::get_or(const std::string& key,
                         const std::string& fallback) const {
  return get(key).value_or(fallback);
}

std::string Args::require(const std::string& key) const {
  if (const auto v = get(key)) return *v;
  throw std::invalid_argument("missing required option --" + key);
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  std::size_t used = 0;
  double out = 0.0;
  try {
    out = std::stod(*v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v->size()) {
    throw std::invalid_argument("option --" + key + " expects a number, got '" +
                                *v + "'");
  }
  return out;
}

std::int64_t Args::get_int(const std::string& key,
                           std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  std::size_t used = 0;
  std::int64_t out = 0;
  try {
    out = std::stoll(*v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v->size()) {
    throw std::invalid_argument("option --" + key +
                                " expects an integer, got '" + *v + "'");
  }
  return out;
}

std::uint64_t Args::get_count(const std::string& key, std::uint64_t fallback,
                              std::uint64_t max) const {
  const std::int64_t value =
      get_int(key, static_cast<std::int64_t>(fallback));
  if (value < 0 || static_cast<std::uint64_t>(value) > max) {
    throw std::invalid_argument("option --" + key + " expects a count in [0, " +
                                std::to_string(max) + "], got '" +
                                std::to_string(value) + "'");
  }
  return static_cast<std::uint64_t>(value);
}

std::vector<std::string> Args::get_list(const std::string& key) const {
  std::vector<std::string> out;
  const auto v = get(key);
  if (!v || v->empty()) return out;
  std::size_t start = 0;
  while (start <= v->size()) {
    const std::size_t comma = v->find(',', start);
    if (comma == std::string::npos) {
      out.push_back(v->substr(start));
      break;
    }
    out.push_back(v->substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : options_) {
    if (!used_.contains(key)) out.push_back(key);
  }
  return out;
}

}  // namespace ivt::cli
