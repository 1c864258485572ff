#include "util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace optimus::util {

Cli::Cli(int argc, char** argv) : program_(argc >= 1 ? argv[0] : "program") {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) fail("expected --flag, got '" + arg + "'");
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

std::optional<std::string> Cli::raw(const std::string& name, const std::string& default_text) {
  if (consumed_.insert(name).second) known_.emplace_back(name, default_text);
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

long long Cli::parse_integer(const std::string& name, const std::string& text) const {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE) {
    fail("--" + name + " expects an integer, got '" + text + "'");
  }
  return v;
}

int Cli::get_int(const std::string& name, int default_value, int min_value) {
  const auto v = raw(name, std::to_string(default_value));
  if (!v) return default_value;
  const long long x = parse_integer(name, *v);
  if (x < min_value || x > INT_MAX) {
    fail("--" + name + " must be in [" + std::to_string(min_value) + ", " +
         std::to_string(INT_MAX) + "], got " + *v);
  }
  return static_cast<int>(x);
}

long long Cli::get_i64(const std::string& name, long long default_value) {
  const auto v = raw(name, std::to_string(default_value));
  if (!v) return default_value;
  return parse_integer(name, *v);
}

double Cli::get_double(const std::string& name, double default_value) {
  std::ostringstream default_text;
  default_text << default_value;
  const auto v = raw(name, default_text.str());
  if (!v) return default_value;
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v->c_str(), &end);
  if (v->empty() || *end != '\0' || errno == ERANGE) {
    fail("--" + name + " expects a number, got '" + *v + "'");
  }
  return x;
}

std::string Cli::get_string(const std::string& name, const std::string& default_value) {
  const auto v = raw(name, default_value.empty() ? "\"\"" : default_value);
  return v ? *v : default_value;
}

bool Cli::get_bool(const std::string& name, bool default_value) {
  const auto v = raw(name, default_value ? "true" : "false");
  if (!v) return default_value;
  return *v == "true" || *v == "1" || *v == "yes";
}

bool Cli::has(const std::string& name) const { return values_.count(name) > 0; }

void Cli::finish() const {
  if (values_.count("help") > 0 && consumed_.count("help") == 0) fail("", /*all_flags=*/true);
  for (const auto& [name, value] : values_) {
    if (consumed_.count(name) == 0) fail("unknown flag --" + name + "=" + value, true);
  }
}

void Cli::fail(const std::string& message, bool all_flags) const {
  std::string usage = "usage: " + program_;
  for (const auto& [name, default_text] : known_) usage += " [--" + name + "=" + default_text + "]";
  if (!all_flags) usage += " ... (--help lists every flag)";
  if (!message.empty()) std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
  std::fprintf(stderr, "%s\n", usage.c_str());
  std::fflush(nullptr);
  std::_Exit(2);
}

}  // namespace optimus::util
