#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace hprng::util {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", argv[i]);
      std::exit(2);
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      kv_[std::string(arg)] = "true";
    } else {
      kv_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

const std::string* Cli::find(const std::string& key) const {
  read_.insert(key);
  const auto it = kv_.find(key);
  return it == kv_.end() ? nullptr : &it->second;
}

std::uint64_t Cli::get_u64(const std::string& key, std::uint64_t def) const {
  const std::string* v = find(key);
  return v == nullptr ? def : std::strtoull(v->c_str(), nullptr, 0);
}

double Cli::get_double(const std::string& key, double def) const {
  const std::string* v = find(key);
  return v == nullptr ? def : std::strtod(v->c_str(), nullptr);
}

std::string Cli::get_string(const std::string& key, std::string def) const {
  const std::string* v = find(key);
  return v == nullptr ? def : *v;
}

bool Cli::get_bool(const std::string& key, bool def) const {
  const std::string* v = find(key);
  if (v == nullptr) return def;
  return *v == "true" || *v == "1" || *v == "yes";
}

bool Cli::has(const std::string& key) const { return find(key) != nullptr; }

std::vector<std::string> Cli::unread() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : kv_) {
    if (read_.count(key) == 0) out.push_back(key);
  }
  return out;
}

}  // namespace hprng::util
