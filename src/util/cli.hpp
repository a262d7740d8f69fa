#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace hprng::util {

/// Minimal --key=value flag parser for the bench/example binaries.
/// Unknown positional arguments abort with a usage message. The getters
/// and has() record every key they are asked for, so a binary can call
/// unread() after its last flag read and reject the flags it never looked
/// at — a misspelled flag would otherwise silently run the default.
class Cli {
 public:
  Cli(int argc, char** argv);

  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       std::string def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;
  [[nodiscard]] bool has(const std::string& key) const;

  /// Flags given on the command line that no getter or has() has asked
  /// for yet, in key order.
  [[nodiscard]] std::vector<std::string> unread() const;

 private:
  /// The value given for `key`, or nullptr; records `key` as read.
  const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> read_;
};

}  // namespace hprng::util
