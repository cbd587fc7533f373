// --key=value / --flag argument bag shared by the command-line tools.
//
// Each command names the keys it reads; anything else is a typo or a flag
// the command does not have, so parsing stops with exit code 2 instead of
// silently ignoring it.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace vbatt::tools {

class Args {
 public:
  /// Parses argv[first..]. Exits 2 on an argument that is not `--key` or
  /// `--key=value`, and on a key outside `accepted`.
  Args(int argc, char** argv, int first,
       const std::vector<std::string>& accepted) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      const std::string body = arg.substr(2);
      const std::size_t eq = body.find('=');
      const std::string key = body.substr(0, eq);
      if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
        std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
        std::exit(2);
      }
      values_.insert_or_assign(key, eq == std::string::npos
                                        ? std::string{"1"}
                                        : body.substr(eq + 1));
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double number(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  bool flag(const std::string& key) const { return values_.contains(key); }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace vbatt::tools
