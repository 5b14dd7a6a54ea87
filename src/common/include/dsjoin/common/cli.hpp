// Tiny command-line flag parser for the examples and bench harnesses.
//
// Supports `--name=value`, `--name value` and boolean `--name` forms; every
// flag is declared with a default and a help line, and `--help` prints the
// synthesized usage text. Unknown flags are an error so typos in experiment
// parameters fail loudly instead of silently running the default.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dsjoin/common/status.hpp"

namespace dsjoin::common {

/// Declarative flag set.
class CliFlags {
 public:
  explicit CliFlags(std::string program_description)
      : description_(std::move(program_description)) {}

  /// Declares a flag. Call before parse(). Returns *this for chaining.
  CliFlags& add_int(std::string name, std::int64_t default_value, std::string help);
  CliFlags& add_double(std::string name, double default_value, std::string help);
  CliFlags& add_string(std::string name, std::string default_value, std::string help);
  CliFlags& add_bool(std::string name, bool default_value, std::string help);

  /// Parses argv. On `--help` prints usage to stdout and returns
  /// kFailedPrecondition so callers can exit cleanly; other failures print
  /// `error: <reason>` to stderr and return kInvalidArgument.
  Status parse(int argc, const char* const* argv);

  std::int64_t get_int(std::string_view name) const;
  double get_double(std::string_view name) const;
  const std::string& get_string(std::string_view name) const;
  bool get_bool(std::string_view name) const;

  /// Usage text derived from the declared flags.
  std::string usage(std::string_view program) const;

 private:
  enum class Kind { kInt, kDouble, kString, kBool };
  struct Flag {
    Kind kind;
    std::string help;
    std::string value;  // textual; converted on read
  };

  Status parse_args(int argc, const char* const* argv);
  const Flag* find(std::string_view name, Kind kind) const;

  std::string description_;
  std::map<std::string, Flag, std::less<>> flags_;
};

}  // namespace dsjoin::common
