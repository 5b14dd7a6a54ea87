#include "dsjoin/common/cli.hpp"

#include <cassert>
#include <charconv>
#include <cstdio>
#include "dsjoin/common/strformat.hpp"

namespace dsjoin::common {

CliFlags& CliFlags::add_int(std::string name, std::int64_t default_value,
                            std::string help) {
  flags_[std::move(name)] =
      Flag{Kind::kInt, std::move(help), std::to_string(default_value)};
  return *this;
}

CliFlags& CliFlags::add_double(std::string name, double default_value,
                               std::string help) {
  flags_[std::move(name)] =
      Flag{Kind::kDouble, std::move(help), str_format("%.17g", default_value)};
  return *this;
}

CliFlags& CliFlags::add_string(std::string name, std::string default_value,
                               std::string help) {
  flags_[std::move(name)] =
      Flag{Kind::kString, std::move(help), std::move(default_value)};
  return *this;
}

CliFlags& CliFlags::add_bool(std::string name, bool default_value, std::string help) {
  flags_[std::move(name)] =
      Flag{Kind::kBool, std::move(help), default_value ? "true" : "false"};
  return *this;
}

Status CliFlags::parse(int argc, const char* const* argv) {
  Status status = parse_args(argc, argv);
  if (!status && status.code() != ErrorCode::kFailedPrecondition) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
  }
  return status;
}

Status CliFlags::parse_args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      return Status(ErrorCode::kFailedPrecondition, "help requested");
    }
    if (!arg.starts_with("--")) {
      return Status(ErrorCode::kInvalidArgument,
                    str_format("unexpected positional argument '%.*s'", static_cast<int>(arg.size()), arg.data()));
    }
    arg.remove_prefix(2);
    std::string name;
    std::string value;
    bool have_value = false;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
      have_value = true;
    } else {
      name = std::string(arg);
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return Status(ErrorCode::kInvalidArgument,
                    str_format("unknown flag '--%s'", name.c_str()));
    }
    Flag& flag = it->second;
    if (!have_value) {
      if (flag.kind == Kind::kBool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        return Status(ErrorCode::kInvalidArgument,
                      str_format("flag '--%s' expects a value", name.c_str()));
      }
    }
    // Validate numeric flags eagerly so errors point at the bad argument.
    if (flag.kind == Kind::kInt) {
      std::int64_t parsed{};
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), parsed);
      if (ec != std::errc{} || ptr != value.data() + value.size()) {
        return Status(ErrorCode::kInvalidArgument,
                      str_format("flag '--%s' expects an integer, got '%s'", name.c_str(), value.c_str()));
      }
    } else if (flag.kind == Kind::kDouble) {
      char* end = nullptr;
      (void)std::strtod(value.c_str(), &end);
      if (end != value.c_str() + value.size() || value.empty()) {
        return Status(ErrorCode::kInvalidArgument,
                      str_format("flag '--%s' expects a number, got '%s'", name.c_str(), value.c_str()));
      }
    } else if (flag.kind == Kind::kBool) {
      if (value != "true" && value != "false" && value != "1" && value != "0") {
        return Status(ErrorCode::kInvalidArgument,
                      str_format("flag '--%s' expects true/false, got '%s'", name.c_str(), value.c_str()));
      }
    }
    flag.value = std::move(value);
  }
  return Status::ok();
}

const CliFlags::Flag* CliFlags::find(std::string_view name, Kind kind) const {
  const auto it = flags_.find(name);
  assert(it != flags_.end() && "flag not declared");
  assert(it->second.kind == kind && "flag accessed with wrong type");
  (void)kind;
  return &it->second;
}

std::int64_t CliFlags::get_int(std::string_view name) const {
  const Flag* f = find(name, Kind::kInt);
  return std::stoll(f->value);
}

double CliFlags::get_double(std::string_view name) const {
  const Flag* f = find(name, Kind::kDouble);
  return std::stod(f->value);
}

const std::string& CliFlags::get_string(std::string_view name) const {
  return find(name, Kind::kString)->value;
}

bool CliFlags::get_bool(std::string_view name) const {
  const Flag* f = find(name, Kind::kBool);
  return f->value == "true" || f->value == "1";
}

std::string CliFlags::usage(std::string_view program) const {
  std::string out = str_format("%s\n\nUsage: %.*s [flags]\n\nFlags:\n",
                               description_.c_str(),
                               static_cast<int>(program.size()), program.data());
  for (const auto& [name, flag] : flags_) {
    out += str_format("  --%-24s %s (default: %s)\n", name.c_str(),
                      flag.help.c_str(), flag.value.c_str());
  }
  return out;
}

}  // namespace dsjoin::common
