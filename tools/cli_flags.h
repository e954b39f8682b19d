// Shared typed flag parser for the ftbfs CLI subcommands.
//
// Every subcommand declares its surface once — required flags and optional
// flags with defaults — and gets for free:
//   * `--flag value` and `--flag=value` parsing with unknown-flag rejection,
//   * `--help` / `-h` rendering the declared surface (parse() returns false
//     and the caller exits 0),
//   * typed getters (get_uint / get_double / get_switch) with strict
//     validation — "12x", "-1" or "nan" is a usage error, not a silent
//     wraparound.
//
// Errors throw UsageError; main() turns those into exit code 2 with a pointer
// at `ftbfs <command> --help`. Runtime failures (I/O, snapshot rejection) are
// exit code 1, success is 0 — the exit-code contract docs/serving.md states.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace ftbfs::cli {

// A command-line the user needs to correct; caught in main() → exit 2.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(std::string command, const std::string& why)
      : std::runtime_error(why), command_(std::move(command)) {}
  [[nodiscard]] const std::string& command() const { return command_; }

 private:
  std::string command_;
};

class FlagParser {
 public:
  FlagParser(std::string command, std::string summary)
      : command_(std::move(command)), summary_(std::move(summary)) {}

  // Free-form lines appended after the flag table in --help (wire-format
  // notes, examples). Each call adds one line.
  FlagParser& note(std::string line) {
    notes_.push_back(std::move(line));
    return *this;
  }

  FlagParser& required(const std::string& name, std::string hint,
                       std::string help) {
    specs_.push_back({name, std::move(hint), std::move(help), "", true});
    return *this;
  }

  // `preset` is the default rendered in --help; empty = "no default" (the
  // flag is simply absent unless given).
  FlagParser& optional(const std::string& name, std::string hint,
                       std::string help, std::string preset = "") {
    specs_.push_back(
        {name, std::move(hint), std::move(help), std::move(preset), false});
    return *this;
  }

  // Parses argv[start..). Returns false when --help was consumed (help is on
  // stdout; the caller exits 0). Throws UsageError on anything malformed.
  bool parse(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_help(stdout);
        return false;
      }
      if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
        fail("expected --flag value, got '" + arg + "'");
      }
      std::string name = arg.substr(2);
      std::string value;
      if (const std::size_t eq = name.find('='); eq != std::string::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
      } else {
        if (i + 1 >= argc) fail("--" + name + " requires a value");
        value = argv[++i];
      }
      if (find(name) == nullptr) fail("unknown flag --" + name);
      values_[name] = std::move(value);  // repeated flag: last one wins
    }
    for (const Spec& spec : specs_) {
      if (spec.required && !values_.contains(spec.name)) {
        fail("missing --" + spec.name);
      }
    }
    return true;
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return values_.contains(name);
  }

  // String value; `fallback` when absent. The no-fallback overload is for
  // required flags (parse() already guaranteed presence).
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] const std::string& get(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) fail("missing --" + name);
    return it->second;
  }

  // Strict unsigned integer: digits only, within [min, max].
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t fallback,
                                       std::uint64_t min = 0,
                                       std::uint64_t max = UINT64_MAX) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return check_range(name, fallback, min, max);
    const std::string& text = it->second;
    if (text.empty() || text.size() > 19 ||
        text.find_first_not_of("0123456789") != std::string::npos) {
      fail("--" + name + " must be an unsigned integer");
    }
    return check_range(name, std::stoull(text), min, max);
  }

  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    std::size_t used = 0;
    double parsed = 0.0;
    try {
      parsed = std::stod(it->second, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != it->second.size()) {
      fail("--" + name + " must be a number");
    }
    if (!std::isfinite(parsed)) fail("--" + name + " must be a finite number");
    return parsed;
  }

  // on|off switch.
  [[nodiscard]] bool get_switch(const std::string& name, bool fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    if (it->second == "on") return true;
    if (it->second == "off") return false;
    fail("--" + name + " must be on or off");
  }

  void print_help(std::FILE* out) const {
    std::fprintf(out, "usage: ftbfs %s [flags]\n  %s\n", command_.c_str(),
                 summary_.c_str());
    if (!specs_.empty()) std::fprintf(out, "flags:\n");
    for (const Spec& spec : specs_) {
      std::string left = "--" + spec.name + " " + spec.hint;
      std::string tail;
      if (spec.required) {
        tail = "  (required)";
      } else if (!spec.preset.empty()) {
        tail = "  (default: " + spec.preset + ")";
      }
      std::fprintf(out, "  %-26s %s%s\n", left.c_str(), spec.help.c_str(),
                   tail.c_str());
    }
    for (const std::string& line : notes_) {
      std::fprintf(out, "%s\n", line.c_str());
    }
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw UsageError(command_, why);
  }

 private:
  struct Spec {
    std::string name;
    std::string hint;
    std::string help;
    std::string preset;  // default shown in --help; "" = none
    bool required;
  };

  [[nodiscard]] const Spec* find(const std::string& name) const {
    for (const Spec& spec : specs_) {
      if (spec.name == name) return &spec;
    }
    return nullptr;
  }

  [[nodiscard]] std::uint64_t check_range(const std::string& name,
                                          std::uint64_t value,
                                          std::uint64_t min,
                                          std::uint64_t max) const {
    if (value < min || value > max) {
      fail("--" + name + " must be in " + std::to_string(min) + ".." +
           std::to_string(max));
    }
    return value;
  }

  std::string command_;
  std::string summary_;
  std::vector<Spec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> notes_;
};

}  // namespace ftbfs::cli
