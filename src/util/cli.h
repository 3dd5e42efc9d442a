// Minimal command-line flag parser for bench/example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--flag` /
// `--no-flag`. Unknown flags are an error so typos do not silently run the
// default experiment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace tt {

class Cli {
 public:
  Cli(std::string program_description);

  // Registration. `help` is shown by --help.
  void add_flag(const std::string& name, bool default_value,
                const std::string& help);
  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& help);
  void add_double(const std::string& name, double default_value,
                  const std::string& help);
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help);

  // Returns false if --help was requested (usage printed to stdout).
  // Throws std::invalid_argument on malformed/unknown flags.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] bool get_flag(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  // An integer flag that counts something (points, k, devices, ...).
  // Throws std::invalid_argument "--<name> must be >= 1 (got <v>)" for
  // values below 1, so a negative value never wraps into a huge size.
  [[nodiscard]] std::size_t get_count(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;

  void print_usage(std::ostream& os) const;

 private:
  enum class Kind { kFlag, kInt, kDouble, kString };
  struct Option {
    Kind kind;
    std::string help;
    bool flag_value = false;
    std::int64_t int_value = 0;
    double double_value = 0.0;
    std::string string_value;
  };
  const Option& find(const std::string& name, Kind kind) const;
  void set_from_string(Option& opt, const std::string& name,
                       const std::string& value);

  std::string description_;
  std::map<std::string, Option> options_;
};

}  // namespace tt
