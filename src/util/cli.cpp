#include "util/cli.h"

#include <charconv>
#include <iostream>
#include <stdexcept>
#include <string>

namespace tt {

Cli::Cli(std::string program_description)
    : description_(std::move(program_description)) {}

void Cli::add_flag(const std::string& name, bool default_value,
                   const std::string& help) {
  Option o;
  o.kind = Kind::kFlag;
  o.help = help;
  o.flag_value = default_value;
  options_.emplace(name, std::move(o));
}

void Cli::add_int(const std::string& name, std::int64_t default_value,
                  const std::string& help) {
  Option o;
  o.kind = Kind::kInt;
  o.help = help;
  o.int_value = default_value;
  options_.emplace(name, std::move(o));
}

void Cli::add_double(const std::string& name, double default_value,
                     const std::string& help) {
  Option o;
  o.kind = Kind::kDouble;
  o.help = help;
  o.double_value = default_value;
  options_.emplace(name, std::move(o));
}

void Cli::add_string(const std::string& name, const std::string& default_value,
                     const std::string& help) {
  Option o;
  o.kind = Kind::kString;
  o.help = help;
  o.string_value = default_value;
  options_.emplace(name, std::move(o));
}

void Cli::set_from_string(Option& opt, const std::string& name,
                          const std::string& value) {
  switch (opt.kind) {
    case Kind::kFlag:
      if (value == "true" || value == "1")
        opt.flag_value = true;
      else if (value == "false" || value == "0")
        opt.flag_value = false;
      else
        throw std::invalid_argument("bad boolean for --" + name + ": " +
                                    value);
      break;
    case Kind::kInt: {
      std::int64_t v = 0;
      auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
      if (ec != std::errc{} || p != value.data() + value.size())
        throw std::invalid_argument("bad integer for --" + name + ": " + value);
      opt.int_value = v;
      break;
    }
    case Kind::kDouble:
      try {
        std::size_t pos = 0;
        opt.double_value = std::stod(value, &pos);
        if (pos != value.size()) throw std::invalid_argument("trailing");
      } catch (const std::exception&) {
        throw std::invalid_argument("bad double for --" + name + ": " + value);
      }
      break;
    case Kind::kString:
      opt.string_value = value;
      break;
  }
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return false;
    }
    if (arg.rfind("--", 0) != 0)
      throw std::invalid_argument("positional arguments not supported: " + arg);
    std::string body = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = body.find('='); eq != std::string::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_value = true;
    }
    bool negated = false;
    auto it = options_.find(body);
    if (it == options_.end() && body.rfind("no-", 0) == 0) {
      it = options_.find(body.substr(3));
      negated = true;
    }
    if (it == options_.end()) {
      // Same shape as variant_from_name: name the offender, then list
      // everything that would have parsed (options_ iterates sorted).
      std::string msg = "unknown flag: --" + body + " (valid:";
      bool first = true;
      for (const auto& [name, opt] : options_) {
        msg += first ? " --" : ", --";
        msg += name;
        first = false;
      }
      msg += ")";
      throw std::invalid_argument(msg);
    }
    Option& opt = it->second;
    if (negated) {
      if (opt.kind != Kind::kFlag || has_value)
        throw std::invalid_argument("--no- prefix only valid for flags");
      opt.flag_value = false;
      continue;
    }
    if (opt.kind == Kind::kFlag && !has_value) {
      opt.flag_value = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for --" + body);
      value = argv[++i];
    }
    set_from_string(opt, body, value);
  }
  return true;
}

const Cli::Option& Cli::find(const std::string& name, Kind kind) const {
  auto it = options_.find(name);
  if (it == options_.end() || it->second.kind != kind)
    throw std::logic_error("option not registered with this type: " + name);
  return it->second;
}

bool Cli::get_flag(const std::string& name) const {
  return find(name, Kind::kFlag).flag_value;
}
std::int64_t Cli::get_int(const std::string& name) const {
  return find(name, Kind::kInt).int_value;
}
std::size_t Cli::get_count(const std::string& name) const {
  const std::int64_t v = get_int(name);
  if (v < 1)
    throw std::invalid_argument("--" + name + " must be >= 1 (got " +
                                std::to_string(v) + ")");
  return static_cast<std::size_t>(v);
}
double Cli::get_double(const std::string& name) const {
  return find(name, Kind::kDouble).double_value;
}
const std::string& Cli::get_string(const std::string& name) const {
  return find(name, Kind::kString).string_value;
}

void Cli::print_usage(std::ostream& os) const {
  os << description_ << "\n\nOptions:\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << name;
    switch (opt.kind) {
      case Kind::kFlag:
        os << " (flag, default " << (opt.flag_value ? "true" : "false") << ")";
        break;
      case Kind::kInt:
        os << "=<int> (default " << opt.int_value << ")";
        break;
      case Kind::kDouble:
        os << "=<float> (default " << opt.double_value << ")";
        break;
      case Kind::kString:
        os << "=<string> (default \"" << opt.string_value << "\")";
        break;
    }
    os << "\n      " << opt.help << "\n";
  }
}

}  // namespace tt
