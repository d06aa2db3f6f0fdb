#include "util/cli.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace pulse::util {

namespace {

/// `value` read whole by `parse` (std::stoll or std::stod); a value it
/// cannot read, or reads only a prefix of ("3x", "2.5" as an integer), or a
/// double that is not finite, is an error naming the flag.
template <typename Parse>
auto parse_whole(std::string_view name, const std::string& value, Parse parse) {
  std::size_t used = 0;
  try {
    const auto parsed = parse(value, &used);
    if (used == value.size()) return parsed;
  } catch (const std::logic_error&) {  // std::invalid_argument, std::out_of_range
  }
  throw std::invalid_argument("invalid value for --" + std::string(name) + ": '" + value + "'");
}

}  // namespace

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_flag(std::string name, std::string default_value, std::string help) {
  order_.push_back(name);
  flags_[std::move(name)] = Flag{default_value, std::move(default_value), std::move(help), false};
}

void CliParser::add_switch(std::string name, std::string help) {
  order_.push_back(name);
  flags_[std::move(name)] = Flag{"false", "false", std::move(help), true};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string name;
    std::optional<std::string> value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      error_ = "unknown flag: --" + name;
      return false;
    }
    if (it->second.is_switch) {
      it->second.value = value.value_or("true");
      continue;
    }
    if (!value) {
      if (i + 1 >= argc) {
        error_ = "flag --" + name + " requires a value";
        return false;
      }
      value = argv[++i];
    }
    it->second.value = *value;
  }
  return true;
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const auto& f = flags_.at(name);
    os << "  --" << name;
    if (!f.is_switch) os << "=<value>";
    os << "\n      " << f.help;
    if (!f.is_switch) os << " (default: " << f.default_value << ")";
    os << "\n";
  }
  os << "  --help\n      Show this message\n";
  return os.str();
}

const CliParser::Flag* CliParser::find(std::string_view name) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

std::string CliParser::get_string(std::string_view name) const {
  const Flag* f = find(name);
  if (!f) throw std::invalid_argument("unregistered flag: " + std::string(name));
  return f->value;
}

std::int64_t CliParser::get_int(std::string_view name) const {
  return parse_whole(name, get_string(name),
                     [](const std::string& v, std::size_t* used) { return std::stoll(v, used); });
}

double CliParser::get_double(std::string_view name) const {
  return parse_whole(name, get_string(name), [](const std::string& v, std::size_t* used) {
    const double parsed = std::stod(v, used);
    if (!std::isfinite(parsed)) throw std::out_of_range("not finite");  // nan, inf
    return parsed;
  });
}

bool CliParser::get_bool(std::string_view name) const {
  const std::string v = get_string(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace pulse::util
