#include "api/registry.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "util/string_utils.h"

namespace ppr {

namespace {

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

}  // namespace

Result<SolverSpec> ParseSolverSpec(std::string_view text) {
  SolverSpec spec;
  const size_t colon = text.find(':');
  spec.name = std::string(Trim(text.substr(0, colon)));
  if (spec.name.empty()) {
    return Status::InvalidArgument("empty solver name in spec '" +
                                   std::string(text) + "'");
  }
  if (colon == std::string_view::npos) return spec;

  std::string_view rest = text.substr(colon + 1);
  // SplitAndTrim drops empty pieces, which also forgives a trailing comma.
  for (std::string_view piece : SplitAndTrim(rest, ",")) {
    piece = Trim(piece);
    if (piece.empty()) continue;
    const size_t eq = piece.find('=');
    SolverSpec::Option option;
    option.key = std::string(Trim(piece.substr(0, eq)));
    option.value = eq == std::string_view::npos
                       ? "true"  // bare key is shorthand for key=true
                       : std::string(Trim(piece.substr(eq + 1)));
    if (option.key.empty()) {
      return Status::InvalidArgument("empty option key in spec '" +
                                     std::string(text) + "'");
    }
    spec.options.push_back(std::move(option));
  }
  return spec;
}

OptionReader::OptionReader(const SolverSpec& spec)
    : spec_(spec), consumed_(spec.options.size(), false) {}

const SolverSpec::Option* OptionReader::Take(std::string_view key) {
  const SolverSpec::Option* found = nullptr;
  for (size_t i = 0; i < spec_.options.size(); ++i) {
    if (spec_.options[i].key != key) continue;
    if (found != nullptr) {
      // Consume the duplicate too so Finish() reports the real problem
      // instead of "does not understand option".
      if (status_.ok()) {
        status_ = Status::InvalidArgument("duplicate option '" +
                                          std::string(key) + "'");
      }
    } else {
      found = &spec_.options[i];
    }
    consumed_[i] = true;
  }
  return found;
}

bool OptionReader::ReadDouble(std::string_view key, double* out) {
  const SolverSpec::Option* option = Take(key);
  if (option == nullptr) return false;
  char* end = nullptr;
  const double value = std::strtod(option->value.c_str(), &end);
  if (end == option->value.c_str() || *end != '\0') {
    if (status_.ok()) {
      status_ = Status::InvalidArgument("option '" + option->key +
                                        "' expects a number, got '" +
                                        option->value + "'");
    }
    return false;
  }
  *out = value;
  return true;
}

OptionReader& OptionReader::Double(std::string_view key, double* out) {
  ReadDouble(key, out);
  return *this;
}

OptionReader& OptionReader::Parameter(std::string_view key, double* out) {
  if (ReadDouble(key, out) && status_.ok()) {
    status_ = CheckParameter(key, *out);
  }
  return *this;
}

OptionReader& OptionReader::Uint64(std::string_view key, uint64_t* out) {
  const SolverSpec::Option* option = Take(key);
  if (option == nullptr) return *this;
  uint64_t value = 0;
  if (!ParseUint64(option->value, &value)) {
    if (status_.ok()) {
      status_ = Status::InvalidArgument("option '" + option->key +
                                        "' expects a non-negative integer, "
                                        "got '" +
                                        option->value + "'");
    }
    return *this;
  }
  *out = value;
  return *this;
}

OptionReader& OptionReader::Int(std::string_view key, int* out) {
  uint64_t value = 0;
  const SolverSpec::Option* option = Take(key);
  if (option == nullptr) return *this;
  if (!ParseUint64(option->value, &value) ||
      value > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    if (status_.ok()) {
      status_ = Status::InvalidArgument("option '" + option->key +
                                        "' expects a small non-negative "
                                        "integer, got '" +
                                        option->value + "'");
    }
    return *this;
  }
  *out = static_cast<int>(value);
  return *this;
}

OptionReader& OptionReader::Bool(std::string_view key, bool* out) {
  const SolverSpec::Option* option = Take(key);
  if (option == nullptr) return *this;
  const std::string& v = option->value;
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    *out = true;
  } else if (v == "false" || v == "0" || v == "no" || v == "off") {
    *out = false;
  } else if (status_.ok()) {
    status_ = Status::InvalidArgument("option '" + option->key +
                                      "' expects a boolean, got '" + v + "'");
  }
  return *this;
}

OptionReader& OptionReader::String(std::string_view key, std::string* out) {
  const SolverSpec::Option* option = Take(key);
  if (option == nullptr) return *this;
  if (option->value.empty()) {
    if (status_.ok()) {
      status_ = Status::InvalidArgument("option '" + option->key +
                                        "' expects a value");
    }
    return *this;
  }
  *out = option->value;
  return *this;
}

Status OptionReader::Finish() const {
  if (!status_.ok()) return status_;
  for (size_t i = 0; i < spec_.options.size(); ++i) {
    if (!consumed_[i]) {
      return Status::InvalidArgument("solver '" + spec_.name +
                                     "' does not understand option '" +
                                     spec_.options[i].key + "'");
    }
  }
  return Status::OK();
}

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    RegisterBuiltinSolvers(r);
    return r;
  }();
  return *registry;
}

void SolverRegistry::Register(Entry entry) {
  PPR_CHECK(!entry.name.empty());
  PPR_CHECK(Find(entry.name) == nullptr)
      << "duplicate solver name: " << entry.name;
  entries_.push_back(std::move(entry));
}

bool SolverRegistry::Contains(std::string_view name) const {
  return Find(name) != nullptr;
}

const SolverRegistry::Entry* SolverRegistry::Find(
    std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

Result<std::unique_ptr<Solver>> SolverRegistry::Create(
    std::string_view spec_text) const {
  Result<SolverSpec> parsed = ParseSolverSpec(spec_text);
  if (!parsed.ok()) return parsed.status();
  const SolverSpec& spec = parsed.value();
  const Entry* entry = Find(spec.name);
  if (entry == nullptr) {
    std::string known;
    for (const std::string& name : Names()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    return Status::NotFound("unknown solver '" + spec.name +
                            "'; registered: " + known);
  }
  return entry->factory(spec);
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) names.push_back(entry.name);
  std::sort(names.begin(), names.end());
  return names;
}

std::string SolverRegistry::HelpText() const {
  std::string text;
  for (const std::string& name : Names()) {
    const Entry* entry = Find(name);
    text += "  " + name + " — " + entry->summary;
    if (!entry->options_help.empty()) {
      text += " (options: " + entry->options_help + ")";
    }
    text += "\n";
  }
  return text;
}

}  // namespace ppr
