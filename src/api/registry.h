#ifndef PPR_API_REGISTRY_H_
#define PPR_API_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/solver.h"
#include "util/status.h"

namespace ppr {

/// A parsed solver spec string. Grammar (see docs/api.md):
///
///   spec   := name [ ":" option { "," option } ]
///   option := key [ "=" value ]
///
/// Whitespace around tokens is trimmed. A bare key is shorthand for
/// key=true. Examples: "powerpush", "speedppr:eps=0.1,indexed=true",
/// "fora:indexed".
struct SolverSpec {
  struct Option {
    std::string key;
    std::string value;
  };
  std::string name;
  std::vector<Option> options;
};

Result<SolverSpec> ParseSolverSpec(std::string_view spec);

/// Typed consumer for SolverSpec options, used by solver factories.
/// Getters record the first parse error and mark keys consumed;
/// Finish() reports that error or any key no getter asked for, so typos
/// in option strings fail loudly instead of silently configuring
/// nothing.
class OptionReader {
 public:
  explicit OptionReader(const SolverSpec& spec);

  OptionReader& Double(std::string_view key, double* out);
  /// A PPR parameter (alpha, lambda, eps, mu): Double, and then the
  /// value must pass CheckParameter.
  OptionReader& Parameter(std::string_view key, double* out);
  OptionReader& Uint64(std::string_view key, uint64_t* out);
  OptionReader& Int(std::string_view key, int* out);
  OptionReader& Bool(std::string_view key, bool* out);
  /// Verbatim string value (order=, cache_dir=); empty values rejected.
  OptionReader& String(std::string_view key, std::string* out);

  Status Finish() const;

 private:
  const SolverSpec::Option* Take(std::string_view key);
  /// Double's parse; true when `key` was given as a number.
  bool ReadDouble(std::string_view key, double* out);

  const SolverSpec& spec_;
  std::vector<bool> consumed_;
  Status status_;
};

/// name → solver factory. Benches, tests and the CLI dispatch through
/// Create("name:options") instead of #include-ing algorithm headers.
class SolverRegistry {
 public:
  using Factory =
      std::function<Result<std::unique_ptr<Solver>>(const SolverSpec&)>;

  struct Entry {
    std::string name;
    /// One-line description shown by the CLI's --help.
    std::string summary;
    /// Comma-separated option keys the factory understands.
    std::string options_help;
    Factory factory;
  };

  /// The process-wide registry, with every built-in solver registered.
  static SolverRegistry& Global();

  /// Registers a solver; the name must be unused.
  void Register(Entry entry);

  bool Contains(std::string_view name) const;
  const Entry* Find(std::string_view name) const;

  /// Parses `spec` and builds the solver. NotFound for unknown names,
  /// InvalidArgument for malformed specs or unknown option keys (the
  /// message lists the registered names / accepted keys).
  Result<std::unique_ptr<Solver>> Create(std::string_view spec) const;

  /// Registered names in sorted order.
  std::vector<std::string> Names() const;

  /// Multi-line "name — summary (options: ...)" listing for --help.
  std::string HelpText() const;

 private:
  std::vector<Entry> entries_;
};

/// Registers the built-in adapters (called once by Global(); exposed for
/// tests that build a private registry).
void RegisterBuiltinSolvers(SolverRegistry* registry);

}  // namespace ppr

#endif  // PPR_API_REGISTRY_H_
