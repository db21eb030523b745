// Declarative component specs: the one-line grammar every pluggable family
// (strategies, noise models, landscapes, evaluators) is constructed from.
//
//   spec      := name [ ":" option ("," option)* ]
//   option    := key [ "=" value ]            (bare key means "=1", a flag)
//   name, key := [A-Za-z0-9_.-]+
//   value     := anything except "," (trimmed)
//
// Examples: "pro:k=4,racing", "anneal:decay=0.985,migrate=25",
// "pareto:rho=0.1,alpha=1.7", "gs2", "simulated:ranks=16,rho=0.3".
//
// The design contract is the round trip: parse(to_string(s)) == s for every
// Spec s that parse() can produce — specs are data, not config files, so
// harnesses can log them, diff them, and sweep cross products of them.
// Typed option access goes through Options, which records every key a
// factory asks about and turns leftovers into a did-you-mean diagnostic.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace protuner::spec {

/// Malformed spec text, unknown component name, unknown option key, or an
/// out-of-range / untypeable value.  The message always names the family
/// and component so a sweep over hundreds of cells fails readably.
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed spec: component name plus ordered key=value options.  Values
/// stay raw strings — typing happens at consumption (Options), so the
/// round trip through to_string() is exact.
struct Spec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> options;

  bool operator==(const Spec&) const = default;
};

/// Parses the grammar above.  Throws SpecError on empty names/keys,
/// malformed charset, duplicate keys, or dangling separators.
Spec parse(std::string_view text);

/// Canonical text form: "name:key=value,key=value" ("name" alone when there
/// are no options).  parse(to_string(s)) == s for any parseable s.
std::string to_string(const Spec& s);

/// Nearest candidate to `key` by edit distance, or "" when nothing is close
/// enough to plausibly be a typo (distance must be <= max(1, len/3)).
std::string nearest_key(std::string_view key,
                        const std::vector<std::string>& candidates);

/// Typed option consumption with unknown-key detection.  A factory asks for
/// each key it understands (get_* records the key as known whether or not
/// it is present); finish() then rejects any option the caller supplied
/// that nobody asked about, with a nearest-key hint:
///
///   spec::Options o("strategy", parse("pro:reflct=2"));
///   o.get_int("reflect", 1);
///   o.finish();  // throws: unknown option 'reflct'; did you mean 'reflect'?
class Options {
 public:
  Options(std::string family, Spec s);

  const std::string& name() const { return spec_.name; }
  const Spec& raw() const { return spec_; }

  bool has(std::string_view key) const;

  /// Typed getters: return the default when the key is absent; throw
  /// SpecError when the value does not parse as the requested type.
  double get_double(std::string_view key, double def);
  long get_int(std::string_view key, long def);
  std::uint64_t get_u64(std::string_view key, std::uint64_t def);
  bool get_bool(std::string_view key, bool def);
  std::string get_string(std::string_view key, std::string def);

  /// Range-checked variants ([lo, hi] inclusive): out-of-range values name
  /// the option, the offending value and the admissible interval.
  double get_double(std::string_view key, double def, double lo, double hi);
  long get_int(std::string_view key, long def, long lo, long hi);

  /// Declares `alias` to mean `key` (e.g. pareto accepts scale= for rho=).
  /// Must be called before the getter for `key`.
  void alias(std::string_view alias, std::string_view key);

  /// One enum-style choice out of `allowed`; rejects anything else with the
  /// full list in the message.
  std::string get_choice(std::string_view key, std::string_view def,
                         const std::vector<std::string>& allowed);

  /// Throws SpecError if any supplied option was never asked about.
  void finish() const;

 private:
  struct Opt {
    std::string key;
    std::string value;
    bool consumed = false;
  };
  Opt* find(std::string_view key);
  const std::string* consume(std::string_view key);
  [[noreturn]] void fail_value(std::string_view key, const std::string& value,
                               std::string_view expected) const;

  std::string family_;
  Spec spec_;
  std::vector<Opt> opts_;
  std::vector<std::string> known_;
};

}  // namespace protuner::spec
