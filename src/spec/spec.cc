#include "spec/spec.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <sstream>

namespace protuner::spec {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

bool valid_ident(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

std::size_t levenshtein(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

Spec parse(std::string_view text) {
  const std::string_view whole = trim(text);
  if (whole.empty()) throw SpecError("empty spec");

  Spec s;
  std::string_view rest;
  const std::size_t colon = whole.find(':');
  if (colon == std::string_view::npos) {
    s.name = std::string(trim(whole));
  } else {
    s.name = std::string(trim(whole.substr(0, colon)));
    rest = whole.substr(colon + 1);
  }
  if (!valid_ident(s.name)) {
    throw SpecError("spec '" + std::string(whole) +
                    "': component name must be non-empty [A-Za-z0-9_.-]+");
  }
  if (colon != std::string_view::npos && trim(rest).empty()) {
    throw SpecError("spec '" + std::string(whole) +
                    "': dangling ':' with no options");
  }

  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (comma != std::string_view::npos && trim(rest).empty()) {
      throw SpecError("spec '" + std::string(whole) +
                      "': empty option (dangling ',')");
    }
    const std::string_view opt = trim(item);
    if (opt.empty()) {
      throw SpecError("spec '" + std::string(whole) +
                      "': empty option (dangling ',')");
    }
    std::string key, value;
    const std::size_t eq = opt.find('=');
    if (eq == std::string_view::npos) {
      key = std::string(trim(opt));
      value = "1";  // bare key is a flag
    } else {
      key = std::string(trim(opt.substr(0, eq)));
      value = std::string(trim(opt.substr(eq + 1)));
      if (value.empty()) {
        throw SpecError("spec '" + std::string(whole) + "': option '" + key +
                        "' has an empty value");
      }
    }
    if (!valid_ident(key)) {
      throw SpecError("spec '" + std::string(whole) +
                      "': option key '" + key +
                      "' must be non-empty [A-Za-z0-9_.-]+");
    }
    for (const auto& [k, v] : s.options) {
      if (k == key) {
        throw SpecError("spec '" + std::string(whole) +
                        "': duplicate option '" + key + "'");
      }
    }
    s.options.emplace_back(std::move(key), std::move(value));
  }
  return s;
}

std::string to_string(const Spec& s) {
  std::string out = s.name;
  for (std::size_t i = 0; i < s.options.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += s.options[i].first;
    out += '=';
    out += s.options[i].second;
  }
  return out;
}

std::string nearest_key(std::string_view key,
                        const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_d = key.size() + 1;
  for (const auto& c : candidates) {
    const std::size_t d = levenshtein(key, c);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  const std::size_t budget = std::max<std::size_t>(1, key.size() / 3);
  if (best_d > budget) return {};
  return best;
}

Options::Options(std::string family, Spec s)
    : family_(std::move(family)), spec_(std::move(s)) {
  opts_.reserve(spec_.options.size());
  for (const auto& [k, v] : spec_.options) {
    opts_.push_back(Opt{k, v, false});
  }
}

Options::Opt* Options::find(std::string_view key) {
  for (auto& o : opts_) {
    if (o.key == key) return &o;
  }
  return nullptr;
}

bool Options::has(std::string_view key) const {
  for (const auto& o : opts_) {
    if (o.key == key) return true;
  }
  return false;
}

const std::string* Options::consume(std::string_view key) {
  known_.emplace_back(key);
  if (Opt* o = find(key)) {
    o->consumed = true;
    return &o->value;
  }
  return nullptr;
}

void Options::alias(std::string_view alias, std::string_view key) {
  known_.emplace_back(alias);
  Opt* from = find(alias);
  if (from == nullptr) return;
  if (find(key) != nullptr) {
    throw SpecError(family_ + " '" + spec_.name + "': options '" +
                    std::string(alias) + "' and '" + std::string(key) +
                    "' are aliases; give only one");
  }
  from->key = std::string(key);
}

void Options::fail_value(std::string_view key, const std::string& value,
                         std::string_view expected) const {
  throw SpecError(family_ + " '" + spec_.name + "': option '" +
                  std::string(key) + "': expected " + std::string(expected) +
                  ", got '" + value + "'");
}

double Options::get_double(std::string_view key, double def) {
  const std::string* v = consume(key);
  if (v == nullptr) return def;
  char* end = nullptr;
  const double x = std::strtod(v->c_str(), &end);
  if (end != v->c_str() + v->size() || v->empty()) {
    fail_value(key, *v, "a number");
  }
  return x;
}

double Options::get_double(std::string_view key, double def, double lo,
                           double hi) {
  const double x = get_double(key, def);
  if (x < lo || x > hi) {
    std::ostringstream msg;
    msg << family_ << " '" << spec_.name << "': option " << key << "=" << x
        << " out of range [" << lo << ", " << hi << "]";
    throw SpecError(msg.str());
  }
  return x;
}

long Options::get_int(std::string_view key, long def) {
  const std::string* v = consume(key);
  if (v == nullptr) return def;
  long x = 0;
  const auto [ptr, ec] =
      std::from_chars(v->data(), v->data() + v->size(), x);
  if (ec != std::errc{} || ptr != v->data() + v->size()) {
    fail_value(key, *v, "an integer");
  }
  return x;
}

long Options::get_int(std::string_view key, long def, long lo, long hi) {
  const long x = get_int(key, def);
  if (x < lo || x > hi) {
    std::ostringstream msg;
    msg << family_ << " '" << spec_.name << "': option " << key << "=" << x
        << " out of range [" << lo << ", " << hi << "]";
    throw SpecError(msg.str());
  }
  return x;
}

std::uint64_t Options::get_u64(std::string_view key, std::uint64_t def) {
  const std::string* v = consume(key);
  if (v == nullptr) return def;
  std::uint64_t x = 0;
  const auto [ptr, ec] =
      std::from_chars(v->data(), v->data() + v->size(), x);
  if (ec != std::errc{} || ptr != v->data() + v->size()) {
    fail_value(key, *v, "an unsigned integer");
  }
  return x;
}

bool Options::get_bool(std::string_view key, bool def) {
  const std::string* v = consume(key);
  if (v == nullptr) return def;
  if (*v == "1" || *v == "true" || *v == "on" || *v == "yes") return true;
  if (*v == "0" || *v == "false" || *v == "off" || *v == "no") return false;
  fail_value(key, *v, "a boolean (1/0/true/false/on/off/yes/no)");
}

std::string Options::get_string(std::string_view key, std::string def) {
  const std::string* v = consume(key);
  return v == nullptr ? def : *v;
}

std::string Options::get_choice(std::string_view key, std::string_view def,
                                const std::vector<std::string>& allowed) {
  const std::string choice = get_string(key, std::string(def));
  if (std::find(allowed.begin(), allowed.end(), choice) != allowed.end()) {
    return choice;
  }
  std::string msg = family_ + " '" + spec_.name + "': option '" +
                    std::string(key) + "': '" + choice + "' is not one of {";
  for (std::size_t i = 0; i < allowed.size(); ++i) {
    if (i != 0) msg += ", ";
    msg += allowed[i];
  }
  msg += "}";
  const std::string hint = nearest_key(choice, allowed);
  if (!hint.empty()) msg += "; did you mean '" + hint + "'?";
  throw SpecError(msg);
}

void Options::finish() const {
  for (const auto& o : opts_) {
    if (o.consumed) continue;
    std::vector<std::string> known = known_;
    std::sort(known.begin(), known.end());
    known.erase(std::unique(known.begin(), known.end()), known.end());
    std::string msg =
        family_ + " '" + spec_.name + "': unknown option '" + o.key + "'";
    const std::string hint = nearest_key(o.key, known);
    if (!hint.empty()) msg += "; did you mean '" + hint + "'?";
    if (known.empty()) throw SpecError(msg + " (it takes no options)");
    msg += " (known: ";
    for (std::size_t i = 0; i < known.size(); ++i) {
      if (i != 0) msg += ", ";
      msg += known[i];
    }
    msg += ")";
    throw SpecError(msg);
  }
}

}  // namespace protuner::spec
