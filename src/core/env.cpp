#include "core/env.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>

#include "common/check.h"

namespace mls::core {

namespace {

std::mutex g_mu;
std::atomic<uint64_t> g_generation{0};
std::map<std::string, std::string>& overrides() {
  static std::map<std::string, std::string> m;
  return m;
}

std::optional<std::string> lookup(const char* name) {
  {
    std::lock_guard<std::mutex> lock(g_mu);
    auto it = overrides().find(name);
    if (it != overrides().end()) return it->second;
  }
  const char* v = std::getenv(name);
  if (!v) return std::nullopt;
  return std::string(v);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

[[noreturn]] void unparsable(const char* name, const std::string& value,
                             const char* expected) {
  throw Error(std::string(name) + "='" + value + "' is not " + expected);
}

}  // namespace

bool Env::flag(const char* name, bool def) {
  const auto v = lookup(name);
  if (!v) return def;
  const std::string s = lower(*v);
  if (s == "1" || s == "true" || s == "on" || s == "yes") return true;
  if (s == "0" || s == "false" || s == "off" || s == "no") return false;
  unparsable(name, *v, "a flag (1/true/on/yes or 0/false/off/no)");
}

int64_t Env::integer(const char* name, int64_t def) {
  const auto v = lookup(name);
  if (!v) return def;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE) {
    unparsable(name, *v, "an integer");
  }
  return parsed;
}

double Env::real(const char* name, double def) {
  const auto v = lookup(name);
  if (!v) return def;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') unparsable(name, *v, "a number");
  return parsed;
}

std::string Env::str(const char* name, const std::string& def) {
  const auto v = lookup(name);
  return v ? *v : def;
}

void Env::set(const std::string& name, const std::string& value) {
  std::lock_guard<std::mutex> lock(g_mu);
  overrides()[name] = value;
  g_generation.fetch_add(1, std::memory_order_release);
}

void Env::clear(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mu);
  overrides().erase(name);
  g_generation.fetch_add(1, std::memory_order_release);
}

uint64_t Env::generation() {
  return g_generation.load(std::memory_order_acquire);
}

}  // namespace mls::core
