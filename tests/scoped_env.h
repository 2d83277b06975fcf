// RAII core::Env override for tests, so a failing EXPECT cannot leak a
// setting into later tests. On exit it puts back the value it shadowed
// (an outer override, or the real environment's value) and clears the
// name only if it had none: a nested scope restores the outer setting
// instead of erasing it.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "core/env.h"

namespace mls {

class ScopedEnv {
 public:
  ScopedEnv(std::string name, const std::string& value)
      : name_(std::move(name)), prev_(current(name_)) {
    core::Env::set(name_, value);
  }
  ~ScopedEnv() {
    if (prev_) {
      core::Env::set(name_, *prev_);
    } else {
      core::Env::clear(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  // No environment value can hold a NUL byte, so this default marks
  // "unset".
  static std::optional<std::string> current(const std::string& name) {
    const std::string unset("\0", 1);
    std::string v = core::Env::str(name.c_str(), unset);
    if (v == unset) return std::nullopt;
    return v;
  }

  std::string name_;
  std::optional<std::string> prev_;
};

}  // namespace mls
