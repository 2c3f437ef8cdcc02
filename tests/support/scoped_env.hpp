// Scoped environment-variable override for tests (restored on destruction).
#pragma once

#include <cstdlib>
#include <string>

#include <stdlib.h>

namespace pnoc::testsupport {

/// Sets `name` to `value` (nullptr unsets it) for the object's lifetime.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    hadOld_ = old != nullptr;
    if (hadOld_) old_ = old;
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    if (hadOld_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  bool hadOld_ = false;
  std::string old_;
};

}  // namespace pnoc::testsupport
