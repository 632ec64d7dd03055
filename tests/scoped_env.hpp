#pragma once
// Set (or unset) an environment variable for one scope, restoring the
// previous value on exit. Tests use it for the TIBSIM_* variables the
// library reads at run time (not for the ones it caches at start-up).

#include <cstdlib>
#include <optional>
#include <string>

namespace tibsim::testing {

class ScopedEnv {
 public:
  /// `value` nullptr unsets the variable.
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) previous_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (previous_) {
      ::setenv(name_.c_str(), previous_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> previous_;
};

}  // namespace tibsim::testing
