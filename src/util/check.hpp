#pragma once

#include <cstdio>
#include <cstdlib>

// Precondition / invariant checking that stays on in release builds.
// The library is a research artifact: a silent out-of-contract call is far
// more expensive than the branch. `msg` must be a C string: a std::string
// does not compile (pass .c_str(); the temporary outlives the print).
#define HPRNG_CHECK(cond, msg)                                              \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "HPRNG_CHECK failed at %s:%d: %s\n  %s\n",       \
                   __FILE__, __LINE__, #cond,                               \
                   static_cast<const char*>(msg));                          \
      std::abort();                                                         \
    }                                                                       \
  } while (0)
