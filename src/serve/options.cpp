#include "serve/options.hpp"

namespace hprng::serve {

const char* to_string(Status status) {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kRejected:
      return "rejected";
    case Status::kShed:
      return "shed";
    case Status::kTimeout:
      return "timeout";
    case Status::kClosed:
      return "closed";
    case Status::kFailed:
      return "failed";
    case Status::kRejectedQuota:
      return "rejected-quota";
  }
  return "?";
}

}  // namespace hprng::serve
