// Only a test includes this header, so the reachability check must list
// it and its .cpp.
#pragma once

namespace lib {
int orphan();
}  // namespace lib
