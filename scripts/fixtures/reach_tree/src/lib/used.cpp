// Reached through its header; its own includes are followed too.
#include "lib/used.hpp"

#include "lib/helper.hpp"

namespace lib {
int used() { return helper(); }
}  // namespace lib
