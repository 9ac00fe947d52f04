#include "lib/orphan.hpp"

namespace lib {
int orphan() { return 1; }
}  // namespace lib
