// Header-only, reached only through used.cpp.
#pragma once

namespace lib {
inline int helper() { return 0; }
}  // namespace lib
