// Reached from tools/prog.cpp; brings in used.cpp.
#pragma once

namespace lib {
int used();
}  // namespace lib
