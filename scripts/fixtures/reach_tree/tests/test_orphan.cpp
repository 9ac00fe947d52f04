// Tests are not programs: this include keeps nothing alive.
#include "lib/orphan.hpp"

int main() { return lib::orphan() == 1 ? 0 : 1; }
