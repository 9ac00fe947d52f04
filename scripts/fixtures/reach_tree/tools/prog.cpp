// A program: everything it reaches is live. The include named in this
// comment is not a directive: #include "lib/orphan.hpp"
#include "lib/used.hpp"

int main() { return lib::used(); }
