#include "sim/inline_fn.hpp"
// A 128-byte capture must be refused at compile time by InlineFn's storage rule.
void schedule() { char big[128] = {}; hpcvorx::sim::InlineFn fn([big] { (void)big; }); }
