// alloc_hook.hpp — global heap-allocation counter.
//
// alloc_hook.cpp replaces the global operator new/delete of the binary
// it is compiled into (as bench/bench_soak.cpp does) and counts every
// operator new call. Link it into an executable, not a library: the
// replacement must be part of the final link.
#pragma once

#include <cstdint>

namespace e2e {

/// operator new calls (scalar, array and nothrow) since process start.
std::uint64_t allocations();

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mb();

} // namespace e2e
