// Pool-or-sequential batch helpers — the one API the flow and the
// robustness sweep use for fan-out, so "no pool", "pool of 1" and "pool
// of N" are the same call site. Results are always produced in input
// order; with a pure body the output is identical whichever path runs,
// which is what the determinism tests pin down.
#pragma once

#include <functional>
#include <vector>

#include "exec/thread_pool.hpp"

namespace ehdse::exec {

/// Run body(0) .. body(n-1). Inline on the calling thread when `pool` is
/// null, has fewer than two workers, or the range is trivial; otherwise
/// fans out via pool->parallel_for (which blocks until completion and
/// rethrows the first body exception).
void parallel_for(thread_pool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Evaluate make(i) for i in [0, n) into a vector, preserving order.
/// T must be default-constructible.
template <typename T, typename Make>
std::vector<T> map_indexed(thread_pool* pool, std::size_t n, Make&& make) {
    std::vector<T> out(n);
    parallel_for(pool, n, [&](std::size_t i) { out[i] = make(i); });
    return out;
}

}  // namespace ehdse::exec
