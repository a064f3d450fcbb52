// Warm start for the self-consistent damping bisection: the scalar
// solve_envelope (envelope.hpp) and the lockstep SoA bisection in
// dse::batch_envelope_system share this replay/record helper.
//
// Both solvers bisect f(c) = T(c) - c on [0, c_hi], where T is the
// equivalent damping the diode bridge presents at trial damping c. Along
// one simulation run consecutive solves sit at nearly the same operating
// point, so their bisections share all but their last few halving
// decisions. A damping_path keeps one solve's decisions. The next solve
// replays all but the last k_warm_backoff of them — arithmetic only: the
// same 0.5 * (lo + hi) sequence, no trial of T — then spends two trials
// checking that the root still lies in the reached cell (T(lo) > lo and
// T(hi) <= hi) and bisects on from there. A failed check falls back to
// the cold solve.
//
// Why the result is bit-identical to the cold solve for any path (stale,
// foreign or garbage): T depends on c only through x = u / e, as
// T = (2 phi^2 / (pi R)) g(x) with g'(x) = -2 sqrt(1 - x^2) <= 0, and the
// emf amplitude e does not increase with c, so f falls with slope <= -1.
// The two checked ends are exactly the points where a bisection into the
// cell makes its last "up" and its last "down" decision, and the check
// evaluates T there with the cold solve's own operands. Every other
// decision the replay skips lies at least one cell width from that
// checked sign change — about 2^k_warm_backoff * tol for a path of
// natural depth, never under tol / 2 for any path, and either way orders
// of magnitude beyond T's rounding error — so the cold solve decides it
// the same way and walks into the same cell. From there both run the
// same arithmetic. Requiring lo >= 2 tol and hi < c_hi makes the cold
// solve's "blocked at c = 0" and "expand past c_hi" decisions implied as
// well. Only the number of T evaluations changes.
//
// A path is per-run state passed explicitly (never shared between runs
// or threads); harvester models stay stateless.
#pragma once

#include <algorithm>
#include <cstdint>

namespace ehdse::harvester {

/// Decisions at the end of a recorded path that a warm start re-bisects
/// instead of replaying. Consecutive solves of one run share all but
/// their last <= 8 decisions in ~89% of calls and all but the last <= 10
/// in ~97%.
inline constexpr int k_warm_backoff = 10;

/// Bracket a warm start begins from: [lo, hi] after `depth` replayed
/// decisions. depth == 0 means no usable path — solve cold.
struct damping_cell {
    double lo = 0.0;
    double hi = 0.0;
    int depth = 0;
};

/// Halving decisions of one damping bisection, counted from the
/// unexpanded bracket [0, c_hi]. Default-constructed: no path.
struct damping_path {
    static constexpr int k_capacity = 64;

    std::uint64_t up_bits = 0;  ///< bit i set: decision i raised lo
    int depth = 0;              ///< decisions recorded, <= k_capacity

    /// Decision `index` of the solve in progress (`up`: the root lies
    /// above the mid). Decisions past k_capacity are dropped — any prefix
    /// of a path is a valid path.
    void record(int index, bool up) noexcept {
        if (index >= k_capacity) return;
        const std::uint64_t bit = std::uint64_t{1} << index;
        up_bits = up ? (up_bits | bit) : (up_bits & ~bit);
    }

    /// Close the solve in progress after `decisions` decisions in all
    /// (replayed ones included). A solve that expanded its bracket or
    /// found the bridge blocked closes with 0: nothing to replay.
    void finish(int decisions) noexcept {
        depth = std::clamp(decisions, 0, k_capacity);
    }

    /// Replay all but the last k_warm_backoff decisions from [0, c_hi]
    /// while the cell is wider than `tol` and within `max_iterations`
    /// (the cold bisection's own continuation rule, so the replayed
    /// depth counts towards the iteration limit). Returns depth 0 unless
    /// the reached cell has lo >= 2 tol and hi < c_hi.
    damping_cell replay(double c_hi, double tol,
                        int max_iterations) const noexcept {
        damping_cell cell{0.0, c_hi, 0};
        const int n = std::min(depth, max_iterations) - k_warm_backoff;
        for (int i = 0; i < n && (cell.hi - cell.lo) > tol; ++i) {
            const double mid = 0.5 * (cell.lo + cell.hi);
            if ((up_bits >> i) & 1u)
                cell.lo = mid;
            else
                cell.hi = mid;
            cell.depth = i + 1;
        }
        if (!(cell.lo >= 2.0 * tol && cell.hi < c_hi)) return {};
        return cell;
    }
};

}  // namespace ehdse::harvester
