// Closed-form error bounds and message complexities (Theorems 1-3,
// Figures 3-4).
//
// Theorem 3 as printed in the paper is reproduced verbatim; a normalized
// variant (interpreting the bound as "1 minus the Zipf mass captured by the
// contacted sites") is also provided because the printed O(1) form carries
// an extra 1/N and the printed O(log N) form tends to 1 - alpha/(1-alpha)
// rather than 0 for alpha < 1 (see DESIGN.md §4). Figure 4 is regenerated
// from the printed formulae.
#pragma once

#include <cstdint>

namespace dsjoin::analysis {

/// Theorem 1: epsilon upper bound for T_i = 1 under uniform data:
/// 1 - 2/N.
double uniform_error_bound_t1(std::uint32_t nodes) noexcept;

/// Theorem 2: epsilon bound for T_i = log(N) under uniform data:
/// 1 - (1 + log2(N)) / N.
double uniform_error_bound_tlog(std::uint32_t nodes) noexcept;

/// Messages transmitted per arriving tuple, whole system, for a per-node
/// budget T (Definition I scaled by N nodes): N * T.
double system_messages_per_tuple(std::uint32_t nodes, double per_node_budget) noexcept;

/// Per-node budget values for the three regimes of Figure 3(b).
double budget_base(std::uint32_t nodes) noexcept;   ///< N - 1
double budget_t1() noexcept;                        ///< 1
double budget_tlog(std::uint32_t nodes) noexcept;   ///< log2(N)

/// Theorem 3, O(1) case, formula as printed:
/// 1 - sum_{i=1..2} alpha^i / N.
double zipf_error_bound_t1_printed(std::uint32_t nodes, double alpha) noexcept;

/// Theorem 3, O(log N) case, formula as printed:
/// 1 - (alpha - alpha^{log2(N)+1}) / (1 - alpha).
double zipf_error_bound_tlog_printed(std::uint32_t nodes, double alpha) noexcept;

/// Normalized variant: epsilon = 1 - (Zipf(alpha) mass of the m most
/// productive sites out of N), with m = 2 for the O(1) case (the local site
/// plus one remote) and m = 1 + log2(N) for the O(log N) case.
double zipf_error_bound_normalized(std::uint32_t nodes, double alpha,
                                   double contacted_sites) noexcept;

}  // namespace dsjoin::analysis
