#include "dsjoin/analysis/bounds.hpp"

#include <algorithm>
#include <cmath>

#include "dsjoin/common/zipf.hpp"

namespace dsjoin::analysis {

namespace {
double log2n(std::uint32_t nodes) noexcept {
  return std::log2(static_cast<double>(nodes));
}
}  // namespace

double uniform_error_bound_t1(std::uint32_t nodes) noexcept {
  if (nodes < 2) return 0.0;
  return 1.0 - 2.0 / static_cast<double>(nodes);
}

double uniform_error_bound_tlog(std::uint32_t nodes) noexcept {
  if (nodes < 2) return 0.0;
  const double bound = 1.0 - (1.0 + log2n(nodes)) / static_cast<double>(nodes);
  return std::max(bound, 0.0);
}

double system_messages_per_tuple(std::uint32_t nodes,
                                 double per_node_budget) noexcept {
  return static_cast<double>(nodes) * per_node_budget;
}

double budget_base(std::uint32_t nodes) noexcept {
  return nodes >= 1 ? static_cast<double>(nodes - 1) : 0.0;
}

double budget_t1() noexcept { return 1.0; }

double budget_tlog(std::uint32_t nodes) noexcept {
  return nodes >= 2 ? log2n(nodes) : 0.0;
}

double zipf_error_bound_t1_printed(std::uint32_t nodes, double alpha) noexcept {
  if (nodes < 2) return 0.0;
  const double mass = (alpha + alpha * alpha) / static_cast<double>(nodes);
  return std::clamp(1.0 - mass, 0.0, 1.0);
}

double zipf_error_bound_tlog_printed(std::uint32_t nodes, double alpha) noexcept {
  if (nodes < 2 || alpha >= 1.0) return 0.0;
  // Geometric series sum_{i=1..log2(N)} alpha^i = (alpha - alpha^{log2(N)+1})
  // / (1 - alpha).
  const double mass =
      (alpha - std::pow(alpha, log2n(nodes) + 1.0)) / (1.0 - alpha);
  return std::clamp(1.0 - mass, 0.0, 1.0);
}

double zipf_error_bound_normalized(std::uint32_t nodes, double alpha,
                                   double contacted_sites) noexcept {
  if (nodes < 2) return 0.0;
  const double m = std::clamp(contacted_sites, 1.0, static_cast<double>(nodes));
  // Mass of the ceil(m) highest-ranked sites under Zipf(alpha) over N sites,
  // with the fractional site contributing proportionally.
  const double total = common::generalized_harmonic(nodes, alpha);
  double mass = 0.0;
  const auto whole = static_cast<std::uint32_t>(m);
  for (std::uint32_t i = 1; i <= whole; ++i) {
    mass += std::pow(static_cast<double>(i), -alpha);
  }
  const double frac = m - static_cast<double>(whole);
  if (frac > 0.0 && whole + 1 <= nodes) {
    mass += frac * std::pow(static_cast<double>(whole + 1), -alpha);
  }
  return std::clamp(1.0 - mass / total, 0.0, 1.0);
}

}  // namespace dsjoin::analysis
