#include "dsjoin/core/oracle.hpp"

namespace dsjoin::core {

ExactJoinOracle::ExactJoinOracle(double half_width) : half_width_(half_width) {}

void ExactJoinOracle::observe(const stream::Tuple& tuple) {
  const auto opposite = static_cast<std::size_t>(stream::opposite(tuple.side));
  const auto side = static_cast<std::size_t>(tuple.side);
  // Arrivals come in timestamp order: every live partner is earlier, so
  // each unordered pair is counted exactly once (when its later member
  // arrives), and an entry older than lo can never pair again. lo is the
  // window's lower bound, inclusive: a partner exactly half_width_ earlier
  // still counts.
  const double lo = tuple.timestamp - half_width_;
  for (std::size_t s = 0; s < 2; ++s) {
    auto& fifo = live_[s];
    while (!fifo.empty() && fifo.front().timestamp < lo) {
      const auto it = counts_.find(fifo.front().key);
      if (--it->second[s] == 0 && it->second[1 - s] == 0) counts_.erase(it);
      fifo.pop_front();
    }
  }
  auto& count = counts_[tuple.key];
  pairs_ += count[opposite];
  ++count[side];
  live_[side].push_back(Live{tuple.key, tuple.timestamp});
}

}  // namespace dsjoin::core
