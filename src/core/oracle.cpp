#include "dsjoin/core/oracle.hpp"

#include <bit>

namespace dsjoin::core {

ExactJoinOracle::ExactJoinOracle(double half_width) : half_width_(half_width) {}

std::size_t ExactJoinOracle::find(std::int64_t key) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t at = home(key);
  while (!slots_[at].empty() && slots_[at].key != key) at = (at + 1) & mask;
  return at;
}

void ExactJoinOracle::erase(std::size_t hole) noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t next = (hole + 1) & mask; !slots_[next].empty();
       next = (next + 1) & mask) {
    // The entry at `next` may move back into the hole only if the hole
    // lies on its probe path, i.e. between its home slot and `next`.
    const std::size_t probed = (next - home(slots_[next].key)) & mask;
    if (probed >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole] = Slot{};
  --used_;
}

void ExactJoinOracle::grow() {
  std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
  old.swap(slots_);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
  for (const Slot& slot : old) {
    if (!slot.empty()) slots_[find(slot.key)] = slot;
  }
}

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
      const std::size_t at = find(fifo.front().key);
      if (--slots_[at].count[s] == 0 && slots_[at].count[1 - s] == 0) {
        erase(at);
      }
      fifo.pop_front();
    }
  }
  if (2 * (used_ + 1) > slots_.size()) grow();
  Slot& slot = slots_[find(tuple.key)];
  if (slot.empty()) {
    slot.key = tuple.key;
    ++used_;
  }
  pairs_ += slot.count[opposite];
  ++slot.count[side];
  live_[side].push_back(Live{tuple.key, tuple.timestamp});
}

}  // namespace dsjoin::core
