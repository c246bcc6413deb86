#include "ctrl/tag_slots.hpp"

#include <algorithm>

namespace softcell {

TagSlots::TagSlots(std::size_t clauses, std::uint32_t num_bs)
    : num_bs_(num_bs) {
  cover(std::max<std::size_t>(clauses, 1));
}

TagSlots::Table& TagSlots::cover(std::size_t clauses) {
  if (!tables_.empty() && tables_.back()->clauses >= clauses)
    return *tables_.back();
  auto next = std::make_unique<Table>();
  next->clauses = clauses;
  const std::size_t n = clauses * num_bs_;
  next->slots = std::make_unique<std::atomic<std::uint16_t>[]>(n);
  std::size_t i = 0;
  if (!tables_.empty()) {
    const Table& prev = *tables_.back();
    for (; i < prev.clauses * num_bs_; ++i)
      next->slots[i].store(prev.slots[i].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  }
  for (; i < n; ++i)
    next->slots[i].store(PolicyTag::kInvalid, std::memory_order_relaxed);
  table_.store(next.get(), std::memory_order_release);
  tables_.push_back(std::move(next));
  return *tables_.back();
}

void TagSlots::set(ClauseId clause, std::uint32_t bs, PolicyTag tag) {
  if (!clause.valid() || bs >= num_bs_) return;  // no such key to publish
  Table& t = cover(static_cast<std::size_t>(clause.value()) + 1);
  t.slots[index(clause, bs)].store(tag.value(), std::memory_order_release);
}

void TagSlots::assign(std::span<const Path> paths) {
  std::size_t clauses = 0;
  for (const Path& p : paths)
    if (p.clause.valid() && p.bs < num_bs_)
      clauses = std::max<std::size_t>(clauses, p.clause.value() + 1);
  Table& t = cover(clauses);
  std::vector<std::uint16_t> next(t.clauses * num_bs_, PolicyTag::kInvalid);
  for (const Path& p : paths)
    if (p.clause.valid() && p.bs < num_bs_)
      next[index(p.clause, p.bs)] = p.tag.value();
  retag([&] {
    for (std::size_t i = 0; i < next.size(); ++i)
      t.slots[i].store(next[i], std::memory_order_release);
  });
}

}  // namespace softcell
