#include "src/buddy/buddy.h"

#include <algorithm>
#include <cstdio>

#include "src/base/bitmap.h"
#include "src/base/check.h"

namespace hyperalloc::buddy {

namespace {
// Nodes visited per list before PopUnreported gives up — models the
// incremental scan budget of Linux's free-page reporting worker.
constexpr unsigned kReportScanBudget = 2048;
}  // namespace

MigrateType ToMigrateType(AllocType type) {
  switch (type) {
    case AllocType::kUnmovable:
      return MigrateType::kUnmovable;
    case AllocType::kMovable:
    case AllocType::kHuge:  // THP allocations are movable
      return MigrateType::kMovable;
  }
  return MigrateType::kMovable;
}

Buddy::Buddy(uint64_t frames, const Config& config)
    : frames_(frames), config_(config) {
  HA_CHECK(frames > 0);
  HA_CHECK(frames % (1ull << kMaxBuddyOrder) == 0);
  HA_CHECK(frames < kNil);  // frame ids must fit the 32-bit list links

  desc_.resize(frames);
  pageblock_type_.assign(frames / kFramesPerHuge, MigrateType::kMovable);
  for (auto& per_order : heads_) {
    per_order.fill(kNil);
  }
  pcp_.resize(config.cores);
  reported_.assign((frames + 63) / 64, 0);
  // Start "fully allocated"; the initial MarkFree sweep below brings the
  // per-block usage counters to zero.
  used_in_block_.assign(frames / kFramesPerHuge, kFramesPerHuge);

  for (FrameId f = 0; f < frames; f += 1ull << kMaxBuddyOrder) {
    MarkFree(static_cast<uint32_t>(f), kMaxBuddyOrder, MigrateType::kMovable);
    ListPush(kMaxBuddyOrder, MigrateType::kMovable, static_cast<uint32_t>(f));
  }
}

// ----------------------------------------------------------------------
// List and descriptor primitives
// ----------------------------------------------------------------------

void Buddy::ListPush(unsigned order, MigrateType type, uint32_t frame) {
  const unsigned t = static_cast<unsigned>(type);
  PageDesc& d = desc_[frame];
  d.prev = kNil;
  d.next = heads_[order][t];
  d.type = type;
  if (d.next != kNil) {
    desc_[d.next].prev = frame;
  }
  heads_[order][t] = frame;
  free_frames_ += 1ull << order;
}

void Buddy::ListRemove(unsigned order, MigrateType type, uint32_t frame) {
  const unsigned t = static_cast<unsigned>(type);
  PageDesc& d = desc_[frame];
  if (d.prev != kNil) {
    desc_[d.prev].next = d.next;
  } else {
    HA_DCHECK(heads_[order][t] == frame);
    heads_[order][t] = d.next;
  }
  if (d.next != kNil) {
    desc_[d.next].prev = d.prev;
  }
  d.prev = kNil;
  d.next = kNil;
  free_frames_ -= 1ull << order;
}

uint32_t Buddy::ListPop(unsigned order, MigrateType type) {
  const uint32_t head = heads_[order][static_cast<unsigned>(type)];
  if (head != kNil) {
    ListRemove(order, type, head);
  }
  return head;
}

void Buddy::MarkFree(uint32_t frame, unsigned order, MigrateType type) {
  const uint64_t size = 1ull << order;
  for (uint64_t i = 0; i < size; ++i) {
    if (desc_[frame + i].state == State::kAllocated) {
      --used_in_block_[FrameToHuge(frame + i)];
    }
  }
  PageDesc& head = desc_[frame];
  head.state = State::kFreeHead;
  head.order = static_cast<uint8_t>(order);
  head.type = type;
  for (uint64_t i = 1; i < size; ++i) {
    desc_[frame + i].state = State::kFreeTail;
  }
}

void Buddy::MarkAllocated(uint32_t frame, unsigned order) {
  const uint64_t size = 1ull << order;
  for (uint64_t i = 0; i < size; ++i) {
    if (desc_[frame + i].state != State::kAllocated) {
      ++used_in_block_[FrameToHuge(frame + i)];
    }
    desc_[frame + i].state = State::kAllocated;
  }
}

// ----------------------------------------------------------------------
// Core buddy paths
// ----------------------------------------------------------------------

uint32_t Buddy::SplitTo(uint32_t frame, unsigned from_order,
                        unsigned to_order, MigrateType type) {
  // `frame` is detached and fully marked allocated; peel off upper halves.
  for (unsigned o = from_order; o > to_order; --o) {
    const uint32_t upper = frame + (1u << (o - 1));
    MarkFree(upper, o - 1, type);
    ListPush(o - 1, type, upper);
  }
  return frame;
}

std::optional<FrameId> Buddy::AllocCore(unsigned order, MigrateType type) {
  for (unsigned o = order; o <= kMaxBuddyOrder; ++o) {
    const uint32_t frame = ListPop(o, type);
    if (frame == kNil) {
      continue;
    }
    MarkAllocated(frame, o);
    SplitTo(frame, o, order, type);
    ClearReported(frame, order);
    return frame;
  }
  return StealFallback(order, type);
}

std::optional<FrameId> Buddy::StealFallback(unsigned order,
                                            MigrateType type) {
  const MigrateType other = type == MigrateType::kUnmovable
                                ? MigrateType::kMovable
                                : MigrateType::kUnmovable;
  // Linux steals the largest available block first, to limit how often
  // foreign allocations pollute pageblocks.
  for (int o = static_cast<int>(kMaxBuddyOrder); o >= static_cast<int>(order);
       --o) {
    const uint32_t frame = ListPop(static_cast<unsigned>(o), other);
    if (frame == kNil) {
      continue;
    }
    MarkAllocated(frame, static_cast<unsigned>(o));
    MigrateType remainder_type = other;
    if (static_cast<unsigned>(o) >= kHugeOrder) {
      // Whole pageblock(s): claim them for our migrate type.
      const uint64_t size = 1ull << static_cast<unsigned>(o);
      for (HugeId hb = FrameToHuge(frame); hb < FrameToHuge(frame + size);
           ++hb) {
        pageblock_type_[hb] = type;
      }
      remainder_type = type;
    }
    SplitTo(frame, static_cast<unsigned>(o), order, remainder_type);
    ClearReported(frame, order);
    return frame;
  }
  return std::nullopt;
}

void Buddy::FreeCore(FrameId frame, unsigned order) {
  uint32_t base = static_cast<uint32_t>(frame);
  unsigned o = order;
  while (o < kMaxBuddyOrder) {
    const uint32_t buddy = base ^ (1u << o);
    if (buddy >= frames_) {
      break;
    }
    const PageDesc& d = desc_[buddy];
    if (d.state != State::kFreeHead || d.order != o) {
      break;
    }
    ListRemove(o, d.type, buddy);
    base = std::min(base, buddy);
    ++o;
  }
  const MigrateType type = PageblockType(base);
  MarkFree(base, o, type);
  ListPush(o, type, base);
}

// ----------------------------------------------------------------------
// Public allocation API
// ----------------------------------------------------------------------

Result<FrameId> Buddy::Alloc(unsigned core, unsigned order, AllocType type) {
  if (order > kMaxBuddyOrder) {
    return AllocError::kInvalid;
  }
  const MigrateType mt = ToMigrateType(type);
  if (order == 0 && config_.pcp_enabled) {
    HA_CHECK(core < pcp_.size());
    auto& cache = pcp_[core].lists[static_cast<unsigned>(mt)];
    if (cache.empty()) {
      for (unsigned i = 0; i < config_.pcp_batch; ++i) {
        const std::optional<FrameId> f = AllocCore(0, mt);
        if (!f.has_value()) {
          break;
        }
        cache.push_back(static_cast<uint32_t>(*f));
        ++pcp_frames_;
      }
    }
    if (cache.empty()) {
      return AllocError::kNoMemory;
    }
    const uint32_t frame = cache.back();
    cache.pop_back();
    --pcp_frames_;
    return static_cast<FrameId>(frame);
  }

  const std::optional<FrameId> frame = AllocCore(order, mt);
  if (!frame.has_value()) {
    return AllocError::kNoMemory;
  }
  return *frame;
}

std::optional<AllocError> Buddy::Free(unsigned core, FrameId frame,
                                      unsigned order) {
  if (order > kMaxBuddyOrder || frame >= frames_ ||
      frame % (1ull << order) != 0) {
    return AllocError::kInvalid;
  }
  // Double-free detection: the whole block must currently be allocated.
  const uint64_t size = 1ull << order;
  for (uint64_t i = 0; i < size; ++i) {
    if (desc_[frame + i].state != State::kAllocated) {
      return AllocError::kInvalid;
    }
  }

  if (order == 0 && config_.pcp_enabled) {
    HA_CHECK(core < pcp_.size());
    const MigrateType mt = PageblockType(frame);
    auto& cache = pcp_[core].lists[static_cast<unsigned>(mt)];
    cache.push_back(static_cast<uint32_t>(frame));
    ++pcp_frames_;
    if (cache.size() > 2 * config_.pcp_batch) {
      for (unsigned i = 0; i < config_.pcp_batch; ++i) {
        FreeCore(cache.back(), 0);
        cache.pop_back();
        --pcp_frames_;
      }
    }
    return std::nullopt;
  }

  FreeCore(frame, order);
  return std::nullopt;
}

void Buddy::DrainPcp() {
  for (Pcp& pcp : pcp_) {
    for (auto& cache : pcp.lists) {
      for (const uint32_t frame : cache) {
        FreeCore(frame, 0);
        --pcp_frames_;
      }
      cache.clear();
    }
  }
}

// ----------------------------------------------------------------------
// virtio-mem support
// ----------------------------------------------------------------------

std::optional<uint32_t> Buddy::FindCoveringHead(FrameId frame) const {
  if (desc_[frame].state == State::kFreeHead) {
    return static_cast<uint32_t>(frame);
  }
  for (unsigned o = 1; o <= kMaxBuddyOrder; ++o) {
    const FrameId head = AlignDown(frame, 1ull << o);
    if (head == frame) {
      continue;
    }
    const PageDesc& d = desc_[head];
    if (d.state == State::kFreeHead && d.order == o) {
      return static_cast<uint32_t>(head);
    }
  }
  return std::nullopt;
}

bool Buddy::ClaimRange(FrameId start, uint64_t count) {
  HA_CHECK(start + count <= frames_);
  for (FrameId f = start; f < start + count; ++f) {
    if (desc_[f].state == State::kAllocated) {
      return false;
    }
  }
  // Detach every free block overlapping the range, then give back the
  // parts that stick out on either side.
  FrameId f = start;
  while (f < start + count) {
    std::optional<uint32_t> head = FindCoveringHead(f);
    HA_CHECK(head.has_value());  // verified free above
    const PageDesc& d = desc_[*head];
    const unsigned order = d.order;
    const uint64_t size = 1ull << order;
    ListRemove(order, d.type, *head);
    MarkAllocated(*head, order);
    ClearReported(*head, order);
    if (*head < start) {
      ReleaseRange(*head, start - *head);
    }
    const FrameId block_end = *head + size;
    if (block_end > start + count) {
      ReleaseRange(start + count, block_end - (start + count));
    }
    f = block_end;
  }
  return true;
}

void Buddy::ReleaseRange(FrameId start, uint64_t count) {
  HA_CHECK(start + count <= frames_);
  // Greedily free maximal naturally aligned blocks.
  FrameId f = start;
  uint64_t remaining = count;
  while (remaining > 0) {
    unsigned order = kMaxBuddyOrder;
    while (order > 0 &&
           (f % (1ull << order) != 0 || (1ull << order) > remaining)) {
      --order;
    }
    for (uint64_t i = 0; i < (1ull << order); ++i) {
      HA_CHECK(desc_[f + i].state == State::kAllocated);
    }
    FreeCore(f, order);
    f += 1ull << order;
    remaining -= 1ull << order;
  }
}

uint64_t Buddy::ClaimFreeInRange(FrameId start, uint64_t count) {
  HA_CHECK(start + count <= frames_);
  uint64_t claimed = 0;
  FrameId f = start;
  while (f < start + count) {
    if (desc_[f].state == State::kAllocated) {
      ++f;
      continue;
    }
    const std::optional<uint32_t> head = FindCoveringHead(f);
    HA_CHECK(head.has_value());
    const PageDesc& d = desc_[*head];
    const unsigned order = d.order;
    const uint64_t size = 1ull << order;
    ListRemove(order, d.type, *head);
    MarkAllocated(*head, order);
    ClearReported(*head, order);
    const FrameId block_end = *head + size;
    if (*head < start) {
      ReleaseRange(*head, start - *head);
    }
    if (block_end > start + count) {
      ReleaseRange(start + count, block_end - (start + count));
    }
    claimed += std::min<FrameId>(block_end, start + count) -
               std::max<FrameId>(*head, start);
    f = block_end;
  }
  return claimed;
}

std::vector<FrameId> Buddy::AllocatedInRange(FrameId start,
                                             uint64_t count) const {
  HA_CHECK(start + count <= frames_);
  std::vector<FrameId> result;
  for (FrameId f = start; f < start + count; ++f) {
    if (desc_[f].state == State::kAllocated) {
      result.push_back(f);
    }
  }
  return result;
}

bool Buddy::IsFree(FrameId frame) const {
  HA_CHECK(frame < frames_);
  return desc_[frame].state != State::kAllocated;
}

// ----------------------------------------------------------------------
// Free-page reporting support
// ----------------------------------------------------------------------

std::optional<FrameId> Buddy::PopUnreported(unsigned order) {
  HA_CHECK(order <= kMaxBuddyOrder);
  // Blocks of the requested order or larger qualify (Linux reports from
  // every free list of order >= the reporting order); larger blocks are
  // split and the unused siblings stay in the lists.
  for (unsigned o = order; o <= kMaxBuddyOrder; ++o) {
    for (unsigned t = 0; t < kNumMigrateTypes; ++t) {
      unsigned budget = kReportScanBudget;
      uint32_t frame = heads_[o][t];
      while (frame != kNil && budget-- > 0) {
        if (!IsReported(frame)) {
          ListRemove(o, static_cast<MigrateType>(t), frame);
          MarkAllocated(frame, o);
          SplitTo(frame, o, order, static_cast<MigrateType>(t));
          return static_cast<FrameId>(frame);
        }
        frame = desc_[frame].next;
      }
    }
  }
  return std::nullopt;
}

void Buddy::MarkReported(FrameId frame, unsigned order) {
  SetBits(reported_, frame, 1ull << order);
}

bool Buddy::IsReported(FrameId frame) const {
  return (reported_[frame / 64] >> (frame % 64)) & 1;
}

void Buddy::ClearReported(FrameId frame, unsigned order) {
  ClearBits(reported_, frame, 1ull << order);
}

// ----------------------------------------------------------------------
// Introspection
// ----------------------------------------------------------------------

uint64_t Buddy::FreeBlocksOfOrder(unsigned order) const {
  HA_CHECK(order <= kMaxBuddyOrder);
  uint64_t count = 0;
  for (unsigned t = 0; t < kNumMigrateTypes; ++t) {
    for (uint32_t f = heads_[order][t]; f != kNil; f = desc_[f].next) {
      ++count;
    }
  }
  return count;
}

uint64_t Buddy::FreeHugeFrames() const {
  uint64_t frames = 0;
  for (unsigned o = kHugeOrder; o <= kMaxBuddyOrder; ++o) {
    frames += FreeBlocksOfOrder(o) << o;
  }
  return frames;
}

uint64_t Buddy::UsedHugeBlocks() const {
  uint64_t count = 0;
  for (const uint16_t used : used_in_block_) {
    if (used > 0) {
      ++count;
    }
  }
  return count;
}

uint64_t Buddy::FreeAlignedHugeRanges() const {
  uint64_t count = 0;
  for (HugeId h = 0; h < frames_ / kFramesPerHuge; ++h) {
    bool all_free = true;
    for (FrameId f = HugeToFrame(h); f < HugeToFrame(h + 1); ++f) {
      if (desc_[f].state == State::kAllocated) {
        all_free = false;
        break;
      }
    }
    if (all_free) {
      ++count;
    }
  }
  return count;
}

bool Buddy::Validate() const {
  bool ok = true;
  auto fail = [&ok](const char* what, uint64_t a, uint64_t b) {
    std::fprintf(stderr, "buddy validate: %s (%llu vs %llu)\n", what,
                 static_cast<unsigned long long>(a),
                 static_cast<unsigned long long>(b));
    ok = false;
  };

  uint64_t listed = 0;
  for (unsigned o = 0; o <= kMaxBuddyOrder; ++o) {
    for (unsigned t = 0; t < kNumMigrateTypes; ++t) {
      uint32_t prev = kNil;
      for (uint32_t f = heads_[o][t]; f != kNil; f = desc_[f].next) {
        const PageDesc& d = desc_[f];
        if (d.state != State::kFreeHead || d.order != o) {
          fail("list node not a free head of its order", f, o);
        }
        if (d.prev != prev) {
          fail("broken prev link", f, prev);
        }
        if (f % (1ull << o) != 0) {
          fail("misaligned free block", f, o);
        }
        for (uint64_t i = 1; i < (1ull << o); ++i) {
          if (desc_[f + i].state != State::kFreeTail) {
            fail("free block interior not tail", f + i, o);
          }
        }
        listed += 1ull << o;
        prev = f;
      }
    }
  }
  if (listed != free_frames_) {
    fail("free frame counter mismatch", listed, free_frames_);
  }
  uint64_t used_total = 0;
  for (const uint16_t used : used_in_block_) {
    used_total += used;
  }
  if (used_total != frames_ - free_frames_) {
    fail("per-block usage counter mismatch", used_total,
         frames_ - free_frames_);
  }
  return ok;
}

}  // namespace hyperalloc::buddy
