#include "src/hv/ept.h"

#include "src/base/bitmap.h"
#include "src/base/check.h"
#include "src/trace/trace.h"

namespace hyperalloc::hv {

Ept::Ept(uint64_t frames, HostMemory* host)
    : frames_(frames),
      host_(host),
      bitmap_((frames + 63) / 64, 0),
      huge_entry_((HugesForFrames(frames) + 63) / 64, 0) {}

bool Ept::HasHugeEntry(HugeId huge) const {
  HA_CHECK(huge < HugesForFrames(frames_));
  return (huge_entry_[huge / 64] >> (huge % 64)) & 1;
}

bool Ept::IsMapped(FrameId frame) const {
  HA_CHECK(frame < frames_);
  return (bitmap_[frame / 64] >> (frame % 64)) & 1;
}

uint64_t Ept::CountMapped(FrameId first, uint64_t count) const {
  HA_CHECK(first + count <= frames_);
  return CountBits(bitmap_, first, count);
}

uint64_t Ept::Map(FrameId first, uint64_t count) {
  HA_CHECK(first + count <= frames_);
  const uint64_t missing = count - CountBits(bitmap_, first, count);
  if (missing == 0) {
    return 0;
  }
  if (const auto kind = fault::Poll(fault_, fault::Site::kEptMap)) {
    last_injected_kind_ = *kind;
    ++injected_faults_;
    HA_COUNT("fault.ept_map");
    return kFaultInjected;
  }
  if (host_ != nullptr && !host_->TryReserve(missing)) {
    return kNoHostMemory;
  }
  // 2M-entry promotion: a huge frame the range wholly covers and that had
  // nothing mapped before this call is installed as one 2 MiB entry
  // (pre-call state, so the tally runs before the bitmap is touched).
  // Partly covered huge frames stay (or fill in as) 4K entries. When the
  // whole range was unmapped, so is every huge frame inside it.
  const HugeId end_huge = FrameToHuge(first + count);
  for (HugeId huge = FrameToHuge(AlignUp(first, kFramesPerHuge));
       huge < end_huge; ++huge) {
    if (missing == count || CountBits(bitmap_, HugeToFrame(huge),
                                      kFramesPerHuge) == 0) {
      huge_entry_[huge / 64] |= 1ull << (huge % 64);
      ++mapped_2m_;
      HA_COUNT("ept.map_2m");
    }
  }
  SetBits(bitmap_, first, count);
  mapped_ += missing;
  HA_COUNT("ept.map_ops");
  HA_COUNT_N("ept.map_frames", missing);
  return missing;
}

uint64_t Ept::Unmap(FrameId first, uint64_t count) {
  HA_CHECK(first + count <= frames_);
  const uint64_t present = CountBits(bitmap_, first, count);
  if (present == 0) {
    return 0;
  }
  if (const auto kind = fault::Poll(fault_, fault::Site::kEptUnmap)) {
    last_injected_kind_ = *kind;
    ++injected_faults_;
    HA_COUNT("fault.ept_unmap");
    return kFaultInjected;
  }
  const HugeUnmapAccounting huge = TallyHugeUnmap(first, count);
  ClearBits(bitmap_, first, count);
  HA_DCHECK(mapped_ >= present);  // underflow = bitmap/counter divergence
  mapped_ -= present;
  if (host_ != nullptr) {
    host_->Release(present);
  }
  ++total_unmap_ops_;
  // One ranged TLB flush covers the whole batch (vs `present` single-page
  // flushes under per-page unmapping).
  ++tlb_range_flushes_;
  tlb_flushed_frames_ += present;
  // What the flush actually invalidated: one 2M entry per wholly-covered
  // huge mapping, 4K entries for everything else that was present
  // (including the demoted remainder of partially-covered 2M entries).
  demotions_2m_ += huge.demoted;
  entries_invalidated_2m_ += huge.whole_2m;
  HA_DCHECK(present >= huge.whole_2m * kFramesPerHuge);
  entries_invalidated_4k_ += present - huge.whole_2m * kFramesPerHuge;
  HA_COUNT("ept.unmap_ops");
  HA_COUNT_N("ept.unmap_frames", present);
  HA_COUNT("ept.tlb_range_flush");
  return present;
}

Ept::HugeUnmapAccounting Ept::TallyHugeUnmap(FrameId first, uint64_t count) {
  HugeUnmapAccounting out;
  for (HugeId huge = FrameToHuge(first);
       huge <= FrameToHuge(first + count - 1); ++huge) {
    const FrameId hf = HugeToFrame(huge);
    const bool whole = hf >= first && hf + kFramesPerHuge <= first + count;
    const bool entry = (huge_entry_[huge / 64] >> (huge % 64)) & 1;
    if (whole && entry) {
      ++out.whole_2m;
      HA_COUNT("ept.unmap_2m");
    } else if (entry) {
      // Partial coverage splits the 2M entry into 4K entries before the
      // covered part is invalidated (huge→base demotion, §4.14).
      ++out.demoted;
      HA_COUNT("ept.demote_2m");
    }
    if (entry) {
      huge_entry_[huge / 64] &= ~(1ull << (huge % 64));
      HA_DCHECK(mapped_2m_ > 0);
      --mapped_2m_;
    }
  }
  return out;
}

}  // namespace hyperalloc::hv
