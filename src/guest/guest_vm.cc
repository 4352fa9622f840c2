#include "src/guest/guest_vm.h"

#include <algorithm>
#include <span>

#include "src/base/check.h"
#include "src/trace/trace.h"

namespace hyperalloc::guest {

namespace {

// How much page cache the kernel evicts per direct-reclaim round.
constexpr uint64_t kReclaimBatchFrames = 4096;  // 16 MiB
// Per-vCPU frame-cache capacity for LLFree zones (DESIGN.md §4.10);
// order-0 movable allocations are served from the cache, refilling and
// draining in GetBatch/PutBatch batches.
constexpr unsigned kLLFreeCacheFrames = 64;

}  // namespace

GuestVm::GuestVm(sim::Simulation* sim, hv::HostMemory* host,
                 const GuestConfig& config, const hv::CostModel& costs)
    : sim_(sim),
      host_(host),
      config_(config),
      costs_(costs),
      total_frames_(config.memory_bytes / kFrameSize),
      ept_(total_frames_, host),
      sink_(&hv::NullInterference()) {
  HA_CHECK(sim != nullptr);
  HA_CHECK(config.memory_bytes % (kFrameSize << kMaxBuddyOrder) == 0);
  HA_CHECK(config.vcpus > 0);

  if (config.vfio) {
    iommu_ = std::make_unique<hv::Iommu>(total_frames_);
  }
  alloc_order_.assign(total_frames_, 0);
  in_cache_.assign(total_frames_, false);

  // Zone layout: [DMA32][Normal][Movable] — whichever are configured.
  uint64_t movable_frames = config.movable_bytes / kFrameSize;
  uint64_t dma32_frames = config.dma32_bytes / kFrameSize;
  HA_CHECK(movable_frames + dma32_frames <= total_frames_);
  if (movable_frames + dma32_frames == total_frames_) {
    dma32_frames = 0;  // degenerate config: keep a Normal zone
  }

  auto add_zone = [&](ZoneKind kind, FrameId start, uint64_t frames) {
    if (frames == 0) {
      return;
    }
    Zone zone;
    zone.kind = kind;
    zone.start = start;
    zone.frames = frames;
    if (config.allocator == AllocatorKind::kBuddy) {
      buddy::Buddy::Config bc = config.buddy_config;
      bc.cores = config.vcpus;
      zone.buddy = std::make_unique<buddy::Buddy>(frames, bc);
    } else {
      zone.llfree_state =
          std::make_unique<llfree::SharedState>(frames, llfree::Config{});
      zone.llfree = std::make_unique<llfree::LLFree>(zone.llfree_state.get());
      zone.llfree_cache = std::make_unique<llfree::FrameCache>(
          zone.llfree.get(),
          llfree::FrameCache::CacheConfig{.slots = config.vcpus,
                                          .capacity = kLLFreeCacheFrames,
                                          .refill = kLLFreeCacheFrames / 2});
    }
    zones_.push_back(std::move(zone));
  };

  approx_free_frames_ = total_frames_;
  const uint64_t normal_frames =
      total_frames_ - movable_frames - dma32_frames;
  add_zone(ZoneKind::kDma32, 0, dma32_frames);
  add_zone(ZoneKind::kNormal, dma32_frames, normal_frames);
  add_zone(ZoneKind::kMovable, dma32_frames + normal_frames, movable_frames);
}

Zone& GuestVm::ZoneOf(FrameId frame) {
  for (Zone& zone : zones_) {
    if (zone.Contains(frame)) {
      return zone;
    }
  }
  HA_CHECK(false && "frame outside every zone");
  __builtin_unreachable();
}

Result<FrameId> GuestVm::ZoneAlloc(Zone& zone, unsigned order,
                                   AllocType type, unsigned core) {
  if (zone.buddy != nullptr) {
    const Result<FrameId> r = zone.buddy->Alloc(core, order, type);
    if (r.ok()) {
      return zone.start + *r;
    }
    return r;
  }
  const Result<FrameId> r = zone.llfree_cache->Get(core, order, type);
  if (r.ok()) {
    return zone.start + *r;
  }
  return r;
}

void GuestVm::ZoneFree(Zone& zone, FrameId frame, unsigned order,
                       unsigned core, AllocType type) {
  const FrameId local = frame - zone.start;
  if (zone.buddy != nullptr) {
    const auto err = zone.buddy->Free(core, local, order);
    HA_CHECK(!err.has_value());
    return;
  }
  // The recorded type keeps non-movable frees out of the per-vCPU cache
  // so they return through LLFree's type-aware slot selection.
  const auto err = zone.llfree_cache->Put(core, local, order, type);
  HA_CHECK(!err.has_value());
}

Result<FrameId> GuestVm::AllocFromZones(unsigned order, AllocType type,
                                        unsigned core) {
  // Zone preference (Linux-like): movable allocations may use the
  // Movable zone first, then Normal, then DMA32; unmovable kernel
  // allocations never touch Movable.
  const bool movable = type != AllocType::kUnmovable;
  static constexpr ZoneKind kMovableOrder[] = {
      ZoneKind::kMovable, ZoneKind::kNormal, ZoneKind::kDma32};
  static constexpr ZoneKind kUnmovableOrder[] = {ZoneKind::kNormal,
                                                 ZoneKind::kDma32};
  const std::span<const ZoneKind> order_list =
      movable ? std::span<const ZoneKind>(kMovableOrder)
              : std::span<const ZoneKind>(kUnmovableOrder);
  for (const ZoneKind kind : order_list) {
    for (Zone& zone : zones_) {
      if (zone.kind != kind) {
        continue;
      }
      const Result<FrameId> r = ZoneAlloc(zone, order, type, core);
      if (r.ok()) {
        return r;
      }
    }
  }
  return AllocError::kNoMemory;
}

void GuestVm::MaybeReclaimToWatermark(unsigned core) {
  if (watermark_resync_countdown_ == 0) {
    approx_free_frames_ = FreeFrames();  // periodic exact resync
    watermark_resync_countdown_ = 4096;
  }
  --watermark_resync_countdown_;
  const uint64_t low_watermark = std::max<uint64_t>(total_frames_ / 64,
                                                    kReclaimBatchFrames);
  int rounds = 8;
  while (approx_free_frames_ < low_watermark && !cache_frames_.empty() &&
         rounds-- > 0) {
    CacheDrop(kReclaimBatchFrames * kFrameSize, core);
    ++cache_evictions_;
    watermark_resync_countdown_ = 0;  // state changed: resync next time
    approx_free_frames_ = FreeFrames();
  }
}

void GuestVm::RecordAlloc(FrameId frame, unsigned order, AllocType type) {
  alloc_order_[frame] = static_cast<uint8_t>(
      (order + 1) | (type == AllocType::kUnmovable ? 0x80 : 0));
  approx_free_frames_ -= std::min<uint64_t>(approx_free_frames_,
                                            1ull << order);
  if (aux_ != nullptr) {
    AuxAfterAlloc(frame, order);
  }
}

Result<FrameId> GuestVm::Alloc(unsigned order, AllocType type,
                               unsigned core, bool allow_oom_notify) {
  MaybeReclaimToWatermark(core);
  for (int round = 0; round < 64; ++round) {
    const Result<FrameId> r = AllocFromZones(order, type, core);
    if (r.ok()) {
      RecordAlloc(*r, order, type);
      return r;
    }
    // Direct reclaim: evict page cache and retry. Higher orders also
    // purge allocator caches, since reclaim alone rarely forms
    // contiguity.
    if (cache_frames_.empty()) {
      break;
    }
    const uint64_t batch =
        std::max<uint64_t>(kReclaimBatchFrames, 4ull << order);
    CacheDrop(batch * kFrameSize, core);
    ++cache_evictions_;
    if (order > 0 && round >= 1) {
      PurgeAllocatorCaches();
    }
  }
  // One last attempt with drained allocator caches.
  PurgeAllocatorCaches();
  const Result<FrameId> r = AllocFromZones(order, type, core);
  if (r.ok()) {
    RecordAlloc(*r, order, type);
    return r;
  }
  // "Costly" orders (> 3, e.g. THP) fail gracefully — callers fall back
  // to base pages. Only low-order failures are out-of-memory situations.
  if (order <= 3) {
    // Deflate-on-OOM (virtio-balloon feature): give the balloon a chance
    // to release memory before declaring OOM.
    if (allow_oom_notify && oom_notifier_ && !in_oom_notifier_) {
      in_oom_notifier_ = true;
      const bool freed = oom_notifier_();
      in_oom_notifier_ = false;
      if (freed) {
        const Result<FrameId> retry = AllocFromZones(order, type, core);
        if (retry.ok()) {
          RecordAlloc(*retry, order, type);
          return retry;
        }
      }
    }
    ++oom_events_;
  }
  return AllocError::kNoMemory;
}

unsigned GuestVm::AllocBatch(unsigned order, unsigned count, AllocType type,
                             unsigned core, std::vector<FrameId>* out,
                             bool allow_oom_notify) {
  HA_CHECK(out != nullptr);
  if (count == 0) {
    return 0;
  }
  MaybeReclaimToWatermark(core);
  unsigned got = 0;
  if (order <= llfree::kMaxSingleWordOrder) {
    // LLFree zones in the usual preference order, filled word-at-a-time.
    const bool movable = type != AllocType::kUnmovable;
    static constexpr ZoneKind kMovableOrder[] = {
        ZoneKind::kMovable, ZoneKind::kNormal, ZoneKind::kDma32};
    static constexpr ZoneKind kUnmovableOrder[] = {ZoneKind::kNormal,
                                                   ZoneKind::kDma32};
    const std::span<const ZoneKind> order_list =
        movable ? std::span<const ZoneKind>(kMovableOrder)
                : std::span<const ZoneKind>(kUnmovableOrder);
    for (const ZoneKind kind : order_list) {
      for (Zone& zone : zones_) {
        if (zone.kind != kind || zone.llfree == nullptr || got == count) {
          continue;
        }
        const size_t before = out->size();
        got += zone.llfree->GetBatch(core, order, count - got, type, out);
        for (size_t i = before; i < out->size(); ++i) {
          (*out)[i] += zone.start;
          RecordAlloc((*out)[i], order, type);
        }
      }
    }
  }
  // Remainder: buddy zones and the pressure paths (direct reclaim,
  // cache purge, deflate-on-OOM) via single Allocs.
  while (got < count) {
    const Result<FrameId> r = Alloc(order, type, core, allow_oom_notify);
    if (!r.ok()) {
      break;
    }
    out->push_back(*r);
    ++got;
  }
  return got;
}

void GuestVm::FreeBatch(std::span<const FrameId> frames, unsigned order,
                        unsigned core) {
  if (order > llfree::kMaxSingleWordOrder) {
    for (const FrameId f : frames) {
      Free(f, order, core);
    }
    return;
  }
  // Bucket LLFree-zone frames (as zone-local ids) for one PutBatch per
  // zone; everything else takes the single-frame path.
  std::vector<std::vector<FrameId>> buckets(zones_.size());
  for (const FrameId f : frames) {
    HA_CHECK(f < total_frames_);
    size_t zi = 0;
    while (!zones_[zi].Contains(f)) {
      ++zi;
    }
    Zone& zone = zones_[zi];
    if (zone.llfree == nullptr) {
      Free(f, order, core);
      continue;
    }
    HA_CHECK((alloc_order_[f] & 0x7fu) == order + 1);
    alloc_order_[f] = 0;
    approx_free_frames_ += 1ull << order;
    buckets[zi].push_back(f - zone.start);
    if (aux_ != nullptr) {
      AuxAfterFree(f, order);  // no-op for LLFree zones, kept for clarity
    }
  }
  for (size_t zi = 0; zi < buckets.size(); ++zi) {
    if (buckets[zi].empty()) {
      continue;
    }
    const unsigned freed = zones_[zi].llfree->PutBatch(buckets[zi], order);
    HA_CHECK(freed == buckets[zi].size());
  }
}

void GuestVm::AttachAuxBridge(hv::AuxState* aux,
                              std::function<void(HugeId)> install) {
  HA_CHECK(aux != nullptr);
  HA_CHECK(aux->size() == HugesForFrames(total_frames_));
  aux_ = aux;
  aux_install_ = std::move(install);
}

void GuestVm::AuxAfterAlloc(FrameId frame, unsigned order) {
  const HugeId first = FrameToHuge(frame);
  const HugeId last = FrameToHuge(frame + (1ull << order) - 1);
  for (HugeId h = first; h <= last; ++h) {
    aux_->SetAllocated(h);
    if (aux_->Evicted(h)) {
      // DMA safety: block until the hypervisor installed the frame.
      aux_install_(h);
    }
  }
}

void GuestVm::AuxAfterFree(FrameId frame, unsigned order) {
  Zone& zone = ZoneOf(frame);
  if (zone.buddy == nullptr) {
    return;  // LLFree guests carry A in their own area index
  }
  const HugeId first = FrameToHuge(frame);
  const HugeId last = FrameToHuge(frame + (1ull << order) - 1);
  for (HugeId h = first; h <= last; ++h) {
    const HugeId local = h - FrameToHuge(zone.start);
    if (zone.buddy->UsedFramesInBlock(local) == 0) {
      aux_->ClearAllocated(h);
    }
  }
}

void GuestVm::Free(FrameId frame, unsigned order, unsigned core) {
  HA_CHECK(frame < total_frames_);
  HA_CHECK((alloc_order_[frame] & 0x7fu) == order + 1);
  const AllocType type = (alloc_order_[frame] & 0x80) != 0
                             ? AllocType::kUnmovable
                             : AllocType::kMovable;
  alloc_order_[frame] = 0;
  approx_free_frames_ += 1ull << order;
  ZoneFree(ZoneOf(frame), frame, order, core, type);
  if (aux_ != nullptr) {
    AuxAfterFree(frame, order);
  }
}

bool GuestVm::PopulateFrames(FrameId first, uint64_t count) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    // Map returns 0 when nothing in the range is missing.
    const uint64_t mapped = ept_.Map(first, count);
    if (mapped == hv::Ept::kFaultInjected) {
      // Injected map fault: pressure handling cannot help; the caller's
      // recovery layer (bounded retry with backoff) owns this failure.
      return false;
    }
    if (mapped != hv::Ept::kNoHostMemory) {
      return true;
    }
    if (!host_pressure_ ||
        !host_pressure_(count - ept_.CountMapped(first, count))) {
      break;
    }
  }
  if (host_pressure_ == nullptr && fault_ != nullptr && fault_->enabled()) {
    // Injected pool exhaustion with no swap attached: recoverable by the
    // caller's retry path rather than fatal.
    return false;
  }
  HA_CHECK(host_pressure_ != nullptr);  // without swap, exhaustion is fatal
  return false;
}

void GuestVm::Touch(FrameId first, uint64_t count) {
  HA_CHECK(first + count <= total_frames_);
  const sim::Time start = sim_->now();
  sim::Time cost = 0;
  uint64_t populated_bytes = 0;

  FrameId frame = first;
  const FrameId end = first + count;
  while (frame < end) {
    const HugeId huge = FrameToHuge(frame);
    const FrameId huge_base = HugeToFrame(huge);
    const FrameId huge_end = std::min<FrameId>(huge_base + kFramesPerHuge,
                                               total_frames_);
    const FrameId chunk_end = std::min(huge_end, end);
    const uint64_t chunk = chunk_end - frame;

    const uint64_t mapped_in_huge =
        ept_.CountMapped(huge_base, huge_end - huge_base);
    if (mapped_in_huge == 0) {
      // THP-style population: first touch of a fully unmapped huge frame
      // backs the entire 2 MiB region (one EPT fault, one host huge page).
      const uint64_t huge_frames = huge_end - huge_base;
      PopulateFrames(huge_base, huge_frames);
      ++ept_faults_2m_;
      HA_COUNT("guest.ept_fault_2m");
      cost += costs_.ept_fault_2m_ns + huge_frames * costs_.populate_4k_ns;
      populated_bytes += huge_frames * kFrameSize;
    } else if (mapped_in_huge < huge_end - huge_base) {
      // Partially backed huge frame: missing 4 KiB pages fault
      // individually.
      const uint64_t missing = chunk - ept_.CountMapped(frame, chunk);
      if (missing > 0) {
        PopulateFrames(frame, chunk);
        ept_faults_4k_ += missing;
        HA_COUNT_N("guest.ept_fault_4k", missing);
        cost += missing * (costs_.ept_fault_4k_ns + costs_.populate_4k_ns);
        populated_bytes += missing * kFrameSize;
      }
    }
    if (fault_surcharge_) {
      cost += fault_surcharge_(frame, chunk);  // swap-in reads
    }
    cost += chunk * costs_.touch_4k_ns;  // the write itself (17 GiB/s)
    // Expose the access to the hypervisor via the shared hotness hint
    // (6): one relaxed check + rare CAS per 2 MiB of traffic.
    {
      Zone& zone = ZoneOf(frame);
      if (zone.llfree != nullptr) {
        zone.llfree->MarkHot(FrameToHuge(frame - zone.start));
      }
    }
    frame = chunk_end;
  }

  fault_time_ += cost;
  sim_->AdvanceClock(cost);
  if (populated_bytes > 0 && cost > 0) {
    sink_->OnBandwidth(start, start + cost,
                       static_cast<double>(populated_bytes) /
                           static_cast<double>(cost));
  }
}

bool GuestVm::DmaWrite(FrameId first, uint64_t count) {
  HA_CHECK(first + count <= total_frames_);
  if (iommu_ == nullptr) {
    // Emulated device: QEMU writes through its own mapping, faulting the
    // memory in like a CPU access — always succeeds.
    Touch(first, count);
    return true;
  }
  // Passthrough device: no IO page faults possible (§2). Every frame must
  // already be pinned in the IOMMU.
  for (HugeId huge = FrameToHuge(first);
       huge <= FrameToHuge(first + count - 1); ++huge) {
    if (!iommu_->IsPinned(huge)) {
      return false;  // DMA transfer fails
    }
  }
  return true;
}

void GuestVm::CacheAdd(uint64_t bytes, unsigned core) {
  const uint64_t frames = FramesForBytes(bytes);
  for (uint64_t i = 0; i < frames; ++i) {
    const Result<FrameId> r = Alloc(0, AllocType::kMovable, core);
    if (!r.ok()) {
      return;  // cache fills only as far as memory allows
    }
    Touch(*r, 1);
    cache_frames_.push_back(*r);
    in_cache_[*r] = true;
    ++cache_count_;
  }
}

void GuestVm::CacheDrop(uint64_t bytes, unsigned core) {
  uint64_t frames = FramesForBytes(bytes);
  while (frames > 0 && !cache_frames_.empty()) {
    const FrameId front = cache_frames_.front();
    cache_frames_.pop_front();
    if (!in_cache_[front]) {
      continue;  // stale entry: the frame migrated away
    }
    in_cache_[front] = false;
    --cache_count_;
    Free(front, 0, core);
    --frames;
  }
}

void GuestVm::DropCaches(unsigned core) {
  CacheDrop(cache_count_ * kFrameSize, core);
}

bool GuestVm::MigrateRange(FrameId first, uint64_t count, unsigned core,
                           uint64_t* migrated) {
  HA_CHECK(first + count <= total_frames_);
  Zone& zone = ZoneOf(first);
  HA_CHECK(first + count <= zone.end());
  const sim::Time t0 = sim_->now();
  uint64_t moved = 0;

  // Pre-size the order-0 destination train: one AllocBatch claims the base
  // destinations up front (word-at-a-time on LLFree zones) and the loop
  // consumes them; higher orders stay per-allocation. Leftovers — an early
  // abort, or a source freed while the clock advanced — go back in one
  // FreeBatch below.
  uint64_t base_wanted = 0;
  for (FrameId g = first; g < first + count;) {
    if (alloc_order_[g] == 0) {
      ++g;
      continue;
    }
    if (AllocUnmovableAt(g)) {
      break;  // migration aborts there; later destinations are never used
    }
    const unsigned order = AllocOrderAt(g);
    base_wanted += order == 0 ? 1 : 0;
    g += 1ull << order;
  }
  std::vector<FrameId> base_dests;
  size_t next_base = 0;
  if (base_wanted > 0) {
    AllocBatch(0, static_cast<unsigned>(base_wanted), AllocType::kMovable,
               core, &base_dests);
  }

  FrameId f = first;
  bool ok = true;
  while (f < first + count) {
    if (alloc_order_[f] == 0) {
      ++f;
      continue;
    }
    if (AllocUnmovableAt(f)) {
      ok = false;  // pinned kernel memory: the range cannot be evacuated
      break;
    }
    const unsigned order = AllocOrderAt(f);
    const uint64_t size = 1ull << order;
    const Result<FrameId> dest =
        order == 0 && next_base < base_dests.size()
            ? Result<FrameId>(base_dests[next_base++])
            : Alloc(order, AllocType::kMovable, core);
    if (!dest.ok()) {
      ok = false;  // nowhere to migrate: the block stays partially used
      break;
    }
    HA_CHECK(*dest < first || *dest >= first + count);
    // Copy the contents (charging copy time + bus traffic) and fix up all
    // owners of the old frame id.
    sim_->AdvanceClock(size * costs_.migrate_4k_ns);
    Touch(*dest, size);
    if (in_cache_[f]) {
      HA_CHECK(order == 0);
      in_cache_[f] = false;
      in_cache_[*dest] = true;
      cache_frames_.push_back(*dest);
    }
    for (MigrationListener* listener : migration_listeners_) {
      listener->OnFrameMigrated(f, *dest, order);
    }
    // Transfer ownership of the evacuated frames to the isolation: they
    // are already marked allocated in the buddy, which is exactly the
    // claimed state — releasing them to the free lists would let the
    // allocator hand them out again (alloc_contig_range semantics).
    alloc_order_[f] = 0;
    moved += size;
    f += size;
  }

  if (next_base < base_dests.size()) {
    FreeBatch(std::span<const FrameId>(base_dests).subspan(next_base), 0,
              core);
  }

  migrated_frames_ += moved;
  if (migrated != nullptr) {
    *migrated = moved;
  }
  const sim::Time t1 = sim_->now();
  if (moved > 0 && t1 > t0) {
    // Migration reads + writes every byte once.
    sink_->OnBandwidth(t0, t1,
                       2.0 * static_cast<double>(moved * kFrameSize) /
                           static_cast<double>(t1 - t0));
  }
  return ok;
}

void GuestVm::PurgeAllocatorCaches() {
  for (Zone& zone : zones_) {
    if (zone.buddy != nullptr) {
      zone.buddy->DrainPcp();
    } else {
      zone.llfree_cache->Drain();
      zone.llfree->DrainReservations();
    }
  }
}

void GuestVm::ReleaseIsolatedRange(FrameId first, uint64_t count) {
  Zone& zone = ZoneOf(first);
  if (zone.buddy != nullptr) {
    FrameId f = first;
    while (f < first + count) {
      const unsigned order = AllocOrderAt(f);
      if (order != 0xff) {
        f += 1ull << order;  // live allocation: leave it alone
        continue;
      }
      // Coalesce the maximal isolated run into one buddy release.
      const FrameId run_start = f;
      while (f < first + count && AllocOrderAt(f) == 0xff) {
        ++f;
      }
      zone.buddy->ReleaseRange(run_start - zone.start, f - run_start);
    }
    return;
  }
  // LLFree zone (§4.14): the isolated frames are the order-0 claims
  // ClaimFreeInArea took plus any evacuated source frames MigrateRange
  // transferred to the isolation. One PutBatch returns them all; when
  // the area is fully evacuated its counter reaches 512 and the free
  // huge frame is re-formed without any dedicated release primitive.
  // A frame freed concurrently by the guest (bit already clear) is
  // skipped by PutBatch's double-free detection.
  std::vector<FrameId> isolated;
  isolated.reserve(count);
  FrameId f = first;
  while (f < first + count) {
    const unsigned order = AllocOrderAt(f);
    if (order != 0xff) {
      f += 1ull << order;  // live allocation: leave it alone
      continue;
    }
    isolated.push_back(f - zone.start);
    ++f;
  }
  zone.llfree->PutBatch(isolated, 0);
}

uint64_t GuestVm::FreeFrames() const {
  uint64_t total = 0;
  for (const Zone& zone : zones_) {
    total += zone.buddy != nullptr ? zone.buddy->FreeFrames()
                                   : zone.llfree->FreeFrames();
    if (zone.llfree_cache != nullptr) {
      // Cached frames look allocated to LLFree but are free to the guest.
      total += zone.llfree_cache->CachedFrames();
    }
  }
  return total;
}

uint64_t GuestVm::FreeHugeFrames() const {
  uint64_t total = 0;
  for (const Zone& zone : zones_) {
    total += zone.buddy != nullptr
                 ? zone.buddy->FreeHugeFrames() / kFramesPerHuge
                 : zone.llfree->FreeHugeFrames();
  }
  return total;
}

double GuestVm::FragmentationScore() const {
  const uint64_t free = FreeFrames();
  if (free == 0) {
    return 0.0;
  }
  const uint64_t huge_free = FreeHugeFrames() * kFramesPerHuge;
  // Cached (per-vCPU) frames count as free but not huge-claimable, so
  // they contribute to the score — draining them is part of what a
  // compaction pass does.
  return huge_free >= free
             ? 0.0
             : 1.0 - static_cast<double>(huge_free) /
                         static_cast<double>(free);
}

uint64_t GuestVm::UsedHugeBytes() const {
  uint64_t blocks = 0;
  for (const Zone& zone : zones_) {
    blocks += zone.buddy != nullptr ? zone.buddy->UsedHugeBlocks()
                                    : zone.llfree->UsedHugeAreas();
  }
  return blocks * kHugeSize;
}

}  // namespace hyperalloc::guest
