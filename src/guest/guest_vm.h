// Guest virtual machine model.
//
// A GuestVm combines:
//  * guest-physical memory split into Linux-like zones (DMA32 / Normal /
//    Movable), each with its own page-frame allocator instance (buddy or
//    LLFree, per paper §4.2 "every populated zone has its individual
//    LLFree instance"),
//  * a page-cache model with pressure-driven eviction (the guest kernel
//    evicts cache when allocations fail, which is how ballooning's memory
//    pressure manifests, §3.3/§5.5),
//  * an EPT with THP-style population: the first touch of an entirely
//    unmapped huge frame populates the whole 2 MiB (host-side transparent
//    huge pages); otherwise individual 4 KiB pages fault in. This is why
//    LLFree's contiguous allocations halve the guest's EPT faults (§5.5),
//  * an optional VFIO IOMMU for device passthrough.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/types.h"
#include "src/buddy/buddy.h"
#include "src/fault/fault.h"
#include "src/hv/aux_state.h"
#include "src/hv/cost_model.h"
#include "src/hv/ept.h"
#include "src/hv/host_memory.h"
#include "src/hv/interference.h"
#include "src/hv/iommu.h"
#include "src/llfree/frame_cache.h"
#include "src/llfree/llfree.h"
#include "src/sim/simulation.h"

namespace hyperalloc::guest {

// Notified when the kernel migrates an allocation to a new frame (memory
// compaction during virtio-mem unplug). Owners of raw frame ids (workload
// regions) must update their records.
class MigrationListener {
 public:
  virtual ~MigrationListener() = default;
  virtual void OnFrameMigrated(FrameId old_head, FrameId new_head,
                               unsigned order) = 0;
};

enum class AllocatorKind { kBuddy, kLLFree };

enum class ZoneKind { kDma32, kNormal, kMovable };

struct GuestConfig {
  std::string name = "vm0";
  uint64_t memory_bytes = 20 * kGiB;
  unsigned vcpus = 12;
  AllocatorKind allocator = AllocatorKind::kBuddy;
  buddy::Buddy::Config buddy_config;
  // Zone layout. DMA32 covers the first `dma32_bytes`; a Movable zone of
  // `movable_bytes` (for virtio-mem's hotpluggable memory) covers the top
  // of guest-physical memory; the rest is Normal.
  uint64_t dma32_bytes = 2 * kGiB;
  uint64_t movable_bytes = 0;
  // Attach a VFIO passthrough device (IOMMU must be kept in sync).
  bool vfio = false;
};

struct Zone {
  ZoneKind kind;
  FrameId start;
  uint64_t frames;
  std::unique_ptr<buddy::Buddy> buddy;
  std::unique_ptr<llfree::SharedState> llfree_state;
  std::unique_ptr<llfree::LLFree> llfree;
  // Per-vCPU order-0 cache over `llfree` (null in buddy zones).
  std::unique_ptr<llfree::FrameCache> llfree_cache;

  FrameId end() const { return start + frames; }
  bool Contains(FrameId frame) const {
    return frame >= start && frame < end();
  }
};

class GuestVm {
 public:
  GuestVm(sim::Simulation* sim, hv::HostMemory* host,
          const GuestConfig& config,
          const hv::CostModel& costs = hv::CostModel::Default());

  GuestVm(const GuestVm&) = delete;
  GuestVm& operator=(const GuestVm&) = delete;

  const GuestConfig& config() const { return config_; }
  sim::Simulation* simulation() { return sim_; }
  const hv::CostModel& costs() const { return costs_; }
  uint64_t total_frames() const { return total_frames_; }

  hv::Ept& ept() { return ept_; }
  hv::Iommu* iommu() { return iommu_.get(); }
  hv::HostMemory* host() { return host_; }

  // Arms deterministic fault injection on this VM's EPT and IOMMU (and
  // remembers the injector so deflators can consult their own sites).
  // Arm *after* boot-time population so start-up cannot fault; the host
  // pool is shared and gets its injector separately. Null disarms.
  void SetFaultInjector(fault::Injector* injector) {
    fault_ = injector;
    ept_.SetFaultInjector(injector);
    if (iommu_ != nullptr) {
      iommu_->SetFaultInjector(injector);
    }
  }
  fault::Injector* fault_injector() { return fault_; }

  void SetInterferenceSink(hv::InterferenceSink* sink) { sink_ = sink; }
  hv::InterferenceSink& sink() { return *sink_; }

  // Last-resort OOM hook (virtio-balloon's deflate-on-oom): called when
  // an allocation is about to fail with nothing left to reclaim. If the
  // handler returns true (it freed memory), the allocation retries once.
  void SetOomNotifier(std::function<bool()> notifier) {
    oom_notifier_ = std::move(notifier);
  }

  // Host overcommit support: called when populating guest memory finds
  // the host pool empty. Returning true means room was made (swap-out);
  // the population retries. Without a handler, exhaustion aborts.
  void SetHostPressureHandler(std::function<bool(uint64_t)> handler) {
    host_pressure_ = std::move(handler);
  }

  // Extra fault latency for ranges that were swapped out (swap-in reads).
  void SetFaultSurcharge(
      std::function<uint64_t(FrameId, uint64_t)> surcharge) {
    fault_surcharge_ = std::move(surcharge);
  }

  // Populates [first, first+count) in the EPT, invoking the pressure
  // handler on host exhaustion. Returns false only if pressure handling
  // is attached and failed; aborts if no handler exists.
  bool PopulateFrames(FrameId first, uint64_t count);

  // §6 "Concept Generalization": attaches the auxiliary hypervisor-shared
  // (A, E) interface for guests whose own allocator cannot be shared
  // (buddy). The guest keeps A in sync with per-huge-frame occupancy and
  // calls `install` (blocking) before first use of an evicted frame.
  void AttachAuxBridge(hv::AuxState* aux,
                       std::function<void(HugeId)> install);

  std::vector<Zone>& zones() { return zones_; }
  Zone& ZoneOf(FrameId frame);

  // ------------------------------------------------------------------
  // Workload-facing allocation API (runs "inside" the guest)
  // ------------------------------------------------------------------

  // Allocates 2^order frames; on failure evicts page cache and retries
  // (the kernel's direct reclaim). Counts an OOM event if that fails too.
  // `allow_oom_notify=false` skips the deflate-on-OOM hook (the balloon's
  // own inflation allocations must not cannibalize the balloon).
  Result<FrameId> Alloc(unsigned order, AllocType type, unsigned core = 0,
                        bool allow_oom_notify = true);

  void Free(FrameId frame, unsigned order, unsigned core = 0);

  // Batched variants (DESIGN.md §4.10). AllocBatch claims up to `count`
  // runs of 2^order frames, appending each head frame to `out`: LLFree
  // zones are filled via GetBatch (word-at-a-time claims, bypassing the
  // per-vCPU cache so a large batch does not churn it); any remainder —
  // buddy zones, direct reclaim, deflate-on-OOM — falls back to single
  // Alloc calls, so batch semantics match `count` singles exactly.
  // Returns the number of runs claimed.
  unsigned AllocBatch(unsigned order, unsigned count, AllocType type,
                      unsigned core = 0, std::vector<FrameId>* out = nullptr,
                      bool allow_oom_notify = true);

  // FreeBatch groups frames by zone and bit-field word (PutBatch) so a
  // deflate-style free train costs one CAS per word instead of one full
  // Put transaction per frame. Per-frame bookkeeping is preserved.
  void FreeBatch(std::span<const FrameId> frames, unsigned order,
                 unsigned core = 0);

  // Writes to [first, first+count) guest frames: unmapped frames fault
  // and populate (THP-style), charging virtual time and bandwidth.
  void Touch(FrameId first, uint64_t count);

  // Simulated DMA by a passthrough device into guest frame(s). Returns
  // false if the transfer would fail (frame not pinned in the IOMMU /
  // not backed) — the DMA-safety oracle.
  bool DmaWrite(FrameId first, uint64_t count);

  // ------------------------------------------------------------------
  // Page cache
  // ------------------------------------------------------------------

  // Reads `bytes` of (new) file data: allocates movable frames, touches
  // them, and tracks them in the page-cache LRU.
  void CacheAdd(uint64_t bytes, unsigned core = 0);
  // Invalidates `bytes` from the cache LRU (e.g. files deleted by
  // `make clean`). Frees the frames back to the allocator.
  void CacheDrop(uint64_t bytes, unsigned core = 0);
  void DropCaches(unsigned core = 0);  // echo 3 > drop_caches
  uint64_t cache_bytes() const { return cache_count_ * kFrameSize; }

  // Kernel cache purge on hypervisor request (§3.3): drains allocator
  // caches (PCPs / reservations). Does not drop the page cache.
  void PurgeAllocatorCaches();

  // ------------------------------------------------------------------
  // Memory compaction / migration (virtio-mem unplug support)
  // ------------------------------------------------------------------

  void AddMigrationListener(MigrationListener* listener) {
    migration_listeners_.push_back(listener);
  }

  // Migrates every allocation in [first, first+count) (a range whose
  // free frames the caller has already isolated — buddy ClaimFreeInRange
  // or LLFree ClaimFreeInArea, §4.14) to frames outside the range, then
  // claims the evacuated frames. Returns false if a destination
  // allocation failed (range stays partially migrated; evacuated frames
  // remain claimed). `migrated` (optional) receives the number of frames
  // moved.
  bool MigrateRange(FrameId first, uint64_t count, unsigned core,
                    uint64_t* migrated = nullptr);

  // The allocation order recorded for a frame that is the head of a live
  // allocation (0xff if none) — used by migration and tests.
  unsigned AllocOrderAt(FrameId frame) const {
    const uint8_t raw = alloc_order_[frame] & 0x7f;
    return raw == 0 ? 0xff : raw - 1u;
  }

  // Whether the allocation headed at `frame` is unmovable (kernel
  // memory): compaction and migration must leave it in place.
  bool AllocUnmovableAt(FrameId frame) const {
    return (alloc_order_[frame] & 0x80) != 0;
  }

  // Releases a range previously isolated (claimed), leaving live
  // allocations alone — the rollback path shared by virtio-mem unplug
  // and memory compaction. Buddy zones coalesce isolated runs into
  // ranged releases; LLFree zones return the isolated frames in one
  // PutBatch (a fully evacuated area re-forms a free huge frame, §4.14).
  void ReleaseIsolatedRange(FrameId first, uint64_t count);

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  uint64_t FreeFrames() const;
  uint64_t AllocatedFrames() const { return total_frames_ - FreeFrames(); }
  // Free frames available at huge granularity (what huge-page-granular
  // reclamation could take right now).
  uint64_t FreeHugeFrames() const;
  // Fraction of free memory NOT recoverable as whole huge frames, over
  // all zones (DESIGN.md §4.14) — the compaction daemon's trigger input.
  double FragmentationScore() const;
  // Guest-used huge areas (LLFree only; Fig. 8 "huge" curve).
  uint64_t UsedHugeBytes() const;

  uint64_t rss_bytes() const { return ept_.rss_bytes(); }

  uint64_t oom_events() const { return oom_events_; }
  uint64_t cache_evictions() const { return cache_evictions_; }
  uint64_t migrated_frames() const { return migrated_frames_; }
  uint64_t ept_faults_4k() const { return ept_faults_4k_; }
  uint64_t ept_faults_2m() const { return ept_faults_2m_; }
  // Virtual CPU time spent in fault handling / population.
  sim::Time fault_time() const { return fault_time_; }

 private:
  friend class GuestVmTestPeer;

  Result<FrameId> AllocFromZones(unsigned order, AllocType type,
                                 unsigned core);
  // Shared post-allocation bookkeeping (alloc_order_, watermark, aux).
  void RecordAlloc(FrameId frame, unsigned order, AllocType type);
  void AuxAfterAlloc(FrameId frame, unsigned order);
  void AuxAfterFree(FrameId frame, unsigned order);
  // kswapd-style background reclaim: keeps free memory above a low
  // watermark by evicting page cache, so allocators are not forced into
  // their type-mixing fallback paths.
  void MaybeReclaimToWatermark(unsigned core);
  Result<FrameId> ZoneAlloc(Zone& zone, unsigned order, AllocType type,
                            unsigned core);
  void ZoneFree(Zone& zone, FrameId frame, unsigned order, unsigned core,
                AllocType type);

  sim::Simulation* sim_;
  hv::HostMemory* host_;
  GuestConfig config_;
  hv::CostModel costs_;
  uint64_t total_frames_;
  hv::Ept ept_;
  std::unique_ptr<hv::Iommu> iommu_;
  hv::InterferenceSink* sink_;
  std::vector<Zone> zones_;

  uint64_t approx_free_frames_ = 0;  // cheap watermark estimate
  uint64_t watermark_resync_countdown_ = 0;
  std::deque<FrameId> cache_frames_;  // page-cache LRU (order-0 frames)
  std::vector<bool> in_cache_;        // membership (deque entries go stale
                                      // when frames migrate)
  uint64_t cache_count_ = 0;
  // order+1 at allocation heads; bit 7 set for unmovable allocations.
  std::vector<uint8_t> alloc_order_;
  std::vector<MigrationListener*> migration_listeners_;
  std::function<bool()> oom_notifier_;
  bool in_oom_notifier_ = false;
  hv::AuxState* aux_ = nullptr;
  fault::Injector* fault_ = nullptr;
  std::function<void(HugeId)> aux_install_;
  std::function<bool(uint64_t)> host_pressure_;
  std::function<uint64_t(FrameId, uint64_t)> fault_surcharge_;
  uint64_t migrated_frames_ = 0;
  uint64_t oom_events_ = 0;
  uint64_t cache_evictions_ = 0;
  uint64_t ept_faults_4k_ = 0;
  uint64_t ept_faults_2m_ = 0;
  sim::Time fault_time_ = 0;
};

}  // namespace hyperalloc::guest
