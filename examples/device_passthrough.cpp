// DMA safety with device passthrough (paper §2/§3.2).
//
// A VM with a VFIO passthrough NIC reclaims memory three ways:
//  1. HyperAlloc — install-on-allocate pins frames in the IOMMU *before*
//     the guest allocator returns them: DMA to any allocated frame is
//     always safe.
//  2. A balloon-style "reclaim without install" — shows how a
//     fault-based technique breaks: the guest re-allocates a reclaimed
//     frame without any hypervisor interaction and points the device at
//     an unbacked IOMMU entry. The DMA fails.
//  3. virtio-mem — safe through pre-population, at the cost of keeping
//     every plugged block resident.
#include <cstdio>

#include "src/base/units.h"
#include "src/core/hyperalloc.h"
#include "src/guest/guest_vm.h"
#include "src/vmem/virtio_mem.h"

using namespace hyperalloc;

namespace {

guest::GuestConfig VfioGuest(guest::AllocatorKind allocator,
                             uint64_t movable) {
  guest::GuestConfig config;
  config.memory_bytes = 2 * kGiB;
  config.vcpus = 4;
  config.dma32_bytes = 0;
  config.movable_bytes = movable;
  config.allocator = allocator;
  config.vfio = true;
  return config;
}

void HyperAllocCase() {
  std::printf("--- HyperAlloc: DMA-safe by install-on-allocate ---\n");
  sim::Simulation sim;
  hv::HostMemory host(FramesForBytes(8 * kGiB));
  guest::GuestVm vm(&sim, &host, VfioGuest(guest::AllocatorKind::kLLFree, 0));
  core::HyperAllocMonitor monitor(&vm, {});

  // The guest allocates a DMA buffer; the install hypercall pinned it.
  const Result<FrameId> buffer = vm.Alloc(kHugeOrder, AllocType::kHuge);
  std::printf("NIC DMA into freshly allocated buffer: %s\n",
              vm.DmaWrite(*buffer, kFramesPerHuge) ? "OK" : "FAILED");

  // Free + auto-reclaim: the monitor unpins the frame again.
  vm.Free(*buffer, kHugeOrder);
  vm.PurgeAllocatorCaches();
  monitor.AutoReclaimPass();
  std::printf("NIC DMA into reclaimed (free) frame:    %s  "
              "(a conforming guest never does this)\n",
              vm.DmaWrite(*buffer, kFramesPerHuge) ? "OK" : "FAILED");

  // Re-allocation re-installs and re-pins before returning.
  const Result<FrameId> again = vm.Alloc(kHugeOrder, AllocType::kHuge);
  std::printf("NIC DMA after re-allocation:            %s\n\n",
              vm.DmaWrite(*again, kFramesPerHuge) ? "OK" : "FAILED");
}

void FaultBasedCase() {
  std::printf("--- Fault-based reclamation (balloon-style): NOT DMA-safe "
              "---\n");
  sim::Simulation sim;
  hv::HostMemory host(FramesForBytes(8 * kGiB));
  guest::GuestVm vm(&sim, &host, VfioGuest(guest::AllocatorKind::kBuddy, 0));

  // Boot-time VFIO behaviour: pin everything (as QEMU does)...
  HA_CHECK(vm.ept().Map(0, vm.total_frames()) != hv::Ept::kNoHostMemory);
  for (HugeId h = 0; h < HugesForFrames(vm.total_frames()); ++h) {
    vm.iommu()->Pin(h);
  }
  const Result<FrameId> buffer = vm.Alloc(kHugeOrder, AllocType::kHuge);
  std::printf("NIC DMA before reclamation:             %s\n",
              vm.DmaWrite(*buffer, kFramesPerHuge) ? "OK" : "FAILED");
  vm.Free(*buffer, kHugeOrder);

  // Free-page reporting discards the frame: EPT + IOMMU entry dropped,
  // but the guest allocator still considers the frame usable.
  vm.ept().Unmap(*buffer, kFramesPerHuge);
  vm.iommu()->Unpin(FrameToHuge(*buffer));

  // The guest re-allocates it (no hypervisor interaction!) and programs
  // the NIC to receive into it. Most devices cannot take IO page faults:
  const Result<FrameId> again = vm.Alloc(kHugeOrder, AllocType::kHuge);
  std::printf("NIC DMA into re-allocated frame %llu:     %s  <- the "
              "reason virtio-balloon forbids passthrough\n\n",
              static_cast<unsigned long long>(*again),
              vm.DmaWrite(*again, kFramesPerHuge) ? "OK" : "FAILED");
}

void VirtioMemCase() {
  std::printf("--- virtio-mem: DMA-safe by pre-population ---\n");
  sim::Simulation sim;
  hv::HostMemory host(FramesForBytes(8 * kGiB));
  guest::GuestVm vm(&sim, &host,
                    VfioGuest(guest::AllocatorKind::kBuddy, kGiB));
  vmem::VirtioMem vmem_dev(&vm);
  std::printf("boot RSS (everything pre-populated + pinned): %s\n",
              FormatBytes(vm.rss_bytes()).c_str());
  const Result<FrameId> buffer = vm.Alloc(kHugeOrder, AllocType::kHuge);
  std::printf("NIC DMA into allocated buffer:          %s\n",
              vm.DmaWrite(*buffer, kFramesPerHuge) ? "OK" : "FAILED");

  bool done = false;
  vmem_dev.Request({.target_bytes = vm.config().memory_bytes - 512 * kMiB,
                    .done = [&] { done = true; }});
  while (!done) {
    sim.Step();
  }
  std::printf("after unplugging 512 MiB: RSS %s (unplugged memory is "
              "gone for the guest too)\n",
              FormatBytes(vm.rss_bytes()).c_str());
}

}  // namespace

int main() {
  HyperAllocCase();
  FaultBasedCase();
  VirtioMemCase();
  return 0;
}
