// Interactive management console (QEMU-HMP style) over a HyperAlloc VM.
//
//   ./build/examples/monitor_console            # interactive REPL
//   echo "balloon 1G\ninfo stats" | ./build/examples/monitor_console
//
// Commands: balloon <size> | info balloon | info stats | auto on|off |
// workload — `workload` runs a short burst so `info stats` has something
// to show. Time is virtual: every command drains the event queue.
#include <cstdio>
#include <iostream>
#include <string>

#include "src/core/hyperalloc.h"
#include "src/guest/guest_vm.h"
#include "src/hv/console.h"
#include "src/workloads/memory_pool.h"

using namespace hyperalloc;

int main() {
  sim::Simulation sim;
  hv::HostMemory host(FramesForBytes(16 * kGiB));
  guest::GuestConfig config;
  config.memory_bytes = 4 * kGiB;
  config.vcpus = 4;
  config.dma32_bytes = 0;
  config.allocator = guest::AllocatorKind::kLLFree;
  guest::GuestVm vm(&sim, &host, config);
  core::HyperAllocMonitor monitor(&vm, {});
  hv::Console console(&vm, &monitor);
  workloads::MemoryPool pool(&vm);

  std::printf("HyperAlloc monitor console — 4 GiB VM. Type 'help'.\n");
  std::string line;
  uint64_t burst_region = 0;
  while (std::printf("(hyperalloc) "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") {
      break;
    }
    if (line == "workload") {
      // A memory burst: allocate 2 GiB, free the previous burst.
      if (burst_region != 0) {
        pool.FreeRegion(burst_region, 0);
      }
      burst_region = pool.AllocRegion(2 * kGiB, 0.5, 0);
      std::printf("allocated a 2 GiB burst (previous burst freed)\n");
    } else if (!line.empty()) {
      std::printf("%s\n", console.Execute(line).c_str());
    }
    // Let pending virtual-time work (resize slices, the 5 s auto-reclaim
    // daemon) run between commands.
    sim.RunUntil(sim.now() + 6 * sim::kSec);
  }
  std::printf("\n");
  return 0;
}
