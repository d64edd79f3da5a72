#include "src/gpusim/resource_manager.h"

#include <algorithm>

#include "src/common/check.h"

namespace flb::gpusim {

ResourceManager::ResourceManager(const DeviceSpec& spec, bool branch_combining)
    : spec_(spec),
      branch_combining_(branch_combining),
      block_sizes_({64, 128, 192, 256, 384, 512, 768, 1024}) {
  // Respect the device's block-size ceiling.
  std::erase_if(block_sizes_,
                [&](int b) { return b > spec_.max_threads_per_block; });
  FLB_CHECK(!block_sizes_.empty());
}

int ResourceManager::EffectiveRegisters(const KernelDemand& demand) const {
  int regs = std::max(demand.registers_per_thread, 1);
  if (!branch_combining_ && demand.divergent_branches > 0) {
    // Each unmanaged divergent region keeps both sides' live ranges
    // resident: demand doubles per region (paper §IV-A2), capped at the
    // architectural maximum.
    for (int i = 0; i < demand.divergent_branches; ++i) {
      regs = std::min(regs * 2, spec_.max_registers_per_thread);
      if (regs == spec_.max_registers_per_thread) break;
    }
  }
  return std::min(regs, spec_.max_registers_per_thread);
}

double ResourceManager::RegisterSpillFactor(const KernelDemand& demand) const {
  // Uncapped demand under the branch policy.
  double regs = std::max(demand.registers_per_thread, 1);
  if (!branch_combining_ && demand.divergent_branches > 0) {
    for (int i = 0; i < demand.divergent_branches; ++i) regs *= 2;
  }
  return std::max(1.0, regs / spec_.max_registers_per_thread);
}

double ResourceManager::OccupancyFor(int block_threads,
                                     const KernelDemand& demand) const {
  FLB_CHECK(block_threads > 0 &&
            block_threads <= spec_.max_threads_per_block);
  const int regs = EffectiveRegisters(demand);

  // Blocks per SM under each limit.
  const int by_threads = spec_.max_threads_per_sm / block_threads;
  const int64_t block_regs = static_cast<int64_t>(regs) * block_threads;
  const int by_regs =
      static_cast<int>(spec_.registers_per_sm / std::max<int64_t>(block_regs, 1));
  const int by_smem =
      demand.shared_mem_per_block == 0
          ? by_threads
          : static_cast<int>(spec_.shared_mem_per_sm /
                             demand.shared_mem_per_block);

  const int blocks_per_sm = std::max(0, std::min({by_threads, by_regs, by_smem}));
  const double resident = static_cast<double>(blocks_per_sm) * block_threads;
  return resident / spec_.max_threads_per_sm;
}

Result<BlockPlan> ResourceManager::PlanLaunch(int64_t total_threads,
                                              const KernelDemand& demand) const {
  if (total_threads <= 0) {
    return Status::InvalidArgument("PlanLaunch: total_threads must be > 0");
  }
  BlockPlan best;
  for (int block : block_sizes_) {
    const double occ = OccupancyFor(block, demand);
    // Prefer higher occupancy; break ties toward larger blocks (fewer
    // blocks -> less scheduling overhead), but never a block larger than
    // the whole task for tiny launches.
    if (occ > best.occupancy ||
        (occ == best.occupancy && block > best.block_threads &&
         block <= total_threads)) {
      best.block_threads = block;
      best.occupancy = occ;
    }
  }
  if (best.occupancy <= 0.0) {
    return Status::ResourceExhausted(
        "kernel demand exceeds per-SM resources at every block size");
  }
  // Shrink oversized blocks for small launches (a 40-thread task should not
  // occupy a 1024-thread block).
  while (best.block_threads > total_threads &&
         best.block_threads > block_sizes_.front()) {
    auto it = std::find(block_sizes_.begin(), block_sizes_.end(),
                        best.block_threads);
    FLB_CHECK(it != block_sizes_.begin());
    best.block_threads = *(it - 1);
    best.occupancy = OccupancyFor(best.block_threads, demand);
  }
  best.grid_blocks = static_cast<int>(
      (total_threads + best.block_threads - 1) / best.block_threads);
  best.effective_registers = EffectiveRegisters(demand);

  // Report the binding constraint (diagnostics for Fig. 6 commentary).
  const int by_threads = spec_.max_threads_per_sm / best.block_threads;
  const int64_t block_regs =
      static_cast<int64_t>(best.effective_registers) * best.block_threads;
  const int by_regs = static_cast<int>(spec_.registers_per_sm /
                                       std::max<int64_t>(block_regs, 1));
  if (by_regs < by_threads) {
    best.limiting_resource = "registers";
  } else if (demand.shared_mem_per_block != 0 &&
             static_cast<int>(spec_.shared_mem_per_sm /
                              demand.shared_mem_per_block) < by_threads) {
    best.limiting_resource = "shared_mem";
  } else {
    best.limiting_resource = "threads";
  }
  return best;
}

Result<ResourceManager::DeviceAddress> ResourceManager::Alloc(size_t bytes) {
  if (bytes == 0) {
    return Status::InvalidArgument("Alloc: zero-byte device allocation");
  }
  ++pool_stats_.alloc_calls;
  // First-fit over free-marked entries of the exact size class. Exact-size
  // matching is what the paper's "marks the allocated GPU memory addresses"
  // table does for HE workloads, whose buffer shapes repeat every batch.
  for (auto& [addr, alloc] : table_) {
    if (!alloc.occupied && alloc.bytes == bytes) {
      alloc.occupied = true;
      ++pool_stats_.pool_hits;
      pool_stats_.bytes_in_use += bytes;
      return addr;
    }
  }
  if (total_reserved_ + bytes > spec_.global_mem_bytes) {
    return Status::ResourceExhausted("device global memory exhausted");
  }
  const DeviceAddress addr = next_addr_;
  next_addr_ += (bytes + 255) & ~size_t{255};  // 256-byte aligned VA bump
  table_[addr] = Allocation{bytes, true};
  total_reserved_ += bytes;
  ++pool_stats_.fresh_allocations;
  pool_stats_.bytes_in_use += bytes;
  pool_stats_.peak_bytes = std::max(pool_stats_.peak_bytes,
                                    pool_stats_.bytes_in_use);
  return addr;
}

Status ResourceManager::Free(DeviceAddress addr) {
  auto it = table_.find(addr);
  if (it == table_.end()) {
    return Status::NotFound("Free: unknown device address");
  }
  if (!it->second.occupied) {
    return Status::FailedPrecondition("Free: double free of device address");
  }
  it->second.occupied = false;
  ++pool_stats_.free_calls;
  pool_stats_.bytes_in_use -= it->second.bytes;
  return Status::OK();
}

}  // namespace flb::gpusim
