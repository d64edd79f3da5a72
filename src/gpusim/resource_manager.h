// ResourceManager: the paper's §IV-A2 GPU resource manager.
//
// Responsibilities, exactly as the paper describes them:
//   1. Block-size table — stores common block sizes and picks the one that
//      maximizes occupancy for a given task count and per-thread register /
//      shared-memory demand.
//   2. Memory table — marks allocated device addresses so repeated
//      allocations of hot buffer shapes are served from the table instead
//      of fresh cudaMalloc calls (a free-list pool with address marking).
//   3. Register budgeting — computes the effective per-thread register
//      demand, doubling it when a kernel has unmanaged divergent branches
//      and removing the penalty when branch combining is enabled.
//
// All decisions are deterministic functions of the DeviceSpec and the
// kernel's demands, so tests can assert exact outcomes.

#ifndef FLB_GPUSIM_RESOURCE_MANAGER_H_
#define FLB_GPUSIM_RESOURCE_MANAGER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/result.h"
#include "src/gpusim/device_spec.h"

namespace flb::gpusim {

// Per-thread demands a kernel presents to the allocator.
struct KernelDemand {
  int registers_per_thread = 32;
  size_t shared_mem_per_block = 0;
  // Number of data-dependent branch regions in the kernel body. Without
  // branch management each region splits warps and doubles live registers
  // (paper: "double or even several times the number of registers").
  int divergent_branches = 0;
};

// The launch geometry the manager settles on.
struct BlockPlan {
  int block_threads = 0;      // threads per block
  int grid_blocks = 0;        // number of blocks
  int effective_registers = 0;  // per-thread registers after branch policy
  // Occupancy: resident threads per SM under all limits, as a fraction of
  // max_threads_per_sm.
  double occupancy = 0.0;
  // Which resource bound occupancy: "threads", "registers", "shared_mem".
  const char* limiting_resource = "threads";
};

// Statistics the memory table exposes (tested + reported by benches).
struct MemoryPoolStats {
  uint64_t alloc_calls = 0;     // Alloc() invocations
  uint64_t pool_hits = 0;       // served by re-marking an existing address
  uint64_t fresh_allocations = 0;  // required new device memory
  uint64_t free_calls = 0;
  size_t bytes_in_use = 0;
  size_t peak_bytes = 0;
};

class ResourceManager {
 public:
  explicit ResourceManager(const DeviceSpec& spec, bool branch_combining = true);

  // ---- Block-size table ----------------------------------------------------

  // Picks the block size (from the common-size table) and grid that cover
  // `total_threads` with maximal occupancy given the kernel's demands.
  // total_threads must be > 0.
  Result<BlockPlan> PlanLaunch(int64_t total_threads,
                               const KernelDemand& demand) const;

  // Occupancy (resident threads per SM / max threads per SM) achieved by a
  // specific block size under the register and shared-memory limits.
  double OccupancyFor(int block_threads, const KernelDemand& demand) const;

  // The common block sizes the table holds.
  const std::vector<int>& block_size_table() const { return block_sizes_; }

  // ---- Register / branch policy ---------------------------------------------

  // Registers per thread after the branch policy is applied: with branch
  // combining on, divergent regions are serialized/merged and cost no extra
  // registers; with it off, each region doubles the live-register demand
  // (capped at the architectural per-thread maximum).
  int EffectiveRegisters(const KernelDemand& demand) const;

  bool branch_combining() const { return branch_combining_; }

  // When the post-branch-policy register demand exceeds the architectural
  // per-thread maximum, the excess spills to local memory; the kernel's
  // arithmetic slows by roughly demand/max. Returns 1.0 when nothing spills.
  double RegisterSpillFactor(const KernelDemand& demand) const;

  // ---- Memory table (device allocation pool) --------------------------------

  // Opaque device address. Addresses are never reused while marked occupied.
  using DeviceAddress = uint64_t;

  // Allocates `bytes` of device memory. Looks for a free marked address of
  // the same size class first; falls back to fresh allocation. Fails with
  // ResourceExhausted if global memory would be exceeded.
  Result<DeviceAddress> Alloc(size_t bytes);
  // Marks the address free (it stays in the table for reuse).
  Status Free(DeviceAddress addr);

  const MemoryPoolStats& pool_stats() const { return pool_stats_; }

 private:
  struct Allocation {
    size_t bytes = 0;
    bool occupied = false;
  };

  DeviceSpec spec_;
  bool branch_combining_;
  std::vector<int> block_sizes_;

  std::map<DeviceAddress, Allocation> table_;
  DeviceAddress next_addr_ = 0x10000000;  // device VA space starts here
  size_t total_reserved_ = 0;             // bytes held by the table
  MemoryPoolStats pool_stats_;
};

}  // namespace flb::gpusim

#endif  // FLB_GPUSIM_RESOURCE_MANAGER_H_
