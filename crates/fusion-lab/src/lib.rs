//! # fusion-lab: the concurrent-execution case study
//!
//! §3 of the POD-Attention paper analyses the ways two heterogeneous
//! operations can be executed concurrently on a GPU — CUDA streams,
//! CTA-parallel fusion, warp-parallel fusion (HFuse), intra-thread fusion —
//! and shows why none of them is sufficient for fusing prefill and decode
//! attention, motivating SM-aware CTA scheduling. This crate reproduces that
//! case study:
//!
//! * [`ComputeKernel`] / [`MemoryKernel`] — the synthetic micro-benchmark
//!   kernels of Figure 7 (scalar multiply loop vs. three-array add loop).
//! * [`FusionStrategy`] / [`FusionExecutor`] — the execution methods of
//!   Table 2, runnable on any pair of [`Operation`]s.
//! * [`HybridAttentionRunner`] — the same comparison applied to real hybrid
//!   attention batches (FA_Serial, FA_Streams, FA_HFuse, FI_Serial,
//!   FI_Batched, POD), used by the Figure 1, 6 and 11 harnesses.
//!
//! # Example: the Figure 7 sweep at one point
//!
//! ```
//! use fusion_lab::{ComputeKernel, FusionExecutor, FusionStrategy, MemoryKernel, Operation};
//! use gpu_sim::GpuConfig;
//!
//! let gpu = GpuConfig::a100_80gb();
//! let compute = ComputeKernel::one_wave(100, &gpu);
//! let memory = MemoryKernel::one_wave(24, &gpu);
//! let exec = FusionExecutor::new(gpu);
//! let a = Operation::new("compute", compute.footprint(), compute.ctas());
//! let b = Operation::new("memory", memory.footprint(), memory.ctas());
//!
//! let serial = exec.runtime(&a, &b, FusionStrategy::Serial)?;
//! let sm_aware = exec.runtime(&a, &b, FusionStrategy::SmAwareCta)?;
//! assert!(sm_aware < serial);
//! # Ok::<(), gpu_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hybrid;
mod kernels;
mod strategies;

pub use hybrid::HybridAttentionRunner;
pub use kernels::{
    ComputeKernel, MemoryKernel, ELEMENTS_PER_CTA, ELEMENT_BYTES, MEMORY_KERNEL_PASSES,
};
pub use strategies::{fuse_operations_warp_parallel, FusionExecutor, FusionStrategy, Operation};
