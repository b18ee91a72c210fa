//! # gpu-sim: a discrete-event GPU execution simulator
//!
//! This crate is the hardware substrate for the POD-Attention reproduction.
//! The paper evaluates a CUDA kernel on NVIDIA A100 GPUs; this environment
//! has no GPU, so the evaluation runs against a simulator that reproduces
//! the execution mechanics the paper's argument rests on:
//!
//! * **SMs and occupancy** — CTAs reserve shared memory, threads and
//!   registers on a streaming multiprocessor; how many fit determines wave
//!   sizes and wave quantization.
//! * **The hardware CTA scheduler** — pending CTAs of the head kernel of each
//!   stream are placed breadth-first onto SMs whenever resources free up;
//!   kernels in different streams overlap only when the earlier kernel
//!   leaves resources idle (no SM-level co-location guarantee).
//! * **Roofline contention** — resident CTAs share their SM's tensor-core
//!   throughput and the device's HBM bandwidth; compute-bound and
//!   memory-bound CTAs co-located on an SM overlap their resource usage,
//!   which is precisely the effect POD-Attention exploits.
//! * **Runtime operation binding** — a kernel's [`CtaDispatcher`] decides
//!   what work each CTA performs *after* the scheduler has placed it on a
//!   specific SM, enabling the paper's SM-aware CTA scheduling (§4.1).
//!
//! # Quick example
//!
//! ```
//! use gpu_sim::{CtaWork, Engine, Footprint, GpuConfig, KernelLaunch, OpClass};
//!
//! let gpu = GpuConfig::a100_80gb();
//! let engine = Engine::new(gpu);
//!
//! // A toy kernel: 216 CTAs, each doing 1 GFLOP of tensor work.
//! let kernel = KernelLaunch::from_ctas(
//!     "toy",
//!     Footprint::new(128, 64 * 1024),
//!     vec![CtaWork::single(OpClass::ComputeBound, 1e9, 1e4); 216],
//! );
//!
//! let report = engine.run_kernel(kernel)?;
//! println!("runtime: {:.3} ms, compute util {:.0}%",
//!          report.makespan * 1e3, report.compute_utilization() * 100.0);
//! # Ok::<(), gpu_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod engine;
mod error;
mod kernel;
mod metrics;
mod sm;
mod stream;
mod work;

pub use config::{GpuConfig, GpuConfigBuilder};
pub use engine::{Engine, MAX_CTA_BANDWIDTH_FRACTION, MAX_CTA_COMPUTE_FRACTION};
pub use error::SimError;
pub use kernel::{CtaDispatcher, KernelLaunch, ListDispatcher};
pub use metrics::{EnergyModel, ExecutionReport, KernelReport, OpClassReport};
pub use stream::Stream;
pub use work::{CtaWork, Footprint, OpClass, UnitRuns, WorkUnit};
