//! Serverless platform simulator.
//!
//! Models an Alibaba Function Compute-style GPU serverless backend: warm
//! function instances with per-instance concurrency 1, cold starts in the
//! tens-of-milliseconds range (§I of the paper), keep-alive expiry,
//! scale-from-zero autoscaling, NGINX-style round-robin placement, and the
//! exact Eqn. (1) billing model with the paper's unit prices.
//!
//! * [`pricing`] — `C = T_f·(n_C·P_C + m_M·P_M + m_G·P_G) + P_req`;
//! * [`function`] — function specs (2 vCPU / 4 GB / 6 GB GPU in the
//!   paper's evaluation) and the GPU-memory batch bound of constraint (5);
//! * [`platform`] — the event-driven instance pool, round-robin over idle
//!   warm instances by id (NGINX's default; the cursor lives in the private
//!   `lb` module).
//!
//! # Example
//!
//! ```
//! use tangram_infer::latency::InferenceLatencyModel;
//! use tangram_serverless::function::FunctionSpec;
//! use tangram_serverless::platform::{InvocationRequest, ServerlessPlatform};
//! use tangram_types::time::SimTime;
//!
//! let mut platform = ServerlessPlatform::new(
//!     FunctionSpec::paper_default(),
//!     InferenceLatencyModel::rtx4090_yolov8x(),
//!     42,
//! );
//! let outcome = platform
//!     .invoke(InvocationRequest { canvases: 2, megapixels: 2.1, submitted: SimTime::ZERO })
//!     .expect("2 canvases fit the GPU");
//! assert!(outcome.cold, "first invocation cold-starts");
//! assert!(outcome.cost.get() > 0.0);
//! ```

pub mod function;
mod lb;
pub mod platform;
pub mod pricing;

pub use function::FunctionSpec;
pub use platform::{
    BackendSnapshot, InvocationOutcome, InvocationRequest, PlatformError, ServerlessPlatform,
};
pub use pricing::ResourcePrices;
