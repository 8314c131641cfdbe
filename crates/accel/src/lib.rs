//! # kelp-accel
//!
//! Accelerator platform models for the Kelp reproduction. The paper studies
//! three platforms (Table I):
//!
//! * **TPU** — the first-generation inference TPU (92 TOPS, PCIe card),
//!   running the RNN1 NLP inference server.
//! * **Cloud TPU** — the second-generation training/inference device
//!   (180 TFLOPS, 64 GB HBM), running CNN1/CNN2 training. This is the
//!   platform that is unusually sensitive to cross-socket traffic
//!   (Figures 15/16), which we encode as a large coherence tax.
//! * **GPU** — a training GPU running CNN3 with a parameter-server setup.
//!
//! The paper's measurements show accelerator *compute* time is insensitive
//! to host contention (Figure 3: only the CPU phases stretch), so devices
//! are modelled as fixed-rate compute engines plus PCIe DMA traffic into
//! host memory — the part that does interact with the memory system.

// Library code reports failure as a value and writes no output; a
// deliberate exception is a reasoned `#[expect]` (DESIGN.md §6b).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod device;
pub mod platform;

pub use device::{AcceleratorDevice, AcceleratorSpec, PcieLink};
pub use platform::{Platform, PlatformTuning};
