//! # wafer-stencil
//!
//! A full reproduction of *Fast Stencil-Code Computation on a Wafer-Scale
//! Processor* (Rocki et al., SC'20) as a Rust workspace: the Cerebras CS-1
//! tile architecture as a cycle-stepped simulator, the paper's BiCGStab
//! stencil solver mapped onto it (Listing 1's SpMV dataflow, the Fig. 5
//! routing tessellation, the Fig. 6 AllReduce), host-side reference solvers
//! generic over fp64/fp32/mixed-fp16 precision, an MFIX-like SIMPLE CFD
//! substrate, and analytic performance models that regenerate every table
//! and figure of the paper's evaluation.
//!
//! This meta-crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`float`] | `wse-float` | software IEEE binary16, SIMD-4, mixed FMAC |
//! | [`arch`] | `wse-arch` | the tile/fabric simulator |
//! | [`kernels`] | `wse-core` | on-wafer SpMV, AllReduce, BiCGStab |
//! | [`stencil_`] | `stencil` | meshes, DIA matrices, decomposition |
//! | [`solver_`] | `solver` | the wafer's BiCGStab/CG tables run on the host + precision studies |
//! | [`cfd_`] | `cfd` | SIMPLE lid-driven-cavity substrate |
//! | [`perf`] | `perf-model` | CS-1/cluster performance models |
//!
//! ## Quickstart
//!
//! ```
//! use wafer_stencil::prelude::*;
//!
//! // A diagonally preconditioned 7-point system on a small mesh…
//! let problem = manufactured(Mesh3D::new(4, 4, 16), (1.0, 0.0, 0.0), 42).preconditioned();
//! let a16: DiaMatrix<F16> = problem.matrix.convert();
//! let b16: Vec<F16> = problem.rhs.iter().map(|&v| F16::from_f64(v)).collect();
//!
//! // …solved by BiCGStab running on a simulated 4×4 corner of the wafer.
//! let mut fabric = Fabric::new(4, 4);
//! let solver = WaferBicgstab::build(&mut fabric, &a16);
//! let (_x, stats) = solver.solve(&mut fabric, &b16, 8);
//! assert!(stats.residuals.last().unwrap() < &0.1);
//! ```

#![warn(missing_docs)]

pub mod wafer_cfd;

pub use cfd as cfd_;
pub use perf_model as perf;
pub use solver as solver_;
pub use stencil as stencil_;
pub use wse_arch as arch;
pub use wse_core as kernels;
pub use wse_float as float;

/// The most commonly used items, for examples and quick starts.
pub mod prelude {
    pub use cfd::cavity::Cavity;
    pub use perf_model::cluster::JouleModel;
    pub use perf_model::cs1::Cs1Model;
    pub use solver::policy::{Fp32, Fp64, MixedF16, PureF16};
    pub use solver::{bicgstab, SolveOptions};
    pub use stencil::decomp::{Block2D, Mapping3D};
    pub use stencil::mesh::{Mesh2D, Mesh3D};
    pub use stencil::problem::manufactured;
    pub use stencil::DiaMatrix;
    pub use wse_arch::Fabric;
    pub use wse_core::{Krylov, WaferBicgstab};
    pub use wse_dsl::{lower, Lowered, StencilSpec};
    pub use wse_float::F16;
}
