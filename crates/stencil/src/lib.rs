//! Structured-mesh stencil infrastructure for the wafer-scale BiCGStab
//! reproduction.
//!
//! The paper solves linear systems whose matrix is a 7-point (3D) or 9-point
//! (2D) stencil on a regular mesh, stored by diagonals ("we map the needed
//! portion of its nonzero diagonals to each core"). This crate provides:
//!
//! * [`scalar::Scalar`] — the numeric abstraction letting every operator and
//!   solver run in f64, f32 or software binary16, and the precision
//!   policies ([`scalar::Precision`]: fp64 / fp32 / mixed 16-32 / pure
//!   fp16) that pair a storage scalar with a dot-product scalar,
//! * [`mesh`] — 3D/2D structured meshes with the paper's `Z`-fastest layout,
//! * [`dia`] — diagonal-storage sparse matrices ([`dia::DiaMatrix`]) with
//!   precision-faithful matvec (each band product rounds in storage
//!   precision, then accumulates in storage precision, exactly like the
//!   FIFO-decoupled on-wafer SpMV),
//! * [`stencil7`] / [`stencil9`] — 7-point 3D and 9-point 2D operator
//!   builders (Poisson, convection–diffusion),
//! * [`precond`] — the diagonal (Jacobi) preconditioning that makes the main
//!   diagonal all ones so only six off-diagonals need wafer storage,
//! * [`problem`] — reproducible problem generators,
//! * [`variable`] — heterogeneous and anisotropic diffusion operators (the
//!   matrix classes MFIX's multiphase physics produces),
//! * [`decomp`] — the X,Y → fabric, Z → core-memory mapping and the 2D block
//!   mapping, with per-core SRAM footprint accounting (the paper's
//!   "10 Z words ≈ 31 KB of 48 KB" and "38×38 blocks fit" claims).

#![warn(missing_docs)]

pub mod decomp;
pub mod dia;
pub mod mesh;
pub mod precond;
pub mod problem;
pub mod scalar;
pub mod stencil7;
pub mod stencil9;
pub mod variable;

pub use dia::{DiaMatrix, Offset3};
pub use mesh::{Mesh2D, Mesh3D};
pub use scalar::{Fp32, Fp64, MixedF16, Precision, PureF16, Scalar};
