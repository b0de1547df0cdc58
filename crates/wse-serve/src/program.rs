//! Compiled program images: build-on-scratch, lint gate, and digests.
//!
//! A compiled program is a *region-sized scratch [`Fabric`]* holding the
//! fully built wafer program at origin `(0, 0)`, together with the solver
//! handle that drives it. Because all routing and task state is per-tile,
//! the image is translation-invariant: placing it is a pure
//! [`Fabric::blit_region`] of tile state, and the handle is rebased to the
//! target origin. Compilation happens entirely off the shared machine —
//! the admission lint gate runs on the scratch image, so a program that
//! fails verification never touches a fabric tenants are running on.

use crate::key::ProgramKey;
use std::fmt;
use std::time::Instant;
use stencil::dia::DiaMatrix;
use stencil::mesh::Mesh2D;
use wse_arch::{Fabric, TILE_SRAM_BYTES};
use wse_core::bicgstab2d::WaferBicgstab2d;
use wse_float::F16;

/// Why a job was refused admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The tenant's per-run job quota is exhausted.
    QuotaExceeded {
        /// Tenant name.
        tenant: String,
        /// The quota that was hit.
        quota: usize,
    },
    /// The program's tile region does not fit inside the tenant's region.
    RegionTooSmall {
        /// Requested tile extents.
        need: (usize, usize),
        /// The tenant region's tile extents.
        have: (usize, usize),
    },
    /// The conservative SRAM estimate exceeds the per-tile budget.
    SramOverBudget {
        /// Estimated bytes per tile.
        need: u32,
        /// The hardware budget.
        budget: u32,
    },
    /// The compiled program failed the static lint gate.
    LintRejected {
        /// Number of diagnostics.
        findings: usize,
        /// The first diagnostic, for the log.
        first: String,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::QuotaExceeded { tenant, quota } => {
                write!(f, "tenant {tenant}: job quota {quota} exhausted")
            }
            AdmitError::RegionTooSmall { need, have } => {
                write!(
                    f,
                    "program needs {}x{} tiles, region has {}x{}",
                    need.0, need.1, have.0, have.1
                )
            }
            AdmitError::SramOverBudget { need, budget } => {
                write!(f, "estimated {need} B/tile exceeds the {budget} B SRAM budget")
            }
            AdmitError::LintRejected { findings, first } => {
                write!(f, "lint gate: {findings} finding(s), first: {first}")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// A compiled, lint-verified, cache-resident wafer program.
pub struct CompiledProgram {
    /// The key this program was compiled from.
    pub key: ProgramKey,
    /// The region-sized scratch fabric holding the program at `(0, 0)`,
    /// quiescent and never stepped — the blit source.
    pub image: Fabric,
    /// Solver handle at origin `(0, 0)`; rebase to drive a placed copy.
    pub solver: WaferBicgstab2d,
    /// The Jacobi-scaled operator in f64 (for manufacturing right-hand
    /// sides and the recovery engine's true-residual verification).
    pub matrix_f64: DiaMatrix<f64>,
    /// The same operator in the on-wafer fp16 precision.
    pub matrix: DiaMatrix<F16>,
    /// Peak per-tile SRAM actually allocated by the builder, in bytes.
    pub sram_peak: u32,
    /// Host wall-clock microseconds spent in builder + lint for this
    /// compile. **Nondeterministic** — reported for the cold-vs-warm
    /// speedup measurement only, never in deterministic output.
    pub build_host_us: f64,
}

impl CompiledProgram {
    /// Compiles `key` on a scratch fabric and runs the admission lint
    /// gate. `Err` means the program must not be placed; `Ok` images are
    /// verified route-contained by construction (the scratch fabric is
    /// exactly the region, so any escaping route would have surfaced as
    /// `route-off-fabric`).
    pub fn compile(key: &ProgramKey) -> Result<CompiledProgram, AdmitError> {
        let est = key.sram_estimate();
        if est > TILE_SRAM_BYTES {
            return Err(AdmitError::SramOverBudget { need: est, budget: TILE_SRAM_BYTES });
        }
        let t0 = Instant::now();
        let (w, h) = key.region_tiles();
        let mesh = Mesh2D::new(key.mesh.0, key.mesh.1);
        let a64 = key.stencil.matrix(mesh);
        // Scale once with a zero rhs: per-job right-hand sides are
        // manufactured directly in the scaled system, so the diagonal is
        // not needed again.
        let scaled = stencil::precond::jacobi_scale(&a64, &vec![0.0; mesh.len()]);
        let matrix_f64 = scaled.matrix;
        let matrix: DiaMatrix<F16> = matrix_f64.convert();

        let mut image = Fabric::new(w, h);
        let block = stencil::decomp::Block2D::new(key.block.0, key.block.1);
        let solver = WaferBicgstab2d::build(&mut image, &matrix, block);

        // The admission lint gate — unconditional (debug_lint inside the
        // builder is compiled out of release builds; the service gate is
        // not optional).
        let diags = wse_lint::lint(&image);
        let build_host_us = t0.elapsed().as_secs_f64() * 1e6;
        if !diags.is_empty() {
            return Err(AdmitError::LintRejected {
                findings: diags.len(),
                first: diags[0].to_string(),
            });
        }

        let tiles = (0..h).flat_map(|y| (0..w).map(move |x| (x, y)));
        let sram_peak = tiles.map(|(x, y)| image.tile(x, y).mem.used()).max().unwrap_or(0);
        Ok(CompiledProgram {
            key: *key,
            image,
            solver,
            matrix_f64,
            matrix,
            sram_peak,
            build_host_us,
        })
    }

    /// FNV-1a digest of the image's full per-tile program state
    /// ([`program_digest`] of [`CompiledProgram::image`]). Computed on
    /// each call: nothing on the compile or placement path reads it.
    pub fn digest(&self) -> u64 {
        program_digest(&self.image)
    }
}

/// FNV-1a digest of every tile's complete program state: allocated SRAM
/// contents, the textual core program dump (tasks, DSRs, FIFOs, bindings),
/// the routing table, and the scalar register file. Two fabrics with equal
/// digests hold byte-identical programs tile for tile — this is what the
/// program-build determinism test pins down, and what makes cache keying
/// by [`ProgramKey`] sound.
pub fn program_digest(fabric: &Fabric) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    eat(&(fabric.width() as u64).to_le_bytes());
    eat(&(fabric.height() as u64).to_le_bytes());
    for y in 0..fabric.height() {
        for x in 0..fabric.width() {
            let tile = fabric.tile(x, y);
            let used = tile.mem.used() as usize;
            eat(&tile.mem.as_bytes()[..used]);
            eat(tile.core.dump_program().as_bytes());
            for r in &tile.core.regs {
                eat(&r.to_bits().to_le_bytes());
            }
            for (port, color, outs) in tile.router.routes() {
                eat(&[port.index() as u8, color]);
                for o in outs {
                    eat(&[o.index() as u8]);
                }
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::StencilKind;
    use wse_arch::Region;

    fn small_key() -> ProgramKey {
        ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::convection(1.5, -0.5))
    }

    #[test]
    fn compile_produces_a_clean_resident_image() {
        let p = CompiledProgram::compile(&small_key()).unwrap();
        assert_eq!(p.image.width(), 2);
        assert_eq!(p.image.height(), 2);
        assert!(p.image.is_quiescent());
        assert!(p.sram_peak > 0);
        assert!(p.sram_peak <= TILE_SRAM_BYTES);
        assert!(p.build_host_us > 0.0);
    }

    #[test]
    fn oversized_blocks_are_refused_before_building() {
        // A 48x48 block wants ~14*48*48*2 B ≈ 64 KB of fp16 arrays: over
        // the 48 KB budget; admission must refuse without panicking.
        let key = ProgramKey::bicgstab2d((96, 96), (48, 48), StencilKind::Laplace9);
        match CompiledProgram::compile(&key) {
            Err(AdmitError::SramOverBudget { need, budget }) => {
                assert!(need > budget);
            }
            other => panic!("expected SramOverBudget, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn estimates_past_u32_are_refused_not_wrapped() {
        // 11585² fp16 blocks need ≈ 4.3 GB per tile; a u32-wrapped estimate
        // came to a few KB and let this 536-million-point key through to
        // matrix assembly.
        let key = ProgramKey::bicgstab2d((23170, 23170), (11585, 11585), StencilKind::Laplace9);
        match CompiledProgram::compile(&key) {
            Err(err) => assert_eq!(
                err,
                AdmitError::SramOverBudget { need: u32::MAX, budget: TILE_SRAM_BYTES }
            ),
            Ok(_) => panic!("a 4.3 GB-per-tile program was compiled"),
        }
    }

    #[test]
    fn digest_is_sensitive_to_program_state() {
        let p = CompiledProgram::compile(&small_key()).unwrap();
        let mut copy = p.image.extract_region(Region::new(0, 0, 2, 2));
        assert_eq!(program_digest(&copy), p.digest());
        // Flip one bit of one tile's SRAM: the digest must move.
        copy.tile_mut(1, 1).mem.flip_bit(0, 0);
        assert_ne!(program_digest(&copy), p.digest());
    }
}
