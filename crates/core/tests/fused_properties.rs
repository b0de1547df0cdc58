//! Property tests for the fused single-reduction multi-wafer BiCGStab:
//! across randomized problem shapes, right-hand sides, and horizons, the
//! fused solver must (a) track the classic overlapped solver's residual
//! trajectory and (b) never return a silently wrong answer — the
//! fp16-reported residual and the f64 true residual of the returned
//! iterate must agree about how far the solve got, for both solvers.

use proptest::prelude::*;
use stencil::dia::DiaMatrix;
use stencil::mesh::Mesh3D;
use stencil::precond::jacobi_scale;
use stencil::stencil7::poisson;
use wse_core::recovery::true_rel_residual;
use wse_core::{Krylov, WaferBicgstabMulti};
use wse_float::F16;
use wse_multi::{HostLink, MultiFabric};

/// A diagonally preconditioned Poisson system with a seeded
/// (splitmix-style) right-hand side.
fn system(nx: usize, ny: usize, nz: usize, seed: u64) -> (DiaMatrix<F16>, Vec<F16>) {
    let mesh = Mesh3D::new(nx, ny, nz);
    let a64 = poisson(mesh);
    let b64: Vec<f64> = (0..mesh.len())
        .map(|i| {
            let j = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
            ((j >> 33) % 101) as f64 / 101.0 - 0.4
        })
        .collect();
    let sys = jacobi_scale(&a64, &b64);
    (sys.matrix.convert(), sys.rhs.iter().map(|&v| F16::from_f64(v)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fused_tracks_classic_and_is_never_silently_wrong(
        half in 2usize..4,
        ny in 2usize..5,
        nz in 4usize..9,
        seed in 0u64..(1u64 << 48),
        iters in 3usize..6,
    ) {
        let (nx, k) = (2 * half, 2);
        let (a, b) = system(nx, ny, nz, seed);

        let mut mc = MultiFabric::new(nx, ny, k, HostLink::paper_default());
        let sc = WaferBicgstabMulti::build(&mut mc, &a);
        let (xc, stc) = sc.solve(&mut mc, &b, iters);

        let mut mf = MultiFabric::new(nx, ny, k, HostLink::paper_default());
        let sf = WaferBicgstabMulti::build_fused(&mut mf, &a);
        let (xf, stf) = sf.solve(&mut mf, &b, iters);

        // Same algorithm with rearranged recurrences in fp16/fp32: the
        // residual trajectories agree to a modest ratio with an absolute
        // floor, at every committed iteration.
        prop_assert_eq!(stf.residuals.len(), stc.residuals.len());
        for (i, (got, want)) in stf.residuals.iter().zip(&stc.residuals).enumerate() {
            let close = (got - want).abs() < 5e-4 || (got / want < 5.0 && want / got < 5.0);
            prop_assert!(close, "iteration {}: fused {} vs classic {}", i, got, want);
        }

        // Never silently wrong: whatever residual a solver *reports*, the
        // f64 true residual of the iterate it *returns* must be consistent
        // with it (up to fp16 quantization of x and the recursive-residual
        // drift both solvers share).
        for (x, st, name) in [(&xc, &stc, "classic"), (&xf, &stf, "fused")] {
            let reported = *st.residuals.last().unwrap();
            let truth = true_rel_residual(&a, x, &b);
            prop_assert!(
                truth < 10.0 * reported + 5e-2,
                "{} solver reported {} but the true residual is {}",
                name, reported, truth
            );
        }
    }
}
