//! Cross-crate property tests: the wafer kernels agree with host reference
//! computations on randomized inputs and geometries.

use proptest::prelude::*;
use wafer_stencil::kernels::allreduce::{Payload, Reduction};
use wafer_stencil::prelude::*;
use wafer_stencil::stencil_::dia::Offset3;
use wse_dsl::tess::verify_tessellation;

/// Random unit-diagonal 7-point matrix whose arithmetic is *exact* in
/// binary16: coefficients and iterate are multiples of 1/8 with magnitude
/// ≤ 1, so every product is a multiple of 1/64 with numerator ≤ 81 and
/// every partial sum of the seven terms has numerator well under 2¹¹ —
/// no rounding anywhere, making summation order irrelevant and bit-exact
/// comparison against the host valid.
fn exact_system(mesh: Mesh3D, coef_seed: Vec<i8>, v_seed: Vec<i8>) -> (DiaMatrix<F16>, Vec<F16>) {
    let mut a = DiaMatrix::<f64>::new(mesh, &Offset3::seven_point());
    let mut ci = 0usize;
    let coef = |s: &Vec<i8>, i: &mut usize| -> f64 {
        let v = (s[*i % s.len()] % 9) as f64 / 8.0;
        *i += 1;
        v
    };
    for (x, y, z) in mesh.iter() {
        a.set(x, y, z, Offset3::CENTER, 1.0);
        for off in &Offset3::seven_point()[1..] {
            if mesh.neighbor(x, y, z, off.dx, off.dy, off.dz).is_some() {
                a.set(x, y, z, *off, coef(&coef_seed, &mut ci));
            }
        }
    }
    let mut vi = 0usize;
    let v: Vec<F16> = (0..mesh.len()).map(|_| F16::from_f64(coef(&v_seed, &mut vi))).collect();
    (a.convert(), v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Wafer SpMV is bit-exact against the host DIA matvec whenever the
    /// arithmetic is exact, for random geometries and coefficients.
    #[test]
    fn wafer_spmv_matches_host(
        w in 1usize..5,
        h in 1usize..5,
        z in 2usize..24,
        coef in prop::collection::vec(-64i8..64, 32),
        vseed in prop::collection::vec(-64i8..64, 32),
    ) {
        let mesh = Mesh3D::new(w, h, z);
        let (a, v) = exact_system(mesh, coef, vseed);
        let mut fabric = Fabric::new(w, h);
        let spmv = lower(&mut fabric, &StencilSpec::var_seven_point_3d(), &a.convert(), None)
            .unwrap();
        let v64: Vec<f64> = v.iter().map(|h| h.to_f64()).collect();
        let (wafer, _) = spmv.apply(&mut fabric, &v64);
        let mut host = vec![F16::ZERO; mesh.len()];
        a.matvec(&v, &mut host);
        for i in 0..mesh.len() {
            let got = F16::from_f64(wafer[i]).to_bits();
            prop_assert_eq!(got, host[i].to_bits(), "element {}", i);
        }
    }

    /// The fabric AllReduce computes the fp32 sum (up to association order)
    /// for random fabric sizes and values.
    #[test]
    fn allreduce_sums_correctly(
        w in 2usize..10,
        h in 2usize..10,
        vals in prop::collection::vec(-100i32..100, 100),
    ) {
        let values: Vec<f32> = (0..w * h).map(|i| vals[i % vals.len()] as f32 / 8.0).collect();
        let expect: f64 = values.iter().map(|&v| v as f64).sum();
        let mut fabric = Fabric::new(w, h);
        let ar = Reduction::build(&mut fabric, w, h, Payload::Scalar { r_in: 24, r_out: 25, r_acc: 26 });
        let (out, cycles) = ar.run(&mut fabric, &values);
        for (i, got) in out.iter().enumerate() {
            prop_assert!(
                (*got as f64 - expect).abs() <= 1e-3 * (1.0 + expect.abs()),
                "tile {}: {} vs {} ({} cycles)", i, got, expect, cycles
            );
        }
    }

    /// The tessellation holds for arbitrary region sizes.
    #[test]
    fn tessellation_always_collision_free(w in 1usize..80, h in 1usize..80) {
        prop_assert!(verify_tessellation(w, h).is_ok());
    }

    /// Jacobi preconditioning never changes the solution: residuals of the
    /// scaled system at the exact solution stay (near) zero.
    #[test]
    fn preconditioning_preserves_solutions(
        nx in 2usize..5, ny in 2usize..5, nz in 2usize..6, seed in 0u64..1000,
    ) {
        let p = manufactured(Mesh3D::new(nx, ny, nz), (1.0, -1.0, 0.5), seed);
        let exact = p.exact.clone().unwrap();
        let sp = p.preconditioned();
        let r = sp.matrix.residual_f64(&exact, &sp.rhs);
        let max = r.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
        prop_assert!(max < 1e-9, "residual {}", max);
    }
}
