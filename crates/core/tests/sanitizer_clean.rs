//! Every shipped kernel must run with the runtime sanitizer armed and
//! produce **zero race trips** — the dynamic face of the static `wse-lint`
//! race pass. `lint_clean.rs` proves the static passes are silent on real
//! programs; this file proves the runtime shadow state agrees, and that
//! arming the sanitizer never perturbs simulated timing (observation-only).

use stencil::decomp::Block2D;
use stencil::dia::DiaMatrix;
use stencil::mesh::Mesh3D;
use stencil::precond::jacobi_scale;
use stencil::problem::manufactured;
use stencil::stencil9::convection_diffusion9;
use wse_arch::Fabric;
use wse_core::allreduce::{Payload, Reduction};
use wse_core::bicgstab2d::WaferBicgstab2d;
use wse_core::cg::{CgVariant, WaferCg};
use wse_core::{WaferBicgstab, WaferBicgstabMulti};
use wse_dsl::{lower, StencilSpec};
use wse_float::F16;
use wse_multi::{HostLink, MultiFabric};

fn assert_no_trips(fabric: &mut Fabric, what: &str) {
    let rep = fabric.take_sanitizer().expect("sanitizer was armed");
    assert!(
        rep.is_clean(),
        "{what}: expected zero sanitizer trips, got {}:\n{rep}",
        rep.total_trips()
    );
}

fn system3d(w: usize, h: usize, z: usize) -> DiaMatrix<F16> {
    let mesh = Mesh3D::new(w, h, z);
    manufactured(mesh, (1.0, -0.5, 0.5), 11).preconditioned().matrix.convert()
}

fn system2d(w: usize, h: usize, block: Block2D) -> DiaMatrix<F16> {
    let mesh = block.covered_mesh(w, h);
    let a = convection_diffusion9(mesh, (1.5, -0.5));
    let exact: Vec<f64> = (0..mesh.len()).map(|i| ((i % 9) as f64) * 0.125 - 0.5).collect();
    let mut b = vec![0.0; mesh.len()];
    a.matvec_f64(&exact, &mut b);
    jacobi_scale(&a, &b).matrix.convert()
}

#[test]
fn spmv3d_runs_clean_and_cycle_identical_under_sanitizer() {
    let a = system3d(3, 3, 8).convert();
    let n = a.mesh().len();
    let v: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) * 0.25 - 0.75).collect();
    let spec = StencilSpec::var_seven_point_3d();

    // Disarmed baseline.
    let mut plain = Fabric::new(3, 3);
    let kp = lower(&mut plain, &spec, &a, None).unwrap();
    let (up, cycles_plain) = kp.apply(&mut plain, &v);

    // Armed run: identical cycles, identical result, zero trips.
    let mut fabric = Fabric::new(3, 3);
    let k = lower(&mut fabric, &spec, &a, None).unwrap();
    fabric.arm_sanitizer();
    let (u, cycles) = k.apply(&mut fabric, &v);
    assert_eq!(cycles, cycles_plain, "sanitizer changed simulated time");
    assert_eq!(u, up, "sanitizer changed the computation");
    assert_no_trips(&mut fabric, "spmv3d 3x3");
}

#[test]
fn spmv2d_runs_clean_under_sanitizer() {
    let block = Block2D::new(4, 4);
    let a = system2d(3, 3, block).convert();
    let n = a.mesh().len();
    let v: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) * 0.5 - 1.0).collect();
    let mut fabric = Fabric::new(3, 3);
    let k = lower(&mut fabric, &StencilSpec::var_nine_point_2d(), &a, Some(block)).unwrap();
    fabric.arm_sanitizer();
    let _ = k.apply(&mut fabric, &v);
    assert_no_trips(&mut fabric, "spmv2d 3x3");
}

#[test]
fn allreduce_runs_clean_under_sanitizer() {
    let mut fabric = Fabric::new(4, 4);
    let k = Reduction::build(&mut fabric, 4, 4, Payload::Scalar { r_in: 24, r_out: 25, r_acc: 26 });
    fabric.arm_sanitizer();
    let values: Vec<f32> = (0..16).map(|i| i as f32 * 0.5 - 3.0).collect();
    let (sums, _) = k.run(&mut fabric, &values);
    let expect: f32 = values.iter().sum();
    assert!(sums.iter().all(|&s| (s - expect).abs() < 1e-3));
    assert_no_trips(&mut fabric, "allreduce 4x4");
}

#[test]
fn bicgstab_iterates_clean_under_sanitizer() {
    let a = system3d(3, 3, 6);
    let n = a.mesh().len();
    let b: Vec<F16> = (0..n).map(|i| F16::from_f64(((i % 3) as f64) * 0.25)).collect();
    for fused in [false, true] {
        let name = if fused { "bicgstab fused" } else { "bicgstab" };
        let run = |armed: bool| {
            let mut fabric = Fabric::new(3, 3);
            let k = if fused {
                WaferBicgstab::build_fused(&mut fabric, &a)
            } else {
                WaferBicgstab::build(&mut fabric, &a)
            };
            if armed {
                fabric.arm_sanitizer();
            }
            k.load_rhs(&mut fabric, &b);
            let cycles = [k.iterate(&mut fabric), k.iterate(&mut fabric)];
            let bits: Vec<u16> = k.read_x(&fabric).iter().map(|v| v.to_bits()).collect();
            (fabric, cycles, bits)
        };
        let (_, plain, plain_bits) = run(false);
        let (mut fabric, armed, armed_bits) = run(true);
        assert_eq!(armed, plain, "{name}: sanitizer changed simulated time");
        assert_eq!(armed_bits, plain_bits, "{name}: sanitizer changed the iterate");
        assert_no_trips(&mut fabric, name);
    }
}

#[test]
fn cg_iterates_clean_under_sanitizer() {
    let a = system3d(3, 3, 6);
    let n = a.mesh().len();
    let b: Vec<F16> = (0..n).map(|i| F16::from_f64(((i % 4) as f64) * 0.125)).collect();
    for variant in [CgVariant::Standard, CgVariant::SingleReduction] {
        let mut fabric = Fabric::new(3, 3);
        let k = WaferCg::build(&mut fabric, &a, variant);
        fabric.arm_sanitizer();
        k.load_rhs(&mut fabric, &b);
        let _ = k.iterate(&mut fabric);
        let _ = k.iterate(&mut fabric);
        assert_no_trips(&mut fabric, &format!("cg {variant:?}"));
    }
}

#[test]
fn bicgstab2d_iterates_clean_under_sanitizer() {
    let block = Block2D::new(3, 3);
    let a = system2d(3, 3, block);
    let n = a.mesh().len();
    let b: Vec<F16> = (0..n).map(|i| F16::from_f64(((i % 3) as f64) * 0.25)).collect();
    let mut fabric = Fabric::new(3, 3);
    let k = WaferBicgstab2d::build(&mut fabric, &a, block);
    fabric.arm_sanitizer();
    k.load_rhs(&mut fabric, &b);
    for _ in 0..2 {
        let _ = k.iterate(&mut fabric);
    }
    assert_no_trips(&mut fabric, "bicgstab2d 3x3");
}

#[test]
fn ensemble_drivers_iterate_clean_and_cycle_identical_under_sanitizer() {
    // Both ensemble drivers on two linked wafers, and the `multiwafer-k2`
    // benchmark's own configuration (two 4×4×64 slabs over the
    // paper-default link, fused): the fused tile's `q`/`t` storage aliasing
    // and the seam folds racing the SpMV threads are exactly what the
    // shadow state guards.
    type Build = fn(&mut MultiFabric, &DiaMatrix<F16>) -> WaferBicgstabMulti;
    let cases: [(&str, Build, (usize, usize, usize)); 3] = [
        ("build", WaferBicgstabMulti::build, (6, 4, 6)),
        ("build_fused", WaferBicgstabMulti::build_fused, (6, 4, 6)),
        ("build_fused", WaferBicgstabMulti::build_fused, (8, 4, 64)),
    ];
    for (name, build, (w, h, z)) in cases {
        let a = system3d(w, h, z);
        let n = a.mesh().len();
        let b: Vec<F16> = (0..n).map(|i| F16::from_f64(((i % 3) as f64) * 0.25)).collect();
        let run = |armed: bool| {
            let mut multi = MultiFabric::new(w, h, 2, HostLink::paper_default());
            let k = build(&mut multi, &a);
            if armed {
                (0..2).for_each(|m| multi.shard_mut(m).arm_sanitizer());
            }
            k.load_rhs(&mut multi, &b);
            let cycles = [k.iterate(&mut multi), k.iterate(&mut multi)];
            (multi, cycles)
        };
        let (_, plain) = run(false);
        let (mut multi, armed) = run(true);
        assert_eq!(armed, plain, "{name} {w}x{h}x{z}: sanitizer changed simulated time");
        for m in 0..2 {
            assert_no_trips(multi.shard_mut(m), &format!("ensemble {name} {w}x{h}x{z}, wafer {m}"));
        }
    }
}
