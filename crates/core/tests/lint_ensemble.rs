//! Whole-ensemble verification across wafer seams: every shipped
//! multi-wafer build must lint clean **with seam channels in the model**
//! (the per-shard `debug_lint` the builders already run cannot see cross-
//! wafer producers), and seam-specific breakage — a route cycle threaded
//! through seam channels, a seam whose ingress can't forward — must be
//! caught statically and reproduce dynamically.

use stencil::dia::DiaMatrix;
use stencil::mesh::Mesh3D;
use stencil::precond::jacobi_scale;
use stencil::stencil7::poisson;
use wse_arch::dsr::mk;
use wse_arch::fabric::STALL_WINDOW;
use wse_arch::instr::{Op, Stmt, Task, TensorInstr};
use wse_arch::types::{Dtype, Port};
use wse_core::multi::{build_transparent, WaferBicgstabMulti};
use wse_float::F16;
use wse_lint::Rule;
use wse_multi::{HostLink, MultiFabric};

fn test_system(nx: usize, ny: usize, nz: usize) -> DiaMatrix<F16> {
    let mesh = Mesh3D::new(nx, ny, nz);
    let a64 = poisson(mesh);
    let b64: Vec<f64> = (0..mesh.len()).map(|i| ((i * 29 % 101) as f64 / 101.0) - 0.4).collect();
    jacobi_scale(&a64, &b64).matrix.convert()
}

fn assert_ensemble_clean(multi: &MultiFabric, what: &str) {
    let diags = multi.lint();
    assert!(
        diags.is_empty(),
        "{what}: expected a clean ensemble lint, got {} diagnostic(s):\n{}",
        diags.len(),
        diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
    );
}

#[test]
fn transparent_splits_lint_clean_across_seams() {
    // The fused single-wafer program split at every k: all the routes that
    // crossed a cut are now seam channels the whole-ensemble passes must
    // follow to find each receive's producer.
    let a = test_system(8, 4, 6);
    for k in [2usize, 3, 4] {
        let (_, multi) = build_transparent(&a, k, HostLink::ideal());
        assert_ensemble_clean(&multi, &format!("transparent split k={k}"));
    }
}

#[test]
fn hierarchical_builds_lint_clean_across_seams() {
    // The distributed solver's own seam channels (halo colors through
    // declared edge ports) at k=2 and the acceptance-floor k=4, under both
    // builders (the classic recurrence and the fused single-reduction one),
    // plus the `multiwafer-k2` benchmark's own configuration: two 4×4×64
    // slabs over the paper-default link, fused.
    type Build = fn(&mut MultiFabric, &DiaMatrix<F16>) -> WaferBicgstabMulti;
    let (build, fused): (Build, Build) =
        (WaferBicgstabMulti::build, WaferBicgstabMulti::build_fused);
    // (builder, z, k) over an 8×4 global grid.
    let cases = [
        ("build", build, 6, 2),
        ("build", build, 6, 4),
        ("build_fused", fused, 6, 2),
        ("build_fused", fused, 6, 4),
        ("build_fused", fused, 64, 2),
    ];
    for (name, build, z, k) in cases {
        let a = test_system(8, 4, z);
        let mut multi = MultiFabric::new(8, 4, k, HostLink::paper_default());
        let _solver = build(&mut multi, &a);
        assert_eq!(multi.seam_edges().len(), (k - 1) * 4 * 2, "2 colors x 1 dir per row");
        assert_ensemble_clean(&multi, &format!("hierarchical {name} z={z} k={k}"));
    }
}

/// Color 5 circulating through both wafers: across the seam eastward on
/// row 1, up the far column, back across the seam westward on row 0, and
/// down the near column. Each shard's route table is acyclic on its own
/// (the router even forbids same-port reflection); only the ensemble
/// graph with seam edges closes the loop.
fn seam_cycle_ensemble() -> MultiFabric {
    let mut multi = MultiFabric::new(2, 2, 2, HostLink::ideal());
    {
        let s = multi.shard_mut(0);
        s.open_edge(0, 1, Port::East, 5);
        s.open_edge(0, 0, Port::East, 5);
        s.set_route(0, 0, Port::East, 5, &[Port::South]);
        s.set_route(0, 1, Port::North, 5, &[Port::East]);
    }
    {
        let s = multi.shard_mut(1);
        s.open_edge(0, 1, Port::West, 5);
        s.open_edge(0, 0, Port::West, 5);
        s.set_route(0, 1, Port::West, 5, &[Port::North]);
        s.set_route(0, 0, Port::South, 5, &[Port::West]);
    }
    multi.pair_seams();
    multi
}

#[test]
fn seam_route_cycle_is_caught() {
    let multi = seam_cycle_ensemble();
    let diags = multi.lint();
    assert!(
        diags.iter().any(|d| d.rule == Rule::RouteCycle
            && d.message.contains("seam channels")
            && d.message.contains("wafer 0")
            && d.message.contains("wafer 1")),
        "seam-crossing route cycle must be reported with both wafers: {diags:#?}"
    );
}

/// Wafer 0 streams 64 words of color 7 across the seam; wafer 1 declared
/// the matching edge ingress but configured no forwarding rule for
/// (West, 7). The ingress queue fills, seam credits stop returning, and
/// the sender wedges.
fn seam_credit_starved_ensemble() -> MultiFabric {
    const N: u32 = 64;
    let mut multi = MultiFabric::new(2, 1, 2, HostLink::ideal());
    {
        let s = multi.shard_mut(0);
        s.open_edge(0, 0, Port::East, 7);
        s.set_route(0, 0, Port::Ramp, 7, &[Port::East]);
        let t = s.tile_mut(0, 0);
        let buf = t.mem.alloc_vec(N, Dtype::F16).unwrap();
        let d_src = t.core.add_dsr(mk::tensor16(buf, N));
        let d_tx = t.core.add_dsr(mk::tx16(7, N));
        let task = t.core.add_task(Task::new(
            "feeder",
            vec![Stmt::Exec(TensorInstr {
                op: Op::Copy,
                dst: Some(d_tx),
                a: Some(d_src),
                b: None,
            })],
        ));
        t.core.mark_entry(task);
        t.core.activate(task);
    }
    multi.shard_mut(1).open_edge(0, 0, Port::West, 7);
    multi.pair_seams();
    multi
}

#[test]
fn seam_credit_starvation_is_caught_with_witness() {
    let multi = seam_credit_starved_ensemble();
    let diags = multi.lint();
    let starved: Vec<_> = diags.iter().filter(|d| d.rule == Rule::CreditStarvation).collect();
    assert_eq!(starved.len(), 1, "exactly the fed seam fires: {diags:#?}");
    let d = starved[0];
    // The witness names the color, both seam endpoints, and the missing
    // ingress rule.
    assert!(d.message.contains("color 7"), "{}", d.message);
    assert!(d.message.contains("wafer 0"), "{}", d.message);
    assert!(d.message.contains("wafer 1"), "{}", d.message);
    assert!(d.message.contains("no rule"), "{}", d.message);
}

#[test]
fn seam_credit_starvation_wedges_dynamically() {
    let mut multi = seam_credit_starved_ensemble();
    let err = multi
        .run_linked(20_000, STALL_WINDOW)
        .expect_err("the sending wafer must wedge on seam backpressure");
    assert!(!err.deadline_exceeded, "a zero-progress stall, not a slow run: {err:?}");
}
