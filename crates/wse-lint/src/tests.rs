//! Class sharing changes what a lint pass costs, never what it says.
//!
//! [`crate::run`] takes the function that *proposes* classes. These tests
//! drive the one lint path three ways — the real digest, a digest salted
//! by tile index (every tile its own class: no sharing at all), and a
//! constant digest (every tile collides: only structural equality keeps
//! classes apart) — and require identical diagnostics.

use crate::dataflow::Ensemble;
use crate::mutation::{mutate, trigger_pipeline, Mutation};
use crate::{classes, run, Diagnostic, LintStats, Rule};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use stencil::decomp::Block2D;
use stencil::mesh::Mesh3D;
use wse_arch::dsr::mk;
use wse_arch::fabric::{Fabric, Tile};
use wse_arch::instr::{Op, Stmt, Task, TensorInstr};
use wse_arch::types::{DsrId, Dtype, Port};

fn lint_with(
    fabric: &Fabric,
    digest: &dyn Fn(usize, &Tile) -> u64,
) -> (Vec<Diagnostic>, LintStats) {
    run(&Ensemble::single(fabric), digest)
}

/// Lints `fabric` shared, unshared and all-colliding; returns the shared
/// result after checking the other two against it.
fn lint_all_ways(fabric: &Fabric) -> Result<(Vec<Diagnostic>, LintStats), TestCaseError> {
    let shared = lint_with(fabric, &|_, t| classes::digest(t));
    let salted = lint_with(fabric, &|i, _| i as u64);
    let collided = lint_with(fabric, &|_, _| 0);
    prop_assert_eq!(&salted.0, &shared.0, "sharing classes changed the diagnostics");
    prop_assert_eq!(&collided.0, &shared.0, "a digest collision changed the diagnostics");
    prop_assert_eq!(salted.1.classes, salted.1.tiles, "a salted key shares nothing");
    prop_assert_eq!(collided.1.classes, shared.1.classes, "equality alone finds the classes");
    for stats in [&shared.1, &salted.1, &collided.1] {
        prop_assert_eq!(stats.site_resolutions, stats.classes);
        prop_assert_eq!(stats.graph_builds, stats.classes);
    }
    Ok(shared)
}

fn lowered(operator: &str, fabric: (usize, usize), mesh: Mesh3D, block: Option<Block2D>) -> Fabric {
    let spec = wse_dsl::catalog::get(operator).expect("catalog operator");
    let mut f = Fabric::new(fabric.0, fabric.1);
    wse_dsl::lower_spec(&mut f, &spec, mesh, block).expect("catalog operator must lower");
    f
}

/// Clean programs with interior, edge and corner tiles (and, in the last,
/// data triggers).
fn subject(which: usize) -> Fabric {
    let block = Some(Block2D::new(4, 4));
    match which {
        0 => lowered("star5-2d", (4, 4), Mesh3D::new(16, 16, 1), block),
        1 => lowered("star9-2d", (4, 4), Mesh3D::new(16, 16, 1), block),
        2 => lowered("star7-3d", (4, 4), Mesh3D::new(4, 4, 8), None),
        3 => lowered("star25-3d", (5, 4), Mesh3D::new(5, 4, 12), None),
        _ => trigger_pipeline(),
    }
}

/// Break one tile of a clean program: the tile leaves its class, its
/// neighbours' verdicts change with it, and none of that may depend on how
/// classes were proposed. `which` picks the subject, `at` the first tile
/// tried, `kind` and `pick` the defect.
fn one_mutated_tile(
    (which, at, kind, pick): (usize, usize, usize, u64),
) -> Result<(), TestCaseError> {
    let mut fabric = subject(which);
    let (w, n) = (fabric.width(), fabric.width() * fabric.height());
    // First tile at or after the drawn one with something to break.
    let hit = (0..n).find_map(|k| {
        let i = (at % n + k) % n;
        mutate(fabric.tile(i % w, i / w), Mutation::ALL[kind], pick).map(|(t, _)| (i, t))
    });
    prop_assume!(hit.is_some());
    let (i, broken) = hit.unwrap();
    *fabric.tile_mut(i % w, i / w) = broken;
    lint_all_ways(&fabric)?;
    Ok(())
}

fn mutations() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (0..5usize, any::<usize>(), 0..Mutation::ALL.len(), any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_mutated_tile_lints_the_same_shared_and_unshared(draw in mutations()) {
        one_mutated_tile(draw)?;
    }
}

// The same property at 1,024 cases: `scripts/verify.sh` runs it in release
// (`cargo test --release -p wse-lint -- --ignored`).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    #[ignore = "deep sweep, run in release by scripts/verify.sh"]
    fn one_mutated_tile_lints_the_same_shared_and_unshared_deep(draw in mutations()) {
        one_mutated_tile(draw)?;
    }
}

fn copy(dst: DsrId, a: DsrId) -> Stmt {
    Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(dst), a: Some(a), b: None })
}

/// A 4x1 row of tiles that all run the same two-statement program: receive
/// eight words of color 2 into a buffer, copy the buffer on. Only the
/// allocation map (tile 1 allocated the buffer four words short) and the
/// route table (tile 2 has no delivery route) tell them apart.
fn same_program_different_tables() -> Fabric {
    let mut f = Fabric::new(4, 1);
    for x in 0..4 {
        f.open_edge(x, 0, Port::North, 2);
        if x != 2 {
            f.set_route(x, 0, Port::North, 2, &[Port::Ramp]);
        }
        let t = f.tile_mut(x, 0);
        let buf = t.mem.alloc_vec(if x == 1 { 4 } else { 8 }, Dtype::F16).unwrap();
        let rest = t.mem.alloc_vec(if x == 1 { 12 } else { 8 }, Dtype::F16).unwrap();
        let d_rx = t.core.add_dsr(mk::rx16(2, 8));
        let d_buf = t.core.add_dsr(mk::tensor16(buf, 8));
        let d_src = t.core.add_dsr(mk::tensor16(buf, 8));
        let d_out = t.core.add_dsr(mk::tensor16(rest + if x == 1 { 8 } else { 0 }, 8));
        let task = t.core.add_task(Task::new("rx", vec![copy(d_buf, d_rx), copy(d_out, d_src)]));
        t.core.mark_entry(task);
    }
    f
}

#[test]
fn identical_programs_with_different_tables_are_different_classes() {
    let fabric = same_program_different_tables();
    let (diags, stats) = lint_all_ways(&fabric).unwrap();
    // Tiles 0 and 3 share a class; 1 and 2 each stand alone — under the
    // real digest and under a forced collision alike.
    assert_eq!((stats.tiles, stats.classes), (4, 3));
    let found: Vec<((usize, usize), Rule)> = diags.iter().map(|d| (d.tile, d.rule)).collect();
    assert_eq!(
        found,
        [((1, 0), Rule::UnallocatedExtent), ((2, 0), Rule::UnreachableReceive)],
        "{diags:#?}"
    );
}

/// Two 2x2 rings side by side on a 4x2 fabric. The top-left tile of each
/// streams a buffer out on color 3 from a thread and writes the same
/// buffer back from what it receives — the in-place loopback idiom, except
/// that the color comes home *through the other three tiles* of the ring,
/// which no tile-local fact can see. The two origin tiles are one class;
/// `break_second` removes a route from the second ring only.
fn ring_loopbacks(break_second: bool) -> Fabric {
    const N: u32 = 16;
    let mut f = Fabric::new(4, 2);
    for ox in [0, 2] {
        f.set_route(ox, 0, Port::Ramp, 3, &[Port::East]);
        f.set_route(ox + 1, 0, Port::West, 3, &[Port::South]);
        if !(break_second && ox == 2) {
            f.set_route(ox + 1, 1, Port::North, 3, &[Port::West]);
        }
        f.set_route(ox, 1, Port::East, 3, &[Port::North]);
        f.set_route(ox, 0, Port::South, 3, &[Port::Ramp]);
        let t = f.tile_mut(ox, 0);
        let buf = t.mem.alloc_vec(N, Dtype::F16).unwrap();
        let d_read = t.core.add_dsr(mk::tensor16(buf, N));
        let d_write = t.core.add_dsr(mk::tensor16(buf, N));
        let d_tx = t.core.add_dsr(mk::tx16(3, N));
        let d_rx = t.core.add_dsr(mk::rx16(3, N));
        let stream = TensorInstr { op: Op::Copy, dst: Some(d_tx), a: Some(d_read), b: None };
        let task = t.core.add_task(Task::new(
            "inplace",
            vec![Stmt::Launch { slot: 0, instr: stream, on_complete: None }, copy(d_write, d_rx)],
        ));
        t.core.mark_entry(task);
    }
    f
}

#[test]
fn loopback_through_other_tiles_is_answered_per_tile_not_per_class() {
    let (diags, stats) = lint_all_ways(&ring_loopbacks(false)).unwrap();
    assert!(diags.is_empty(), "both rings close: {diags:#?}");
    // Origins, the two east-to-north corners, the two west-to-south
    // corners, the two north-to-west corners: four classes of two.
    assert_eq!((stats.tiles, stats.classes), (8, 4));

    let (diags, stats) = lint_all_ways(&ring_loopbacks(true)).unwrap();
    assert_eq!(stats.classes, 5, "the tile that lost its route stands alone");
    let found: Vec<((usize, usize), Rule)> = diags.iter().map(|d| (d.tile, d.rule)).collect();
    assert_eq!(
        found,
        [((2, 0), Rule::DataRace), ((2, 0), Rule::ColorStarved), ((3, 0), Rule::RouteDangling),],
        "only the origin whose ring is open races: {diags:#?}"
    );
}

/// The catalog at the benchmark's geometries (`e2e-bench` `compile-catalog`).
fn catalog_at_benchmark_geometry(operator: &str) -> Fabric {
    let block = Some(Block2D::new(8, 8));
    match operator {
        "star5-2d" | "star9-2d" => lowered(operator, (8, 8), Mesh3D::new(64, 64, 1), block),
        "star7-3d" => lowered(operator, (8, 8), Mesh3D::new(8, 8, 64), None),
        "star25-3d" => lowered(operator, (6, 6), Mesh3D::new(6, 6, 48), None),
        _ => unreachable!("not a catalog operator"),
    }
}

/// "Cost grows with classes, not tiles", as exact counts: the facts of a
/// tile are derived once per class (the pre-class linter resolved sites 11
/// times per *tile*, plus up to twice per launch), and the class count of a
/// translation-symmetric program does not move when the fabric grows.
#[test]
fn work_is_per_class_and_class_counts_are_pinned() {
    for (operator, tiles, classes) in
        [("star5-2d", 64, 9), ("star9-2d", 64, 9), ("star7-3d", 64, 29), ("star25-3d", 36, 36)]
    {
        let (diags, stats) = crate::lint_with_stats(&catalog_at_benchmark_geometry(operator));
        assert!(diags.is_empty(), "{operator}: {diags:#?}");
        assert_eq!((stats.tiles, stats.classes), (tiles, classes), "{operator}");
        assert_eq!(stats.site_resolutions, classes, "{operator}");
        assert_eq!(stats.graph_builds, classes, "{operator}");
    }
    let big = lowered("star7-3d", (24, 24), Mesh3D::new(24, 24, 64), None);
    let (diags, stats) = crate::lint_with_stats(&big);
    assert!(diags.is_empty());
    assert_eq!((stats.tiles, stats.classes), (576, 29), "star7-3d at 24x24");
    assert_eq!((stats.site_resolutions, stats.graph_builds), (29, 29));
}
