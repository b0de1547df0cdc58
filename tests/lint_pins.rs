//! Byte-identity pins for `wse-lint` diagnostics.
//!
//! `tests/lint_pins.expected.txt` was generated by the linter of the commit
//! *before* the per-tile rules were interned by tile class and must never
//! be edited to make a linter change pass. Two halves:
//!
//! * the eight `scripts/expected_lints/` fixtures, linted (or, for the two
//!   DSL rejections, lowered) through the library and rendered the way the
//!   `wse-lint` binary prints them — the same files `scripts/verify.sh`
//!   diffs against the binary;
//! * a seeded single-tile mutation corpus over clean programs: one tile of
//!   a lowered operator or a built solver gets one defect (a dropped
//!   route, a swapped color, a descriptor shifted into its neighbour
//!   buffer, a removed completion trigger, a removed data trigger) and the
//!   whole diagnostic list is pinned.
//!
//! `UPDATE_LINT_PINS=1 cargo test --test lint_pins` rewrites the corpus
//! file; only a change that *means* to move diagnostics may commit that.

use std::fmt::Write as _;
use std::path::PathBuf;
use stencil::decomp::Block2D;
use stencil::dia::DiaMatrix;
use stencil::mesh::Mesh3D;
use stencil::precond::jacobi_scale;
use stencil::problem::manufactured;
use stencil::stencil9::convection_diffusion9;
use wse_arch::{Fabric, SplitMix64};
use wse_core::bicgstab2d::WaferBicgstab2d;
use wse_core::{WaferBicgstab, WaferBicgstabMulti};
use wse_float::F16;
use wse_lint::mutation::{mutate, Mutation};
use wse_multi::{HostLink, MultiFabric};

fn repo_file(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

// ------------------------------------------------------- shipped fixtures

/// What `wse-lint fixture:NAME` prints on stdout.
fn render_fixture(name: &str) -> String {
    if let Some((err, untouched)) = wse_dsl::fixtures::reject(name) {
        return format!(
            "fixture:{name}: rejected by the DSL front-end (fabric untouched: {untouched})\n  \
             error: [dsl-reject] {err}\n"
        );
    }
    let fabric = wse_lint::fixtures::build(name).expect("known fixture");
    let diags = wse_lint::lint(&fabric);
    let mut out = format!("fixture:{name}: {} diagnostic(s)\n", diags.len());
    for d in &diags {
        writeln!(out, "  {d}").unwrap();
    }
    out
}

#[test]
fn expected_lints_match_through_the_library() {
    let names: Vec<&str> =
        wse_lint::fixtures::ALL.iter().chain(wse_dsl::fixtures::ALL).copied().collect();
    let on_disk = std::fs::read_dir(repo_file("scripts/expected_lints")).unwrap().count();
    assert_eq!(names.len(), on_disk, "every scripts/expected_lints file has a fixture");
    for name in names {
        let want =
            std::fs::read_to_string(repo_file(&format!("scripts/expected_lints/{name}.txt")))
                .unwrap();
        assert_eq!(render_fixture(name), want, "fixture {name}");
    }
}

// ------------------------------------------------------- mutation corpus

/// Every subject is a [`MultiFabric`]: a single fabric is the `k = 1`
/// ensemble (one shard, no seams — exactly what `wse_lint::lint` wraps).
fn single(fabric: Fabric) -> MultiFabric {
    let mut multi = MultiFabric::new(fabric.width(), fabric.height(), 1, HostLink::ideal());
    *multi.shard_mut(0) = fabric;
    multi
}

/// Every tile as `(shard, x, y)`, shard-major then row-major.
fn tiles(multi: &MultiFabric) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for s in 0..multi.k() {
        let f = multi.shard(s);
        for y in 0..f.height() {
            for x in 0..f.width() {
                out.push((s, x, y));
            }
        }
    }
    out
}

fn system3d(w: usize, h: usize, z: usize) -> DiaMatrix<F16> {
    manufactured(Mesh3D::new(w, h, z), (1.0, -0.5, 0.5), 11).preconditioned().matrix.convert()
}

fn lowered(
    operator: &str,
    fabric: (usize, usize),
    mesh: Mesh3D,
    block: Option<Block2D>,
) -> MultiFabric {
    let spec = wse_dsl::catalog::get(operator).expect("catalog operator");
    let mut f = Fabric::new(fabric.0, fabric.1);
    wse_dsl::lower_spec(&mut f, &spec, mesh, block).expect("catalog operator must lower");
    single(f)
}

/// The clean programs, small enough that a debug-build lint of each is
/// milliseconds but every one has interior, edge and corner tiles.
fn subjects() -> Vec<(&'static str, MultiFabric)> {
    let block = Block2D::new(4, 4);
    let mut out = vec![
        ("star5-2d", lowered("star5-2d", (4, 4), Mesh3D::new(16, 16, 1), Some(block))),
        ("star9-2d", lowered("star9-2d", (4, 4), Mesh3D::new(16, 16, 1), Some(block))),
        ("star7-3d", lowered("star7-3d", (4, 4), Mesh3D::new(4, 4, 8), None)),
        ("star25-3d", lowered("star25-3d", (5, 4), Mesh3D::new(5, 4, 12), None)),
    ];
    let mut f = Fabric::new(3, 3);
    let _ = WaferBicgstab::build(&mut f, &system3d(3, 3, 6));
    out.push(("bicgstab-3d", single(f)));

    let block = Block2D::new(3, 3);
    let mesh = block.covered_mesh(3, 3);
    let a = convection_diffusion9(mesh, (1.5, -0.5));
    let x: Vec<f64> = (0..mesh.len()).map(|i| ((i % 9) as f64) * 0.125 - 0.5).collect();
    let mut b = vec![0.0; mesh.len()];
    a.matvec_f64(&x, &mut b);
    let mut f = Fabric::new(3, 3);
    let _ = WaferBicgstab2d::build(&mut f, &jacobi_scale(&a, &b).matrix.convert(), block);
    out.push(("bicgstab-2d", single(f)));

    let mut multi = MultiFabric::new(4, 3, 2, HostLink::paper_default());
    let _ = WaferBicgstabMulti::build_fused(&mut multi, &system3d(4, 3, 6));
    out.push(("fused-k2", multi));
    out.push(("triggers", single(wse_lint::mutation::trigger_pipeline())));
    out
}

/// The corpus: every subject × mutation × seed, one section each.
fn corpus() -> String {
    const SEEDS: u64 = 4;
    let mut out = String::new();
    for (name, mut subject) in subjects() {
        assert!(subject.lint().is_empty(), "{name} must start clean");
        let tiles = tiles(&subject);
        for m in Mutation::ALL {
            for seed in 0..SEEDS {
                let mut rng = SplitMix64::new(0x11A7 ^ (seed << 8) ^ m as u64);
                let start = rng.below(tiles.len() as u64) as usize;
                let pick = rng.next_u64();
                // First tile at or after the drawn one that has a candidate.
                let hit = (0..tiles.len()).find_map(|k| {
                    let (s, x, y) = tiles[(start + k) % tiles.len()];
                    mutate(subject.shard(s).tile(x, y), m, pick).map(|(t, what)| (s, x, y, t, what))
                });
                let Some((s, x, y, broken, what)) = hit else {
                    writeln!(out, "## {name} {m:?} seed {seed}: no candidate").unwrap();
                    continue;
                };
                writeln!(out, "## {name} {m:?} seed {seed}: shard {s} tile ({x}, {y}): {what}")
                    .unwrap();
                let original = std::mem::replace(subject.shard_mut(s).tile_mut(x, y), broken);
                let diags = subject.lint();
                *subject.shard_mut(s).tile_mut(x, y) = original;
                if diags.is_empty() {
                    writeln!(out, "(clean)").unwrap();
                }
                for d in &diags {
                    writeln!(out, "{d}").unwrap();
                }
            }
        }
        assert!(subject.lint().is_empty(), "{name} must be restored clean");
    }
    out
}

#[test]
fn mutation_corpus_is_pinned() {
    let path = repo_file("tests/lint_pins.expected.txt");
    let got = corpus();
    if std::env::var_os("UPDATE_LINT_PINS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap();
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        let at = line.unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "mutation corpus diverges from tests/lint_pins.expected.txt at line {}:\n  got:  {}\n  want: {}",
            at + 1,
            got.lines().nth(at).unwrap_or("<end>"),
            want.lines().nth(at).unwrap_or("<end>"),
        );
    }
}
