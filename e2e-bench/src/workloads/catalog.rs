//! `compile-catalog`: the cold front-end path — assemble, plan, lower,
//! lint, first apply — for the four catalog operators. Lint and lowering
//! do most of the work and the step loop runs a few hundred cycles: the
//! opposite split from `solve3d-dense`.

use super::{Outcome, Workload};
use crate::harness::{digest, Round};
use stencil::decomp::Block2D;
use stencil::mesh::Mesh3D;
use stencil::DiaMatrix;
use wse_arch::{Fabric, SplitMix64, TraceConfig};
use wse_dsl::host::{block_reference_apply, relay_reference_apply};
use wse_dsl::plan::Geometry;
use wse_dsl::StencilSpec;

/// One operator's geometry and the call names its units are timed under
/// (one name per operator, so the floors split by operator).
struct Case {
    operator: &'static str,
    mesh: (usize, usize, usize),
    fabric: (usize, usize),
    block: Option<(usize, usize)>,
    /// The emitter the lowering layer must select.
    kind: &'static str,
    calls: [&'static str; 6],
}

/// The six call names of one operator's units.
macro_rules! calls {
    ($op:literal) => {
        [
            concat!("stencil.assemble.", $op),
            concat!("wse-dsl.plan.", $op),
            concat!("wse-arch.fabric_new.", $op),
            concat!("wse-dsl.lower.", $op),
            concat!("wse-lint.lint.", $op),
            concat!("wse-dsl.apply.", $op),
        ]
    };
}

const CASES: [Case; 4] = [
    Case {
        operator: "star5-2d",
        mesh: (64, 64, 1),
        fabric: (8, 8),
        block: Some((8, 8)),
        kind: "block",
        calls: calls!("star5-2d"),
    },
    Case {
        operator: "star9-2d",
        mesh: (64, 64, 1),
        fabric: (8, 8),
        block: Some((8, 8)),
        kind: "block",
        calls: calls!("star9-2d"),
    },
    Case {
        operator: "star7-3d",
        mesh: (8, 8, 64),
        fabric: (8, 8),
        block: None,
        kind: "listing1",
        calls: calls!("star7-3d"),
    },
    Case {
        operator: "star25-3d",
        mesh: (6, 6, 48),
        fabric: (6, 6),
        block: None,
        kind: "relay",
        calls: calls!("star25-3d"),
    },
];

impl Case {
    fn mesh(&self) -> Mesh3D {
        Mesh3D::new(self.mesh.0, self.mesh.1, self.mesh.2)
    }

    fn block(&self) -> Option<Block2D> {
        self.block.map(|(bx, by)| Block2D::new(bx, by))
    }

    /// The host-side reference for one application, matched to the
    /// emitter the case expects.
    fn mirror(&self, spec: &StencilSpec, a: &DiaMatrix<f64>, v: &[f64]) -> Vec<f64> {
        let dtype = spec.precision.dtype();
        match self.kind {
            "block" => {
                let (rx, ry, _) = spec.radius();
                let block = self.block().expect("block case has a block");
                let (w, h) = self.fabric;
                block_reference_apply(a, &spec.offsets(), block, w, h, rx.max(ry), dtype, v)
            }
            "relay" => relay_reference_apply(spec, a, dtype, v),
            // Listing 1 on exact data: the fp16 result equals the exact
            // matvec.
            _ => {
                let mut exact = vec![0.0; v.len()];
                a.matvec_f64(v, &mut exact);
                exact
            }
        }
    }
}

pub struct Catalog {
    seed: u64,
}

impl Catalog {
    pub fn new(seed: u64) -> Catalog {
        Catalog { seed }
    }
}

/// A seeded dtype-exact iterate: few mantissa bits, so fp16 round-trips
/// exactly and the bit-exact host-mirror comparison means something on
/// every emitter.
fn test_iterate(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    (0..n).map(|_| (rng.next_u64() % 23) as f64 * 0.0625 - 0.625).collect()
}

impl Workload for Catalog {
    fn round(&self, _phase: usize, r: &mut Round<'_>, armed: bool) -> Result<Outcome, String> {
        // Set-up: the specs, the generated iterates, and what the host
        // mirror says each application must return.
        let mut rng = SplitMix64::new(self.seed);
        let prepared: Vec<(StencilSpec, Vec<f64>, Vec<f64>)> =
            r.setup("wse-dsl.host_mirror", || {
                CASES
                    .iter()
                    .map(|c| {
                        let spec = wse_dsl::catalog::get(c.operator).expect("catalog operator");
                        let a = spec.matrix(c.mesh()).expect("catalog operator assembles");
                        let v = test_iterate(&mut rng, c.mesh().len());
                        let want = c.mirror(&spec, &a, &v);
                        (spec, v, want)
                    })
                    .collect()
            });

        let mut out = Outcome::default();
        let (mut outputs, mut inputs): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
        let (mut sim_cycles, mut tile_cycles, mut diagnostics) = (0u64, 0u64, 0usize);
        let mut events = 0u64;
        let mut perf = Vec::with_capacity(CASES.len());
        let mut failure = None;
        for (c, (spec, v, want)) in CASES.iter().zip(&prepared) {
            let [assemble, plan, fabric_new, lower, lint, apply] = c.calls;
            let (w, h) = c.fabric;
            let a = r
                .unit(assemble, || spec.matrix(c.mesh()))
                .map_err(|e| format!("{}: {e}", c.operator))?;
            let geometry = Geometry { fabric_w: w, fabric_h: h, block: c.block() };
            r.unit(plan, || wse_dsl::plan(spec, c.mesh(), geometry))
                .map_err(|e| format!("{}: {e}", c.operator))?;
            let mut fabric = r.unit(fabric_new, || Fabric::new(w, h));
            let lowered = r
                .unit(lower, || wse_dsl::lower(&mut fabric, spec, &a, c.block()))
                .map_err(|e| format!("{}: {e}", c.operator))?;
            let diags = r.unit(lint, || wse_lint::lint(&fabric));
            if armed {
                fabric.arm_trace(TraceConfig::default());
            }
            let perf0 = fabric.perf();
            let (got, cycles) = r.unit(apply, || lowered.apply(&mut fabric, v));
            perf.push((perf0, fabric.perf()));
            if armed {
                let trace = r.diag("wse-trace.take_trace", || fabric.take_trace());
                let trace = trace.ok_or("armed fabric returned no trace")?;
                events += out.push_trace(c.operator, &trace, sim_cycles);
            }

            sim_cycles += cycles;
            tile_cycles += cycles * (w * h) as u64;
            diagnostics += diags.len();
            out.exact(format!("wse-dsl.apply_sim_cycles.{}", c.operator), cycles as f64);
            out.exact(
                format!("wse-dsl.cycles_per_point.{}", c.operator),
                cycles as f64 / c.mesh().len() as f64,
            );
            outputs.push(cycles);
            outputs.extend(got.iter().map(|u| u.to_bits()));
            inputs.extend(v.iter().map(|u| u.to_bits()));

            if failure.is_none() {
                if lowered.kind() != c.kind {
                    failure =
                        Some(format!("{}: emitter {} != {}", c.operator, lowered.kind(), c.kind));
                } else if let Some(d) = diags.first() {
                    failure = Some(format!("{}: lint finding: {d}", c.operator));
                } else if got != *want {
                    failure = Some(format!("{}: apply diverged from the host mirror", c.operator));
                }
            }
        }
        out.exact("op_sim_cycles", sim_cycles as f64);
        out.exact_perf(&perf);
        out.exact("wse-arch.tile_cycles", tile_cycles as f64);
        out.exact("wse-lint.diagnostics", diagnostics as f64);
        if armed {
            out.host.push(("wse-trace.events".into(), events as f64));
        }
        out.output_digest = digest(outputs);
        out.input_digest = digest(inputs);
        match failure {
            Some(why) => Err(why),
            None => Ok(out),
        }
    }

    fn step_calls(&self) -> &'static [&'static str] {
        &["wse-dsl.apply"]
    }
}
