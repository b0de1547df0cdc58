//! Intentionally illegal stencil specs, the front-end counterpart of
//! `wse_lint::fixtures`: each must be refused by [`crate::lower_spec`] with
//! a structured error **before any fabric is touched**. Shared by the
//! `wse-lint` CLI's `fixture:NAME` mode and the tier-1 lint pins.

use crate::{Boundary, DslError, Precision, StencilSpec, Tap};
use stencil::mesh::Mesh3D;
use wse_arch::Fabric;

/// Names of every rejection fixture, in the order [`reject`] knows them.
pub const ALL: &[&str] = &["dsl-radius-overflow", "dsl-sram-overflow"];

/// Lowers the named illegal spec onto a probe fabric. Returns the error and
/// whether the fabric really stayed pristine (no SRAM, no tasks, no
/// routes); `None` for an unknown name.
///
/// # Panics
/// Panics if the spec unexpectedly lowers clean.
pub fn reject(name: &str) -> Option<(DslError, bool)> {
    let (spec, mesh) = match name {
        // A tap seven hops out: past the relay mapping's routable radius.
        "dsl-radius-overflow" => (
            StencilSpec::new(
                "bad-radius",
                vec![Tap::constant(0, 0, 0, 1.0), Tap::constant(7, 0, 0, -0.125)],
                Precision::F16,
                Boundary::Dirichlet0,
            ),
            Mesh3D::new(3, 3, 8),
        ),
        // A 4096-point column: seven coefficient vectors plus buffers blow
        // the 48 KB tile budget.
        "dsl-sram-overflow" => {
            (crate::catalog::get("star7-3d").expect("catalog operator"), Mesh3D::new(2, 2, 4096))
        }
        _ => return None,
    };
    let mut fabric = Fabric::new(8, 8);
    let err = match crate::lower_spec(&mut fabric, &spec, mesh, None) {
        Err(e) => e,
        Ok(_) => panic!("fixture {name} unexpectedly lowered clean"),
    };
    let untouched = (0..fabric.height()).all(|y| {
        (0..fabric.width()).all(|x| {
            let t = fabric.tile(x, y);
            t.mem.used() == 0
                && t.core.dump_program().is_empty()
                && t.router.routes().next().is_none()
        })
    });
    Some((err, untouched))
}
