//! The SpMV tessellation routing pattern (Fig. 5): the one channel
//! assignment the lowering layer and `wse-core`'s solver builders share.
//!
//! "A single core pushes its content into adjacent cores' fabric router
//! using a single communication channel. Messages from the four neighbors
//! arrive on four distinct channels ... We allocate channel numbers to make
//! all five of these channels different at every tile."
//!
//! The assignment `color(x, y) = (x + 2y) mod 5` realizes this: at any tile,
//! its own broadcast color `c` and the four incoming colors `c±1, c±2
//! (mod 5)` are pairwise distinct.

use wse_arch::types::{Color, Port};
use wse_arch::Fabric;

pub use crate::colors::{SPMV_COLORS, SPMV_COLOR_BASE};

/// The broadcast color of tile `(x, y)`.
pub fn spmv_color(x: usize, y: usize) -> Color {
    SPMV_COLOR_BASE + ((x + 2 * y) % SPMV_COLORS as usize) as Color
}

/// Colors on which tile `(x, y)` receives its neighbors' broadcasts:
/// `(from_xp, from_xm, from_yp, from_ym)` — i.e. from the +x, −x, +y, −y
/// neighbors. A color is reported even at fabric edges (where no such
/// neighbor exists); callers skip absent neighbors.
pub fn incoming_colors(x: usize, y: usize) -> (Color, Color, Color, Color) {
    let c = |dx: i64, dy: i64| -> Color {
        let v = (x as i64 + dx) + 2 * (y as i64 + dy);
        SPMV_COLOR_BASE + (v.rem_euclid(SPMV_COLORS as i64)) as Color
    };
    (c(1, 0), c(-1, 0), c(0, 1), c(0, -1))
}

/// Configures the SpMV broadcast/receive routes for a `w × h` region of the
/// fabric.
///
/// Per tile: `(Ramp, own color)` fans out to every existing neighbor *and*
/// back to the own ramp (the z-loopback); each `(neighbor port, neighbor's
/// color)` routes to the ramp.
pub fn configure_spmv_routes(fabric: &mut Fabric, w: usize, h: usize) {
    assert!(w <= fabric.width() && h <= fabric.height(), "region exceeds fabric");
    for y in 0..h {
        for x in 0..w {
            let mine = spmv_color(x, y);
            let mut fanout = vec![Port::Ramp]; // loopback
            if x + 1 < w {
                fanout.push(Port::East);
            }
            if x > 0 {
                fanout.push(Port::West);
            }
            if y + 1 < h {
                fanout.push(Port::South);
            }
            if y > 0 {
                fanout.push(Port::North);
            }
            fabric.set_route(x, y, Port::Ramp, mine, &fanout);

            // Receives: the +x neighbor's broadcast arrives on the East port
            // carrying that neighbor's color, and so on.
            if x + 1 < w {
                fabric.set_route(x, y, Port::East, spmv_color(x + 1, y), &[Port::Ramp]);
            }
            if x > 0 {
                fabric.set_route(x, y, Port::West, spmv_color(x - 1, y), &[Port::Ramp]);
            }
            if y + 1 < h {
                fabric.set_route(x, y, Port::South, spmv_color(x, y + 1), &[Port::Ramp]);
            }
            if y > 0 {
                fabric.set_route(x, y, Port::North, spmv_color(x, y - 1), &[Port::Ramp]);
            }
        }
    }
}

/// Verifies the tessellation property over a `w × h` region: at every tile
/// the five channels in play (own broadcast + four incoming) are pairwise
/// distinct. Returns the first violation if any.
pub fn verify_tessellation(w: usize, h: usize) -> Result<(), String> {
    for y in 0..h {
        for x in 0..w {
            let mut colors = vec![spmv_color(x, y)];
            if x + 1 < w {
                colors.push(spmv_color(x + 1, y));
            }
            if x > 0 {
                colors.push(spmv_color(x - 1, y));
            }
            if y + 1 < h {
                colors.push(spmv_color(x, y + 1));
            }
            if y > 0 {
                colors.push(spmv_color(x, y - 1));
            }
            for i in 0..colors.len() {
                for j in 0..i {
                    if colors[i] == colors[j] {
                        return Err(format!(
                            "tile ({x},{y}): colors {:?} collide at positions {j},{i}",
                            colors
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colors_stay_in_range() {
        for y in 0..20 {
            for x in 0..20 {
                let c = spmv_color(x, y);
                assert!(c < SPMV_COLOR_BASE + SPMV_COLORS);
            }
        }
    }

    #[test]
    fn tessellation_property_various_sizes() {
        for (w, h) in [(2, 2), (3, 3), (5, 5), (7, 4), (16, 16), (31, 17), (602, 595)] {
            verify_tessellation(w, h).unwrap_or_else(|e| panic!("{w}x{h}: {e}"));
        }
    }

    #[test]
    fn five_colors_suffice_and_four_do_not() {
        // The analogous (x + 2y) mod 4 assignment collides: the ±y
        // neighbors are c±2, and c+2 ≡ c-2 mod 4. Verify that failure
        // concretely, and that the mod-5 assignment is collision-free.
        let color4 = |x: usize, y: usize| (x + 2 * y) % 4;
        let (x, y) = (2, 2);
        assert_eq!(color4(x, y + 1), color4(x, y.wrapping_sub(1)), "mod-4 assignment collides");
        verify_tessellation(10, 10).expect("mod-5 assignment is collision-free");
    }

    #[test]
    fn routes_configure_without_panic_and_loopback_exists() {
        let mut f = Fabric::new(4, 4);
        configure_spmv_routes(&mut f, 4, 4);
        // Interior tile: own color fans out to 5 ports (4 neighbors + ramp).
        let t = f.tile(1, 1);
        let fanout = t.router.route(Port::Ramp, spmv_color(1, 1)).unwrap();
        assert_eq!(fanout.len(), 5);
        assert!(fanout.contains(&Port::Ramp), "loopback must be routed");
        // Corner tile: 2 neighbors + ramp.
        let t = f.tile(0, 0);
        assert_eq!(t.router.route(Port::Ramp, spmv_color(0, 0)).unwrap().len(), 3);
    }
}
