//! Property tests for the SpMV tessellation color assignment (Fig. 5).
//!
//! The paper's invariant: at every tile, the tile's own broadcast color and
//! the four colors its neighbors broadcast on are **pairwise distinct**, so
//! the five concurrent streams through a router never share a channel.

use proptest::prelude::*;
use wse_dsl::tess::{incoming_colors, spmv_color, SPMV_COLORS};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Own color + the four neighbor colors are pairwise distinct at every
    /// tile of an arbitrarily sized fabric.
    #[test]
    fn five_colors_pairwise_distinct_on_every_tile(w in 1usize..40, h in 1usize..40) {
        for y in 0..h {
            for x in 0..w {
                let own = spmv_color(x, y);
                let (xp, xm, yp, ym) = incoming_colors(x, y);
                let five = [own, xp, xm, yp, ym];
                for i in 0..5 {
                    for j in i + 1..5 {
                        prop_assert!(
                            five[i] != five[j],
                            "tile ({}, {}): colors {:?} collide at {} and {}",
                            x, y, five, i, j
                        );
                    }
                }
            }
        }
    }

    /// The assignment is consistent across tiles: what tile (x, y) expects
    /// from a neighbor is exactly that neighbor's own broadcast color.
    #[test]
    fn incoming_colors_match_neighbor_broadcasts(x in 0usize..100, y in 0usize..100) {
        let (xp, xm, yp, ym) = incoming_colors(x, y);
        prop_assert_eq!(xp, spmv_color(x + 1, y));
        prop_assert_eq!(yp, spmv_color(x, y + 1));
        if x > 0 {
            prop_assert_eq!(xm, spmv_color(x - 1, y));
        }
        if y > 0 {
            prop_assert_eq!(ym, spmv_color(x, y - 1));
        }
    }

    /// Colors stay inside the tessellation's reserved band.
    #[test]
    fn colors_stay_in_band(x in 0usize..1000, y in 0usize..1000) {
        let own = spmv_color(x, y);
        let (xp, xm, yp, ym) = incoming_colors(x, y);
        for c in [own, xp, xm, yp, ym] {
            prop_assert!(c < SPMV_COLORS, "color {} outside 0..{}", c, SPMV_COLORS);
        }
    }
}
