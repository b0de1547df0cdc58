//! The whole-wafer virtual-channel (color) map.
//!
//! Every kernel family used to declare its own color constants, with the
//! aliasing rules documented in scattered doc comments (the block halo
//! colors vs the `allreduce` lane-chain colors, the multi-wafer seam
//! colors, ...). This module is now the single source of truth: the
//! lowering layer and every `wse-core` façade consume these constants, so
//! an accidental collision becomes a one-file review instead of a
//! cross-crate archaeology session.
//!
//! Allocation map (24 colors, [`wse_arch::types::NUM_COLORS`]):
//!
//! | range  | user                                                        |
//! |--------|-------------------------------------------------------------|
//! | 0..5   | SpMV tessellation broadcast ([`crate::tess`], Fig. 5)       |
//! | 6..10  | DSL relay rounds for wide 3D stars ([`crate::relay`])       |
//! | 10..16 | scalar AllReduce tree (base 10, span 6)                     |
//! | 16..22 | 2D block halo exchange (x pair + per-ring y pairs, r ≤ 2)   |
//! | 16..19 | lane-chain vector AllReduce — **documented alias** of the   |
//! |        | block halo colors: the two programs are never co-resident   |
//! | 22..24 | multi-wafer seam halo                                       |

/// Number of colors the SpMV tessellation consumes.
pub const SPMV_COLORS: u8 = 5;

/// First color of the SpMV tessellation (0..5); everything else sits above.
pub const SPMV_COLOR_BASE: u8 = 0;

/// Eastward relay round for wide 3D stars ([`crate::relay`]).
pub const RELAY_E: u8 = 6;
/// Westward relay round.
pub const RELAY_W: u8 = 7;
/// Southward relay round.
pub const RELAY_S: u8 = 8;
/// Northward relay round.
pub const RELAY_N: u8 = 9;

/// Default base color of the scalar AllReduce tree (span
/// [`ALLREDUCE_SPAN`]), clear of the tessellation and the relay block.
pub const ALLREDUCE_BASE: u8 = 10;
/// Colors one scalar AllReduce instance consumes.
pub const ALLREDUCE_SPAN: u8 = 6;

/// Eastward halo strips of the 2D block mapping.
pub const HALO_E: u8 = 16;
/// Westward halo strips.
pub const HALO_W: u8 = 17;
/// Southward halo strips (ring 0; see [`halo_s`]).
pub const HALO_S: u8 = 18;
/// Northward halo strips (ring 0; see [`halo_n`]).
pub const HALO_N: u8 = 19;

/// Southward halo color of ring `k` (`k < r`): the y-round of a radius-`r`
/// block exchange streams each of the `r` halo rows on its own color pair,
/// `(18 + 2k, 19 + 2k)`. Ring 0 is the classic [`HALO_S`]/[`HALO_N`] pair;
/// radius 2 additionally uses 20/21. Radius 3 would collide with the
/// multi-wafer seam colors, which is one of the two reasons the block
/// mapping caps the radius at 2 (the other is background-thread slots).
pub const fn halo_s(k: usize) -> u8 {
    HALO_S + 2 * k as u8
}

/// Northward halo color of ring `k` (`k < r`); see [`halo_s`].
pub const fn halo_n(k: usize) -> u8 {
    HALO_N + 2 * k as u8
}

/// Westward row chains of the vector lane-chain AllReduce. Aliases
/// [`HALO_E`]: a 2-D block program and a lane-chain program are never
/// resident on the same fabric, and routes are per-tile.
pub const CHAIN_ROW: u8 = 16;
/// Northward column chain (aliases [`HALO_W`], same argument).
pub const CHAIN_COL: u8 = 17;
/// Lane-chain result broadcast (aliases [`HALO_S`]).
pub const CHAIN_BC: u8 = 18;

/// Virtual channel carrying halo planes eastward across wafer seams.
/// Disjoint from every on-wafer program above.
pub const SEAM_EAST: u8 = 22;
/// Virtual channel carrying halo planes westward across wafer seams.
pub const SEAM_WEST: u8 = 23;

#[cfg(test)]
mod tests {
    use super::*;
    use wse_arch::types::NUM_COLORS;

    #[test]
    fn ranges_are_disjoint_except_documented_aliases() {
        // Tessellation, relay, allreduce tree, block halo, seam: pairwise
        // disjoint. Chain colors alias the block halo by design.
        let tess: Vec<u8> = (SPMV_COLOR_BASE..SPMV_COLOR_BASE + SPMV_COLORS).collect();
        let relay = [RELAY_E, RELAY_W, RELAY_S, RELAY_N];
        let tree: Vec<u8> = (ALLREDUCE_BASE..ALLREDUCE_BASE + ALLREDUCE_SPAN).collect();
        let halo: Vec<u8> =
            (0..2).flat_map(|k| [halo_s(k), halo_n(k)]).chain([HALO_E, HALO_W]).collect();
        let seam = [SEAM_EAST, SEAM_WEST];
        let families: [&[u8]; 5] = [&tess, &relay, &tree, &halo, &seam];
        for (i, a) in families.iter().enumerate() {
            for b in families.iter().skip(i + 1) {
                for c in a.iter() {
                    assert!(!b.contains(c), "color {c} shared between disjoint families");
                }
            }
        }
        for fam in families {
            for &c in fam {
                assert!((c as usize) < NUM_COLORS, "color {c} out of range");
            }
        }
        // The documented alias.
        assert_eq!(CHAIN_ROW, HALO_E);
        assert_eq!(CHAIN_COL, HALO_W);
        assert_eq!(CHAIN_BC, HALO_S);
    }

    #[test]
    fn radius_two_halo_stays_clear_of_the_seam() {
        assert!(halo_n(1) < SEAM_EAST);
    }
}
