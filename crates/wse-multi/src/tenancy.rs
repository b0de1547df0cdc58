//! Deterministic placement of tenant regions across an ensemble.
//!
//! The multi-tenant service partitions each wafer into rectangular tenant
//! regions. On a [`MultiFabric`](crate::MultiFabric) the extra constraint
//! is the seam: a tenant program's routes must stay inside one shard (the
//! containment invariant `wse-lint`'s region lint enforces), so a region
//! may never span a wafer boundary. This module is the placement policy:
//! first-fit **shelf packing**, shard by shard, in request order — a
//! deterministic function of the inputs, so the same admission sequence
//! always yields the same layout (the service's replayability depends on
//! this).
//!
//! Shelf packing is the classic rectangle heuristic: within a shard,
//! regions are laid left-to-right on a shelf; when a region does not fit
//! horizontally, a new shelf opens below the tallest region of the current
//! one. It is not optimal (no packing heuristic is), but it is simple,
//! deterministic, and wastes at most one shelf height per shelf — adequate
//! for the handful of tenants a wafer hosts.

use std::fmt;
use wse_arch::Region;

/// Where one requested region landed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Index of the shard (wafer) the region lives on.
    pub shard: usize,
    /// The region, in that shard's local tile coordinates.
    pub region: Region,
}

/// Placement failure: the request that did not fit anywhere.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementOverflow {
    /// Index of the offending request in the input slice.
    pub index: usize,
    /// The requested extents.
    pub w: usize,
    /// The requested extents.
    pub h: usize,
}

impl fmt::Display for PlacementOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region request #{} ({}x{} tiles) fits on no shard", self.index, self.w, self.h)
    }
}

impl std::error::Error for PlacementOverflow {}

/// One shard's open shelves during packing.
struct ShardPacker {
    w: usize,
    h: usize,
    /// y of the current shelf's top edge.
    shelf_y: usize,
    /// Height of the tallest region on the current shelf.
    shelf_h: usize,
    /// x cursor on the current shelf.
    cursor_x: usize,
}

impl ShardPacker {
    fn new(w: usize, h: usize) -> ShardPacker {
        ShardPacker { w, h, shelf_y: 0, shelf_h: 0, cursor_x: 0 }
    }

    /// Tries to place a `w × h` region; first-fit on the current shelf,
    /// then on a fresh shelf below it.
    fn place(&mut self, w: usize, h: usize) -> Option<Region> {
        if w > self.w || h > self.h {
            return None;
        }
        if self.cursor_x + w <= self.w && self.shelf_y + h <= self.h {
            let r = Region::new(self.cursor_x, self.shelf_y, w, h);
            self.cursor_x += w;
            self.shelf_h = self.shelf_h.max(h);
            return Some(r);
        }
        // Open a new shelf below the current one.
        let next_y = self.shelf_y + self.shelf_h;
        if next_y + h <= self.h {
            let r = Region::new(0, next_y, w, h);
            self.shelf_y = next_y;
            self.shelf_h = h;
            self.cursor_x = w;
            return Some(r);
        }
        None
    }
}

/// Places `requests` (as `(w, h)` tile extents) onto shards of the given
/// `(w, h)` tile dimensions, in order, first-fit across shards in index
/// order. Returns one [`Placement`] per request, or the first request that
/// fits nowhere. Placements on one shard never overlap, never cross the
/// shard edge (and therefore never span a seam), and are a deterministic
/// function of the inputs.
pub fn place_regions(
    shard_dims: &[(usize, usize)],
    requests: &[(usize, usize)],
) -> Result<Vec<Placement>, PlacementOverflow> {
    let mut packers: Vec<ShardPacker> =
        shard_dims.iter().map(|&(w, h)| ShardPacker::new(w, h)).collect();
    let mut out = Vec::with_capacity(requests.len());
    'next: for (index, &(w, h)) in requests.iter().enumerate() {
        for (shard, p) in packers.iter_mut().enumerate() {
            if let Some(region) = p.place(w, h) {
                out.push(Placement { shard, region });
                continue 'next;
            }
        }
        return Err(PlacementOverflow { index, w, h });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_disjoint_regions_on_one_shard() {
        let placed = place_regions(&[(8, 8)], &[(4, 4), (4, 4), (8, 2), (2, 2)]).unwrap();
        assert_eq!(placed.len(), 4);
        assert!(placed.iter().all(|p| p.shard == 0));
        for (i, a) in placed.iter().enumerate() {
            assert!(a.region.x + a.region.w <= 8 && a.region.y + a.region.h <= 8, "{a:?}");
            for b in &placed[i + 1..] {
                assert!(!a.region.overlaps(&b.region), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn spills_to_the_next_shard_rather_than_the_seam() {
        // Two 4x4 shards; two 3x4 tenants. The second cannot fit on shard
        // 0 (only a 1-tile-wide sliver remains, and regions never span the
        // seam), so it must land at shard 1's origin.
        let placed = place_regions(&[(4, 4), (4, 4)], &[(3, 4), (3, 4)]).unwrap();
        assert_eq!(placed[0], Placement { shard: 0, region: Region::new(0, 0, 3, 4) });
        assert_eq!(placed[1], Placement { shard: 1, region: Region::new(0, 0, 3, 4) });
        // A third such tenant fits on neither shard: overflow, not a
        // seam-spanning placement.
        let err = place_regions(&[(4, 4), (4, 4)], &[(3, 4), (3, 4), (3, 4)]).unwrap_err();
        assert_eq!(err.index, 2);
    }

    #[test]
    fn opens_a_new_shelf_below_the_tallest() {
        let placed = place_regions(&[(6, 10)], &[(4, 3), (2, 5), (6, 4)]).unwrap();
        // Shelf 1 holds the 4x3 and 2x5; its height is 5, so the 6x4 opens
        // a shelf at y = 5.
        assert_eq!(placed[2].region, Region::new(0, 5, 6, 4));
    }

    #[test]
    fn overflow_is_an_error_naming_the_request() {
        let err = place_regions(&[(4, 4)], &[(4, 4), (2, 2)]).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(err.to_string().contains("#1"));
        // A request bigger than any shard fails immediately.
        let err = place_regions(&[(4, 4), (4, 4)], &[(5, 2)]).unwrap_err();
        assert_eq!(err.index, 0);
    }

    #[test]
    fn placement_is_deterministic() {
        let dims = [(7, 9), (5, 5)];
        let reqs = [(3, 3), (4, 2), (2, 6), (5, 5), (2, 2)];
        assert_eq!(place_regions(&dims, &reqs).unwrap(), place_regions(&dims, &reqs).unwrap());
    }
}
